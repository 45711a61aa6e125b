import numpy as np
import pytest

from bellhv.errors import ParameterError
from bellhv.rng import RngStream


def test_same_key_reproduces_bit_identical_draws():
    a = RngStream(seed=42, stream_id=3).generator().integers(0, 2**63, size=256)
    b = RngStream(seed=42, stream_id=3).generator().integers(0, 2**63, size=256)
    np.testing.assert_array_equal(a, b)


def test_distinct_seeds_differ():
    a = RngStream(1).generator().integers(0, 2**63, size=64)
    b = RngStream(2).generator().integers(0, 2**63, size=64)
    assert not np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = RngStream(7, stream_id=0).generator().integers(0, 2**63, size=64)
    b = RngStream(7, stream_id=1).generator().integers(0, 2**63, size=64)
    assert not np.array_equal(a, b)


def test_substream_is_deterministic():
    s = RngStream(11)
    assert s.substream(5) == s.substream(5)
    a = s.substream(5).generator().random(32)
    b = s.substream(5).generator().random(32)
    np.testing.assert_array_equal(a, b)


def test_substreams_are_distinct():
    s = RngStream(11)
    ids = {s.substream(i).stream_id for i in range(100)}
    assert len(ids) == 100
    # nesting matters: substream(1).substream(2) differs from substream(1),
    # substream(2) and substream(2).substream(1)
    nested = s.substream(1).substream(2)
    assert nested not in (s.substream(1), s.substream(2), s.substream(2).substream(1))


def test_substream_keeps_seed():
    s = RngStream(19, stream_id=4)
    assert s.substream(9).seed == 19


def test_uint64_validation():
    RngStream(0)
    RngStream(2**64 - 1, stream_id=2**64 - 1)
    with pytest.raises(ParameterError):
        RngStream(-1)
    with pytest.raises(ParameterError):
        RngStream(2**64)
    with pytest.raises(ParameterError):
        RngStream(0, stream_id=-5)
    with pytest.raises(ParameterError):
        RngStream(1.5)


def test_frozen_dataclass():
    s = RngStream(3)
    with pytest.raises(Exception):
        s.seed = 4
