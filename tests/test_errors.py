import inspect
import pickle

import pytest

from bellhv import errors

ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
]

# constructor arguments beyond the message
EXTRA_ARGS = {errors.QuadratureConvergenceError: (0.25, 1.5e-9)}


def test_every_class_is_a_bellhv_error():
    assert errors.BellhvError in ERROR_CLASSES and len(ERROR_CLASSES) == 8
    assert all(issubclass(cls, errors.BellhvError) for cls in ERROR_CLASSES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    # the fit's restart workers send their errors back to the caller pickled
    error = cls("no good", *EXTRA_ARGS.get(cls, ()))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert copy.args == error.args
    assert str(copy) == "no good"
    assert vars(copy) == vars(error)
