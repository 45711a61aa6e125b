import inspect
import pickle

import pytest

from bellhv import errors
from bellhv.angles import degrees_grid, reduce_axis_angle, require_deviation_angle
from bellhv.malusfit import residual
from bellhv.montecarlo import ExperimentConfig, expected_coincidence_probability
from bellhv.quadrature import QuadratureSpec
from bellhv.rng import RngStream
from bellhv.transmission import (
    REFERENCE_MODEL,
    TabulatedModel,
    default_angle_grid,
    intensity_ratio,
    malus,
    normalized_pair_curve,
    pair_transmission,
)

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


def _config_with_angle_a(angle_a):
    return ExperimentConfig(REFERENCE_MODEL, angle_a, 0.0, 10, RngStream(0))


ANGLE, PARAMETER = errors.AngleDomainError, errors.ParameterError

# id: (function, arguments, typed error, the argument's name in the message).
# Non-numeric input, and a model argument that is not a model, fail as usage
# errors, not as the ValueError, TypeError or AttributeError of whatever
# numpy or the quadrature tried first.
BAD_ARGUMENTS = {
    "require_deviation_angle": (require_deviation_angle, ("x",), ANGLE, "angle"),
    "reduce_axis_angle": (reduce_axis_angle, ("x",), ANGLE, "angle difference"),
    "malus": (malus, ("x",), ANGLE, "alpha"),
    "probabilities": (REFERENCE_MODEL.probabilities, ("x",), ANGLE, "deviation angle"),
    "ExperimentConfig": (_config_with_angle_a, ("x",), ANGLE, "angle_a"),
    "residual": (residual, (REFERENCE_MODEL, ["x"]), ANGLE, "grid"),
    "TabulatedModel_nodes": (TabulatedModel, (["a", "b"], [1, 0]), PARAMETER, "table nodes"),
    "TabulatedModel_values": (TabulatedModel, ([0, 1], ["x", "y"]), PARAMETER, "table values"),
    "degrees_grid": (degrees_grid, ("a", 1, 1), ANGLE, "grid start"),
    "QuadratureSpec": (lambda: QuadratureSpec(refine_until="x"), (), PARAMETER, "refine_until"),
    "pair_transmission": (pair_transmission, ("x", 0.1), PARAMETER, "model"),
    "normalized_pair_curve": (
        normalized_pair_curve, ("x", default_angle_grid()), PARAMETER, "model"
    ),
    "intensity_ratio": (intensity_ratio, ("x",), PARAMETER, "model"),
    "expected_coincidence_probability": (
        expected_coincidence_probability, ("x", 0, 0.1), PARAMETER, "model"
    ),
}


@pytest.mark.parametrize("function,args,error,name", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_argument_is_a_typed_error_naming_it(function, args, error, name):
    with pytest.raises(error, match=name):
        function(*args)
