"""The error hierarchy: one type for bad input, exit codes, and pickling."""

import inspect
import pickle

import pytest

from varest import cli, errors
from varest.errors import InitialEstimatorFailure, InvalidInput, VarestError

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, VarestError) and cls.__module__ == errors.__name__]


def _instance(cls):
    if cls is InitialEstimatorFailure:
        return cls(3, ValueError("boom"))
    return cls("boom")


def test_every_error_is_listed():
    assert {VarestError, InvalidInput, InitialEstimatorFailure} <= set(ERROR_CLASSES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_survives_pickling(cls):
    error = _instance(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    if cls is InitialEstimatorFailure:
        assert copy.resample_index == 3 and repr(copy.cause) == "ValueError('boom')"


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_cli_exits_2_exactly_on_invalid_input(monkeypatch, capsys, cls):
    error = _instance(cls)

    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_summarize", fail)
    code = cli.main(["summarize", "--records", "r.csv", "--true-tau2", "1"])
    assert code == (2 if issubclass(cls, InvalidInput) else 1)
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("name", ["InvalidScenario", "DimensionMismatch", "LengthMismatch",
                                  "IndexOutOfRange", "NearSingularCovariance"])
def test_bad_input_kinds_are_invalid_input(name):
    cls = getattr(errors, name)
    assert issubclass(cls, InvalidInput) and issubclass(cls, ValueError)
