"""Error types: every one survives pickling, as a worker process sends it."""

import pickle

import pytest

from beliefnet import errors
from beliefnet.analysis import CptParameterId
from beliefnet.errors import BeliefnetError

# constructor arguments for each error type; a new type needs an entry here
EXAMPLES = {
    "BeliefnetError": ("plain message",),
    "CycleDetected": (["A", "B", "C"],),
    "UnknownVariable": ("Age",),
    "UnknownLevel": ("Age", "old"),
    "MalformedFile": ("model.yaml", "line 3, column 1", "bad indent"),
    "VersionMismatch": ("model.yaml", 7, 1),
    "RaggedRow": (4, 10, 9, "survey.csv", 5),
    "MissingColumn": ("Age",),
    "UnmappedToken": ("Age", "??", 3),
    "NonBinaryMember": ("Fairness", "Q12", ("yes", "no", "maybe")),
    "UnassignedVariable": ("Age",),
    "EmptyStrengths": (),
    "ZeroProbabilityEvidence": ({"A": "a0"}, 0.0, "lockdown"),
    "DegenerateTarget": ("Age",),
    "SaturatedParameter": (CptParameterId("X", 0, 1),),
    "BootstrapError": (3, errors.UnknownLevel("Age", "old")),
    "InvalidQuery": ("target is evidence",),
    "WorkspaceError": ("workspace is locked",),
}


def _error_types():
    found, todo = [], [BeliefnetError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


def test_every_error_type_has_an_example():
    assert {cls.__name__ for cls in _error_types()} == set(EXAMPLES)


def _same(a, b):
    """Equal type, message and attributes, comparing nested errors the same way."""
    if isinstance(a, BaseException):
        return (
            type(a) is type(b)
            and str(a) == str(b)
            and a.args == b.args
            and a.__dict__.keys() == b.__dict__.keys()
            and all(_same(v, b.__dict__[k]) for k, v in a.__dict__.items())
        )
    return a == b


@pytest.mark.parametrize("cls", _error_types(), ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    err = cls(*EXAMPLES[cls.__name__])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(err, protocol=protocol))
        assert _same(err, back)


def test_attribute_set_after_construction_survives():
    err = errors.ZeroProbabilityEvidence({"A": "a0"}, 0.0)
    err.scenario = "late"
    assert pickle.loads(pickle.dumps(err)).scenario == "late"
