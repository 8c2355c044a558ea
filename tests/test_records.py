"""The package's nine records behave as frozen dataclasses: construction,
equality, hashing, repr, immutability, copying and pickling."""

import copy
import pickle

import pytest

from regkernel import (
    Alphabet,
    ApproxCertificate,
    ConceptUniverse,
    Dataset,
    Dfa,
    GramMatrix,
    KernelParams,
    KernelValue,
    PerceptronModel,
)

AB = Alphabet(("a", "b"))
PARAMS = KernelParams(alphabet=AB, n_max=2)
CERT = ApproxCertificate(epsilon=0.1, failure_prob=0.05, samples_per_term=185, master_seed=7)

# every constructor argument of each record, by keyword, in field order
FIELDS = {
    Alphabet: {"symbols": ("a", "b")},
    Dfa: {"n": 2, "alphabet": AB, "table": ((1, 1), (0, 0)), "accepting": frozenset({0})},
    KernelParams: {"alphabet": AB, "n_max": 2, "mode": "monte-carlo", "scaling": "normalized",
                   "epsilon": 0.2, "failure_prob": 0.1, "master_seed": 5,
                   "weights": (1.0, 2.0)},
    ApproxCertificate: {"epsilon": 0.1, "failure_prob": 0.05, "samples_per_term": 185,
                        "master_seed": 7},
    KernelValue: {"value": 1.5, "mode": "monte-carlo", "scaling": "normalized", "n_used": 2,
                  "truncated": False, "certificate": CERT},
    GramMatrix: {"strings": ("a", "b"), "params": PARAMS, "values": ((5, 3), (3, 5))},
    Dataset: {"alphabet": AB, "records": (("a", 1), ("b", -1))},
    PerceptronModel: {"support": (("a", 1),), "params": PARAMS, "epochs_run": 1,
                      "errors_per_epoch": (0,)},
    ConceptUniverse: {"alphabet": AB, "n_max": 2},
}
RECORDS = list(FIELDS)
# fields that the class fixes and the constructor does not take
CONSTANTS = {ApproxCertificate: {"bound": "hoeffding-per-entry"}}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_construction_equality_and_hash(cls):
    fields = FIELDS[cls]
    key = {**fields, **CONSTANTS.get(cls, {})}
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert {name: getattr(by_keyword, name) for name in key} == key
    assert by_keyword == by_position and not by_keyword != by_position
    # as a frozen dataclass hashes: the tuple of its fields
    assert hash(by_keyword) == hash(by_position) == hash(tuple(key.values()))
    assert by_keyword.__eq__(object()) is NotImplemented
    for other in RECORDS:
        if other is not cls:
            assert by_keyword != other(**FIELDS[other])


def test_record_reprs():
    assert repr(AB) == "Alphabet(symbols=('a', 'b'))"
    assert repr(PARAMS) == (
        "KernelParams(alphabet=Alphabet(symbols=('a', 'b')), n_max=2, mode='exact', "
        "scaling='paper', epsilon=0.1, failure_prob=0.05, master_seed=0, weights=None)"
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_is_frozen(cls):
    record = cls(**FIELDS[cls])
    for name, value in FIELDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert cls(**FIELDS[cls]) == record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_copies_and_pickles(cls):
    record = cls(**FIELDS[cls])
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
        assert vars(twin) == vars(record)
    assert pickle.loads(pickle.dumps(AB)).encode("ba") == [1, 0]


@pytest.mark.parametrize("cls", [Dataset, PerceptronModel], ids=lambda c: c.__name__)
def test_record_lines_are_neither_stored_nor_compared(cls):
    fields = FIELDS[cls]
    with_lines = cls(**fields, lines=[3, 4])
    assert with_lines == cls(**fields) == cls(*fields.values(), None)
    assert "lines" not in vars(with_lines)
    assert list(vars(with_lines)) == list(fields)
