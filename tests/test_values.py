"""The immutable records built on `igq.Value`: equality, hashing,
immutability, repr and validation, held to the behaviour of a frozen
dataclass with the same fields."""

import copy
import pickle
import re
from dataclasses import make_dataclass

import pytest

from igq import Value
from igq.bbw import CohomologyResult, ExtProfile, Space, _residual_terms, _ResidualTerms
from igq.presentations import QUANTUM_I, SYMBOLIC, PresentationSpec, SpectrumReport
from igq.report import PASS, CheckResult

# Two makers per class, of different records; each call builds a new object.
# The residual terms of a real space hold a list and dicts, which cannot be
# hashed, so the hashed ones are built from tuples.
RECORDS = {
    "Space": (lambda: Space.gr(4), lambda: Space.igr(4)),
    "CohomologyResult": (lambda: CohomologyResult(False, 2, 3), lambda: CohomologyResult(True)),
    "ExtProfile": (lambda: ExtProfile(((0, 1),), True), lambda: ExtProfile((), False)),
    "_ResidualTerms": (
        lambda: _ResidualTerms(((0, -1, 1),), ((1, ()),), ()),
        lambda: _ResidualTerms((), (), ()),
    ),
    "PresentationSpec": (lambda: PresentationSpec(3, QUANTUM_I, SYMBOLIC), lambda: PresentationSpec(2, QUANTUM_I)),
    "SpectrumReport": (lambda: SpectrumReport(12, 1, 2, 10, 10, "s1"), lambda: SpectrumReport(4, 0, 1, 3, 3)),
    "CheckResult": (lambda: CheckResult("x", "1", "1", PASS, 3, "n"), lambda: CheckResult("y", "1", "1", PASS)),
}
names = pytest.mark.parametrize("name", sorted(RECORDS))


def frozen_twin(record):
    """The same fields in a frozen dataclass of the same name."""
    cls = make_dataclass(type(record).__name__, type(record).__slots__, frozen=True)
    return cls(*record._values())


@names
def test_equal_records_have_equal_hashes(name):
    make, make_other = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(frozen_twin(a))
    assert a != make_other() and hash(make_other()) == hash(frozen_twin(make_other()))


@names
def test_a_record_equals_no_other_class(name):
    record = RECORDS[name][0]()
    twin_cls = type("Twin", (Value,), {"__slots__": type(record).__slots__})
    twin = twin_cls.__new__(twin_cls)
    for field, value in zip(twin_cls.__slots__, record._values()):
        object.__setattr__(twin, field, value)
    assert twin._values() == record._values()
    for other in (twin, record._values(), frozen_twin(record)):
        assert record != other and other != record
    for other_name, (make, _) in RECORDS.items():
        if other_name != name:
            assert record != make()


@names
def test_fields_cannot_be_set_or_deleted(name):
    record = RECORDS[name][0]()
    before = record._values()
    for field in type(record).__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record._values() == before
    assert not hasattr(record, "__dict__")


@names
def test_repr_reads_like_a_dataclass(name):
    for make in RECORDS[name]:
        record = make()
        assert repr(record) == repr(frozen_twin(record))


@names
def test_a_record_is_one_argument_to_percent(name):
    # a tuple subclass would spread its fields over the format's slots
    record = RECORDS[name][0]()
    assert "%s" % record == str(record)


def test_a_space_formats_as_its_name():
    assert repr(Space.gr(4)) == "Space(kind='gr', param=4)"
    assert "%s" % Space.gr(4) == "G(2,4)"
    assert "keyext.%s" % Space.igr(3) == "keyext.IG(2,6)"


@names
def test_copy_and_pickle_rebuild_an_equal_record(name):
    record = RECORDS[name][0]()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_real_residual_terms_compare_by_fields():
    terms = _residual_terms(Space.igr(3))
    rebuilt = _ResidualTerms(list(terms.line), dict(terms.pairs), dict(terms.first_target))
    assert rebuilt == terms
    with pytest.raises(TypeError):
        hash(terms)  # a list and dicts, as in a frozen dataclass


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Space("gr", 3), "need m >= 4 for G(2,m)"),
        (lambda: Space.igr(1), "need k >= 2 for IG(2,2k)"),
        (lambda: Space("p", 4), "unknown space kind 'p'"),
        (lambda: PresentationSpec(1, QUANTUM_I), "need n >= 2"),
        (lambda: PresentationSpec(3, "QUANTUM_III"), "unknown variant 'QUANTUM_III'"),
        (lambda: PresentationSpec(3, QUANTUM_I, "q=2"), "unknown q mode 'q=2'"),
        (lambda: CheckResult("x", "1", "1", "MAYBE"), "bad status 'MAYBE'"),
        (lambda: CheckResult("x", "1", "2", PASS), "status must be PASS exactly when computed == expected"),
        (lambda: CheckResult("x", "1", "1", "FAIL"), "status must be PASS exactly when computed == expected"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        make()


def test_keyword_construction_and_defaults():
    assert CohomologyResult(vanishes=True) == CohomologyResult(True, None, None)
    assert PresentationSpec(n=3, variant=QUANTUM_I).q_mode == "SPECIALIZE_1"
    report = SpectrumReport(
        total_dim=4, tangent_dim_origin=0, local_length_origin=1, offorigin_dim=3, offorigin_distinct_points=3
    )
    assert report.separating_form == "" and report.as_tuple() == (4, 0, 1, 3, 3)
    row = CheckResult("x", "1", "1", PASS)
    assert (row.millis, row.note) == (0, "")
