"""The immutable values built on `igq.Value`: the records, held to the
behaviour of a frozen dataclass with the same fields (equality, hashing,
immutability, repr and validation), and the algebra types, held to the
same copy, pickle and immutability contracts with their own reprs.  A
guard keeps `igq.Value` the one place that refuses assignment, and another
keeps `igq.memo()` the one maker of memo tables."""

import copy
import importlib
import inspect
import pickle
import pkgutil
import re
from dataclasses import make_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import igq
from igq import Value
from igq.bbw import CohomologyResult, ExtProfile, Space
from igq.groebner import GroebnerBasis, Ideal, buchberger, normal_form
from igq.poly import GREVLEX, Ring, TermOrder, WeightedOrder
from igq.presentations import (
    CorePresentation,
    QUANTUM_I,
    SYMBOLIC,
    PresentationSpec,
    SpectrumReport,
    presentation_generators,
)
from igq.report import PASS, CheckResult

def _core(image):
    """A core presentation of Q[x, y, z] in Q[x, y], z sent to image(x, y)."""
    ring, core = Ring(("x", "y", "z")), Ring(("x", "y"))
    x, y = core.gens
    return CorePresentation(ring, Ideal(core, [x**2 - y]), (x, y, image(x, y)))


# Two makers per class, of different records; each call builds a new object.
RECORDS = {
    "Space": (lambda: Space.gr(4), lambda: Space.igr(4)),
    "CohomologyResult": (lambda: CohomologyResult(False, 2, 3), lambda: CohomologyResult(True)),
    "ExtProfile": (lambda: ExtProfile(((0, 1),), True), lambda: ExtProfile((), False)),
    "PresentationSpec": (lambda: PresentationSpec(3, QUANTUM_I, SYMBOLIC), lambda: PresentationSpec(2, QUANTUM_I)),
    "SpectrumReport": (lambda: SpectrumReport(12, 1, 2, 10, 10, "s1"), lambda: SpectrumReport(4, 0, 1, 3, 3)),
    "CorePresentation": (lambda: _core(lambda x, y: x * y), lambda: _core(lambda x, y: y**2)),
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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Space("gr", 3), "need m >= 4 for G(2,m)"),
        (lambda: Space.igr(1), "need k >= 2 for IG(2,2k)"),
        (lambda: Space("p", 4), "unknown space kind 'p'"),
        (lambda: PresentationSpec(1, QUANTUM_I), "need n >= 2"),
        (lambda: PresentationSpec(3, "QUANTUM_III"), "unknown variant 'QUANTUM_III'"),
        (lambda: PresentationSpec(3, QUANTUM_I, "q=2"), "unknown q mode 'q=2'"),
        (
            lambda: CorePresentation(Ring(("x",)), Ideal(Ring(("y",)), ()), ()),
            "need one image in the core ring per variable of Ring(x; grevlex)",
        ),
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


# ---------------------------------------------------------------------------
# the algebra types


def _weighted_ring():
    return Ring(("x", "y", "z"), WeightedOrder((1, 2, 3)))


def _ideal():
    x, y, z = _weighted_ring().gens
    return Ideal(x.ring, [x**2 - y, y**2 - Fraction(1, 3) * x * z, z**2 - x])


# One maker per value; each call builds a new object, equal to the last.
ALGEBRA = {
    "GREVLEX": lambda: copy.copy(GREVLEX),
    "WeightedOrder": lambda: WeightedOrder((1, 2, 3)),
    "Ring": _weighted_ring,
    "Polynomial": lambda: _ideal().generators[1],
    "Ideal": _ideal,
    "GroebnerBasis": lambda: buchberger(_ideal()),
}
algebra = pytest.mark.parametrize("name", sorted(ALGEBRA))


@algebra
def test_algebra_copy_and_pickle_give_an_equal_value(name):
    value = ALGEBRA[name]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)


@algebra
def test_algebra_values_built_apart_are_equal(name):
    a, b = ALGEBRA[name](), ALGEBRA[name]()
    assert a is not b and a == b and hash(a) == hash(b)


@algebra
def test_algebra_fields_cannot_be_set_or_deleted(name):
    value = ALGEBRA[name]()
    for field in type(value).__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == ALGEBRA[name]()
    assert not hasattr(value, "__dict__")


def test_algebra_reprs_stay_short():
    ideal = _ideal()
    ring = ideal.ring
    assert repr(ring) == "Ring(x,y,z; weighted(1,2,3))"
    assert repr(ideal.generators[0]) == "-y + x^2"  # y outweighs x^2 on the tie
    assert repr(ideal) == "Ideal(3 generators in Ring(x,y,z; weighted(1,2,3)))"
    assert repr(buchberger(ideal)).startswith("GroebnerBasis(")


def test_an_unpickled_basis_reduces_as_the_original():
    gb = buchberger(_ideal())
    twin = pickle.loads(pickle.dumps(gb))
    x, y, z = gb.ring.gens
    for f in (x**5 * y - z, Fraction(2, 7) * y**3 * z**2 + x, x * y * z):
        assert normal_form(f, twin) == normal_form(f, gb)
        assert normal_form(f, twin).terms == normal_form(f, gb).terms


def test_two_bases_of_one_ideal_built_apart_are_equal():
    ideal = presentation_generators(PresentationSpec(3, QUANTUM_I))
    a, b = buchberger(ideal), buchberger(ideal)
    rebuilt = GroebnerBasis(a.ring, list(a.elements))
    assert a is not b and a == b == rebuilt and hash(a) == hash(b) == hash(rebuilt)
    assert {a: 1}[b] == 1


# ---------------------------------------------------------------------------
# one implementation of immutability


def _igq_modules():
    for info in pkgutil.iter_modules(igq.__path__, "igq."):
        yield importlib.import_module(info.name)


def _igq_classes():
    for module in _igq_modules():
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_every_value_in_igq_is_covered_and_hashable():
    made = [make() for pair in RECORDS.values() for make in pair] + [make() for make in ALGEBRA.values()]
    for value in made:
        hash(value)
    covered = {type(value) for value in made}
    values = {cls for cls in _igq_classes() if issubclass(cls, Value)}
    assert values - covered == {TermOrder}  # the abstract order has no key


def test_only_value_refuses_assignment():
    assert [cls for cls in _igq_classes() if "__setattr__" in vars(cls)] == []
    for path in sorted(Path(igq.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            text = path.read_text()
            assert "object.__setattr__" not in text, path.name
            assert "def __setattr__" not in text, path.name


# ---------------------------------------------------------------------------
# one memo mechanism


def test_every_memo_is_made_by_igq_memo():
    # clear_caches empties only the tables igq.memo() registered, so a
    # hand-rolled dict memo would carry entries from one run into the next
    caches = {
        (module.__name__, name): table
        for module in _igq_modules()
        for name, table in vars(module).items()
        if name.endswith("_cache")
    }
    assert len(caches) == 6
    for where, table in caches.items():
        assert any(table is memo for memo in igq._memos), where
