"""Constructor contract and equality of the records."""

import pytest

from foldlab.chevalley import EquivarianceReport, OrbitReport, StructureConstants
from foldlab.criteria import BaseSpec, CriteriaReport, FiberReport
from foldlab.folding import FixedWeyl, FoldClass, FoldedDatum
from foldlab.intlat import FinAbGroup
from foldlab.matrixlab import CountReport, UnipotentFixedPresentation
from foldlab.poly import Poly
from foldlab.presets import Preset
from foldlab.record import FrozenRecord, Record, ValueRecord
from foldlab.rootdata import CartanType
from count_oracle import UnipotentFactor

# (record class, its fields in order, a change of one field)
FROZEN = [
    (CartanType, {"components": (("A", 2), ("B", 3))}, {"components": (("A", 2),)}),
    (FinAbGroup, {"free_rank": 1, "invariant_factors": (2, 6)}, {"invariant_factors": (2, 4)}),
    (
        FoldClass,
        {
            "members": (0, 1, 2),
            "orbits": ((0, 1), (2,)),
            "kind": "II",
            "special": (2,),
            "representative": 0,
            "orbit_sum": (2, 2),
        },
        {"orbit_sum": (1, 1)},
    ),
    (BaseSpec, {"kind": "explicit", "primes": (3, 5)}, {"primes": (3,)}),
    (
        UnipotentFixedPresentation,
        {
            "fixed_equations": (Poly.var(3, 0), Poly.var(3, 1)),
            "relation": Poly(2, {(2, 0): 1, (0, 1): -2}),
        },
        {"relation": Poly(2, {(2, 0): 1, (0, 1): -3})},
    ),
    (UnipotentFactor, {"kind": "line", "members": (0,)}, {"kind": "twisted"}),
]

FIBER = {
    "characteristic": 2,
    "dimension": 8,
    "reduced": False,
    "variant": "R2",
    "component_group": FinAbGroup(0, (2,)),
}

# The mutable records hold whatever they are given; each field gets a
# distinct placeholder.
IDENTITY = [
    (cls, {name: f"<{name}>" for name in names})
    for cls, names in [
        (FoldedDatum, ("datum", "variant", "classes", "lattice", "doubled")),
        (FixedWeyl, ("order", "coxeter_generators", "variants")),
        (
            CriteriaReport,
            (
                "flat",
                "flat_reason",
                "geometrically_connected",
                "connected_reason",
                "smooth",
                "smooth_reason",
                "torsion",
                "has_active_even_a",
                "residual_primes",
                "dimension",
            ),
        ),
        (StructureConstants, ("datum", "table", "eps", "xs_pair", "order_key", "special")),
        (OrbitReport, ("members", "special", "satisfied", "discrepancies")),
        (EquivarianceReport, ("orbits",)),
        (CountReport, ("n", "q", "brute", "predicted")),
        (Preset, ("name", "note", "datum", "action")),
    ]
]

ALL = [(cls, fields) for cls, fields, _ in FROZEN] + [(FiberReport, FIBER)] + IDENTITY
OWN_INIT = {CartanType, FinAbGroup, BaseSpec, FoldedDatum}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_records_declare_only_their_fields():
    # the table holds every record of the package, and the oracle's UnipotentFactor
    package = {
        cls
        for cls in _subclasses(Record)
        if cls.__module__.startswith("foldlab.") and cls.__module__ != "foldlab.record"
    }
    assert {cls for cls, _ in ALL} == package | {UnipotentFactor}
    for cls, fields in ALL:
        assert issubclass(cls, Record)
        assert cls._fields == tuple(fields), cls.__name__
        own = set(vars(cls)) & {"__init__", "__eq__", "__hash__", "__setattr__"}
        assert own == ({"__init__"} if cls in OWN_INIT else set()), cls.__name__


@pytest.mark.parametrize("cls,fields", ALL, ids=[row[0].__name__ for row in ALL])
def test_record_constructor_contract(cls, fields):
    values = list(fields.values())
    by_position, by_keyword = cls(*values), cls(**fields)
    assert vars(by_position) == vars(by_keyword) == fields
    first, *_ = fields
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in fields.items() if k != first})  # missing
    with pytest.raises(TypeError):
        cls(**fields, extra=0)  # unknown
    with pytest.raises(TypeError):
        cls(values[0], **fields)  # the first field twice
    with pytest.raises(TypeError):
        cls(*values, 0)  # one positional too many


def test_record_defaults():
    assert BaseSpec("explicit").primes == ()
    assert BaseSpec(kind="all").primes == ()
    a, b = (FoldedDatum("datum", "R1", (), "lattice") for _ in range(2))
    assert a.doubled == b.doubled == {}
    a.doubled[0] = True
    assert b.doubled == {}
    assert FoldedDatum("datum", "R1", (), "lattice", doubled=None).doubled == {}


@pytest.mark.parametrize("cls,fields,change", FROZEN, ids=[row[0].__name__ for row in FROZEN])
def test_frozen_record_is_a_value(cls, fields, change):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and hash(a) == hash(b)
    other = cls(**{**fields, **change})
    assert a != other and other != a
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name, None))
    assert a == b


def test_fiber_report_is_a_mutable_value():
    a, b = FiberReport(**FIBER), FiberReport(*FIBER.values())
    assert a == b and a is not b
    assert isinstance(a, ValueRecord) and not isinstance(a, FrozenRecord)
    with pytest.raises(TypeError):
        hash(a)
    b.reduced = True
    assert a != b and b != a
    assert a != FIBER


@pytest.mark.parametrize("cls,fields", IDENTITY, ids=[row[0].__name__ for row in IDENTITY])
def test_mutable_record_compares_by_identity(cls, fields):
    assert not issubclass(cls, ValueRecord)
    a, b = cls(**fields), cls(**fields)
    assert a == a and a != b
    assert len({a, b}) == 2
    first, *_ = fields
    setattr(a, first, "changed")
    assert getattr(a, first) == "changed"
