"""Value semantics of the frozen records."""

import pytest

from foldlab.criteria import BaseSpec
from foldlab.folding import FoldClass
from foldlab.intlat import FinAbGroup
from foldlab.matrixlab import UnipotentFactor, UnipotentFixedPresentation
from foldlab.poly import Poly
from foldlab.rootdata import CartanType

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
