"""Oracles for the fixed-point count.

``count_fixed_by_scan`` scans every matrix of size 2n+1 over F_q and keeps
those with g^T J g = J and det g = 1.  ``count_fixed`` instead chooses
columns one at a time from per-depth candidate lists, so this is an
independent cross-check; at q^((2n+1)^2) matrices it is only feasible for
n = 1, q <= 3.  ``classical_fixed_order`` is the closed-form order of the
fixed group: SO_{2n+1} in odd characteristic, Sp_{2n} in characteristic 2.

``u_fixed_point_count`` counts the fixed points of the unipotent radical
U^A over F_q as a product over the root classes: a plain affine line for a
one-orbit class, and for a two-orbit class the plane curve of
``u3_fixed_presentation``, whose points ``u3_point_count`` scans.  It is
the check for a U^A derived from the equivariant Chevalley system.
"""

import itertools

from foldlab.folding import equivalence_classes
from foldlab.matrixlab import u3_fixed_presentation
from foldlab.record import FrozenRecord
from sl_oracle import GF, is_theta_fixed


def count_fixed_by_scan(n, q):
    """Number of theta-fixed matrices in SL_{2n+1}(F_q), by full scan."""
    F = GF(q)
    m = 2 * n + 1
    return sum(
        1
        for flat in itertools.product(range(q), repeat=m * m)
        if is_theta_fixed(F, n, tuple(flat[r * m : (r + 1) * m] for r in range(m)))
    )


def classical_fixed_order(n, q):
    """|SO_{2n+1}(F_q)| = |Sp_{2n}(F_q)| = q^(n^2) * prod_{i=1..n} (q^(2i) - 1)."""
    order = q ** (n * n)
    for i in range(1, n + 1):
        order *= q ** (2 * i) - 1
    return order


# -- fixed points on the unipotent part -----------------------------------


def u3_point_count(pres, q: int) -> int:
    """Points over F_q of the plane relation of a unipotent presentation."""
    F = GF(q)
    rel = pres.relation
    count = 0
    for xv in range(F.q):
        for yv in range(F.q):
            acc = 0
            for (ex, ey), c in rel.terms.items():
                term = F.from_int(c)
                for _ in range(ex):
                    term = F.mul(term, xv)
                for _ in range(ey):
                    term = F.mul(term, yv)
                acc = F.add(acc, term)
            if acc == 0:
                count += 1
    return count


class UnipotentFactor(FrozenRecord):
    """One coordinate factor of the fixed unipotent group: a plain affine
    line for a one-orbit class, the thickened line for a two-orbit class."""

    kind: str  # "line" or "twisted"
    members: tuple[int, ...]

    def point_count(self, q: int) -> int:
        if self.kind == "line":
            return q
        return u3_point_count(u3_fixed_presentation(), q)


def u_fixed_factors(datum, act) -> tuple[UnipotentFactor, ...]:
    classes = equivalence_classes(datum, act)
    return tuple(
        UnipotentFactor(
            kind="twisted" if cls.special else "line",
            members=cls.members,
        )
        for cls in classes
    )


def u_fixed_point_count(datum, act, q: int) -> int:
    total = 1
    for factor in u_fixed_factors(datum, act):
        total *= factor.point_count(q)
    return total
