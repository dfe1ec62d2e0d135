"""Flatness, connectedness and smoothness criteria for fixed-point schemes.

All decisions reduce to two invariants of the pair (datum, action): the
torsion of the character-lattice coinvariants, and whether some even-rank
type A component is moved by its stabilizer.  Each boolean in a report
carries the textual reason that produced it.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError
from .intlat import FinAbGroup, coinvariants, is_prime
from .rootdata import RootDatum, cartan_type_of, _component_type
from .action import PinnedAction
from .folding import equivalence_classes


class BaseSpec:
    """Residual characteristics of the intended base scheme."""

    def __init__(self, kind: str, primes: tuple[int, ...] = ()):  # kind "all" or "explicit"
        if kind not in ("all", "explicit"):
            raise DomainError(f"unknown base kind {kind!r}")
        if kind == "all" and primes:
            raise DomainError("all-primes base does not list primes")
        for p in primes:
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "primes", primes)

    def __setattr__(self, name, value):
        raise AttributeError("BaseSpec is immutable")

    def __eq__(self, other):
        return isinstance(other, BaseSpec) and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    @classmethod
    def all_primes(cls) -> "BaseSpec":
        return cls("all")

    @classmethod
    def of_primes(cls, primes) -> "BaseSpec":
        return cls("explicit", tuple(sorted(set(int(p) for p in primes))))

    def has_residual(self, p: int) -> bool:
        return self.kind == "all" or p in self.primes

    def describe(self) -> str:
        if self.kind == "all":
            return "all primes"
        if not self.primes:
            return "no positive residual characteristics"
        return "residual primes {" + ", ".join(map(str, self.primes)) + "}"


def active_even_a_components(datum: RootDatum, act: PinnedAction) -> tuple[int, ...]:
    """Indices of even-rank type A components moved by their stabilizer."""
    out = []
    for ci, comp in enumerate(datum.components()):
        fam, rank = _component_type(datum, comp)
        if fam == "A" and rank % 2 == 0 and act.stabilizer_moves_component(ci):
            out.append(ci)
    return tuple(out)


class CriteriaReport:
    def __init__(
        self,
        flat: bool,
        flat_reason: str,
        geometrically_connected: bool,
        connected_reason: str,
        smooth: bool,
        smooth_reason: str,
        torsion: FinAbGroup,
        has_active_even_a: bool,
        quasi_reductive_over_mixed_char_dvr: dict[int, bool],
        torsion_free: bool,
    ):
        self.flat = flat
        self.flat_reason = flat_reason
        self.geometrically_connected = geometrically_connected
        self.connected_reason = connected_reason
        self.smooth = smooth
        self.smooth_reason = smooth_reason
        self.torsion = torsion
        self.has_active_even_a = has_active_even_a
        self.quasi_reductive_over_mixed_char_dvr = quasi_reductive_over_mixed_char_dvr
        self.torsion_free = torsion_free

    def as_dict(self) -> dict:
        return {
            "flat": self.flat,
            "flat_reason": self.flat_reason,
            "geometrically_connected": self.geometrically_connected,
            "connected_reason": self.connected_reason,
            "smooth": self.smooth,
            "smooth_reason": self.smooth_reason,
            "coinvariant_torsion": list(self.torsion.invariant_factors),
            "coinvariant_free_rank": self.torsion.free_rank,
            "has_active_even_a": self.has_active_even_a,
            "quasi_reductive_over_mixed_char_dvr": {
                str(p): v for p, v in sorted(self.quasi_reductive_over_mixed_char_dvr.items())
            },
            "torsion_free": self.torsion_free,
        }


def decide(datum: RootDatum, act: PinnedAction, base: BaseSpec) -> CriteriaReport:
    group = coinvariants(datum.rank, act.generators)
    tf = group.is_torsion_free
    order = group.torsion_order()
    active = bool(active_even_a_components(datum, act))

    if tf:
        connected = True
        connected_reason = "character coinvariants are torsion-free"
    elif base.kind == "explicit" and len(base.primes) == 1 and group.is_p_group(base.primes[0]):
        connected = True
        connected_reason = (
            f"coinvariant torsion is a {base.primes[0]}-group and "
            f"{base.primes[0]} is the only residual characteristic"
        )
    elif base.kind == "explicit" and not base.primes:
        connected = False
        connected_reason = (
            "no residual primes given: connectedness requires torsion-free coinvariants"
        )
    else:
        connected = False
        connected_reason = (
            "coinvariant torsion survives at more than one (or the wrong) residual characteristic"
        )

    if base.kind == "all":
        coprime = order == 1
        coprime_text = (
            "torsion is trivial" if coprime else "torsion order shares a factor with some prime"
        )
    else:
        bad = [p for p in base.primes if gcd(order, p) != 1]
        coprime = not bad
        coprime_text = (
            "torsion order is coprime to every residual characteristic"
            if coprime
            else f"torsion order {order} is divisible by residual prime(s) {bad}"
        )
    two_residual = base.has_residual(2)
    if active and two_residual:
        smooth = False
        smooth_reason = (
            "an even-rank type A component is folded and 2 is a residual characteristic"
        )
    elif not coprime:
        smooth = False
        smooth_reason = coprime_text
    else:
        smooth = True
        smooth_reason = coprime_text + (
            "; no folded even-rank type A component meets characteristic 2"
            if active
            else ""
        )

    qr = {p: tf for p in base.primes} if base.kind == "explicit" else {}
    return CriteriaReport(
        flat=True,
        flat_reason="fixed points of a pinned action on a reductive group scheme are always flat",
        geometrically_connected=connected,
        connected_reason=connected_reason,
        smooth=smooth,
        smooth_reason=smooth_reason,
        torsion=group,
        has_active_even_a=active,
        quasi_reductive_over_mixed_char_dvr=qr,
        torsion_free=tf,
    )


class FiberReport:
    def __init__(
        self,
        characteristic: int,
        dimension: int,
        reduced: bool,
        variant: str,
        component_group: FinAbGroup,
    ):
        self.characteristic = characteristic
        self.dimension = dimension
        self.reduced = reduced
        self.variant = variant
        self.component_group = component_group

    def __eq__(self, other):
        return isinstance(other, FiberReport) and vars(self) == vars(other)

    def as_dict(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "dimension": self.dimension,
            "reduced": self.reduced,
            "variant": self.variant,
            "component_group": list(self.component_group.invariant_factors),
        }


def fiber_reports(datum: RootDatum, act: PinnedAction, chars) -> dict[int, FiberReport]:
    """Geometry of the fixed-point fiber in each characteristic of
    ``chars`` (0 allowed), keyed by characteristic."""
    for p in chars:
        if p != 0 and not is_prime(p):
            raise DomainError(f"characteristic must be 0 or prime, got {p}")
    group = coinvariants(datum.rank, act.generators)
    dimension = group.free_rank + 2 * len(equivalence_classes(datum, act))
    active = bool(active_even_a_components(datum, act))
    reports = {}
    for p in chars:
        reduced = p == 0 or (gcd(group.torsion_order(), p) == 1 and not (active and p == 2))
        kept = group if p == 0 else group.without_prime_part(p)
        reports[p] = FiberReport(
            characteristic=p,
            dimension=dimension,
            reduced=reduced,
            variant="R2" if p == 2 else "R1",
            component_group=FinAbGroup(0, kept.invariant_factors),
        )
    return reports


def fiber_report(datum: RootDatum, act: PinnedAction, p: int) -> FiberReport:
    """Geometry of the fixed-point fiber in characteristic p (0 allowed)."""
    return fiber_reports(datum, act, (p,))[p]
