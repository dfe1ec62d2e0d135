"""Folding a root datum along a pinned automorphism group.

Positive roots are grouped into equivalence classes (two roots are
equivalent when their orbit sums are rationally proportional); each class
is a single orbit with no internal sums ("type I") or an orbit pair whose
special members are sums of two others ("type II").  Class images in the
coinvariant lattice, together with summed coroots in the invariant
cocharacter lattice, assemble into three folded data: the nondivisible
variant R1, the nonmultipliable variant R2, and their nonreduced union.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .intlat import CoinvariantLattice, FinAbGroup, IntMatrix, _relation_matrix, cokernel
from .rootdata import RootDatum, WEYL_LIMIT_DEFAULT, cartan_type_of
from .action import PinnedAction, check_action_of
from .record import FrozenRecord, Record

VARIANTS = ("R1", "R2", "nonreduced")


class FoldClass(FrozenRecord):
    """One equivalence class of positive roots."""

    members: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]
    kind: str  # "I" or "II"
    special: tuple[int, ...]
    representative: int  # least nonspecial member
    orbit_sum: tuple[int, ...]

    @property
    def nonspecial(self) -> tuple[int, ...]:
        sp = set(self.special)
        return tuple(i for i in self.members if i not in sp)


def _direction(v) -> tuple[int, ...] | None:
    """Primitive direction of an integer vector: v over the gcd of its
    entries, signed so the first nonzero entry is positive.  Two nonzero
    vectors are rationally proportional exactly when their directions are
    equal; the zero vector, proportional to nothing, has None."""
    g = gcd(*v)
    if not g:
        return None
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def _vector_sum(vectors):
    out = [0] * len(vectors[0])
    for v in vectors:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)


def equivalence_classes(datum: RootDatum, act: PinnedAction) -> tuple[FoldClass, ...]:
    """Partition the positive roots and type each class in one pass.

    A type II class restricts to a triple x, y, x + y on each component it
    meets, and type II classes occur exactly on the even-rank A components
    moved by their stabilizer.  Raises InternalInconsistencyError when a
    class fits neither the single-orbit sum-free pattern nor that two-orbit
    pattern, or when such a component carries no type II class; the
    classification is re-verified on every input rather than assumed.
    """
    check_action_of(datum, act)
    orbits = act.orbits("positive")
    if not orbits:
        return ()
    active = set(active_even_a_components(datum, act))
    comp_of = {i: ci for ci, comp in enumerate(datum.components()) for i in comp}
    sums = {orbit: _vector_sum([datum.roots[i] for i in orbit]) for orbit in orbits}
    buckets: dict[object, list[tuple[int, ...]]] = {}
    for orbit in orbits:
        buckets.setdefault(_direction(sums[orbit]), []).append(orbit)

    classes = []
    carried = set()  # the components that carry a type II class
    for bucket in buckets.values():
        members = tuple(sorted(i for orbit in bucket for i in orbit))
        member_set = set(members)
        sums_inside = set()
        for a in members:
            for b in members:
                if a < b:
                    total = _vector_sum((datum.roots[a], datum.roots[b]))
                    if datum.is_root(total):
                        idx = datum.root_index(total)
                        if idx not in member_set:
                            raise InternalInconsistencyError(
                                "sum of two class members is a root outside the class"
                            )
                        sums_inside.add(idx)
        if len(bucket) == 1:
            if sums_inside:
                raise InternalInconsistencyError(
                    "single-orbit class has members summing to a root"
                )
            kind, special = "I", ()
        elif len(bucket) == 2:
            special = tuple(sorted(sums_inside))
            orbit_sets = [set(o) for o in bucket]
            if set(special) not in orbit_sets:
                raise InternalInconsistencyError(
                    "special members of a two-orbit class do not form one orbit"
                )
            on_component: dict[int, list[int]] = {}
            for i in members:
                on_component.setdefault(comp_of[i], []).append(i)
            for ci, inside in on_component.items():
                spec = [i for i in inside if i in sums_inside]
                nonspec = [i for i in inside if i not in sums_inside]
                if len(spec) != 1 or len(nonspec) != 2:
                    raise InternalInconsistencyError(
                        "type II class does not restrict to a triple on a component"
                    )
                if _vector_sum([datum.roots[i] for i in nonspec]) != datum.roots[spec[0]]:
                    raise InternalInconsistencyError(
                        "component triple of a type II class is not x, y, x+y"
                    )
                if ci not in active:
                    raise InternalInconsistencyError(
                        "type II class on a component that is not an even-rank A"
                        " moved by its stabilizer"
                    )
            carried.update(on_component)
            kind = "II"
        else:
            raise InternalInconsistencyError(
                f"class splits into {len(bucket)} orbits; expected 1 or 2"
            )
        rep = min(member_set - sums_inside)
        classes.append(
            FoldClass(
                members=members,
                orbits=tuple(tuple(sorted(o)) for o in bucket),
                kind=kind,
                special=special,
                representative=rep,
                orbit_sum=_vector_sum([datum.roots[i] for i in members]),
            )
        )
    if not active <= carried:
        raise InternalInconsistencyError(
            "an even-rank A component moved by its stabilizer carries no type II class"
        )
    classes.sort(key=lambda c: c.representative)
    return tuple(classes)


def active_even_a_components(datum: RootDatum, act: PinnedAction) -> tuple[int, ...]:
    """Indices of even-rank type A components moved by their stabilizer."""
    check_action_of(datum, act)
    return tuple(
        ci
        for ci, (fam, rank) in enumerate(datum.component_types())
        if fam == "A" and rank % 2 == 0 and act.stabilizer_moves_component(ci)
    )


class FoldedDatum(Record):
    """A folded root datum plus the bookkeeping used to build it."""

    datum: RootDatum
    variant: str
    classes: tuple[FoldClass, ...]
    lattice: CoinvariantLattice
    doubled: dict[int, bool]  # folded index -> is 2*image

    def __init__(self, datum, variant, classes, lattice, doubled=None):
        super().__init__(datum, variant, classes, lattice, {} if doubled is None else doubled)


def folded_root_data(datum: RootDatum, act: PinnedAction) -> dict[str, FoldedDatum]:
    """The folded data R1, R2 and nonreduced, all assembled in one pass over
    the classes.  The pass checks that each class's image in the free part
    of the coinvariant lattice is well defined and proportional to no other
    class's, and that its summed coroots are invariant and pair to 2 with
    its roots.  The free coordinates send the sum of the positive roots to a
    nonnegative vector."""
    classes = equivalence_classes(datum, act)
    positive = datum.positive_root_indices()
    orient = _vector_sum([datum.roots[i] for i in positive]) if positive else None
    lattice = CoinvariantLattice(datum.rank, act.generators, orient=orient)

    def folded_root(pos, img, members, divisible):
        """(root, coroot, is doubled) of class pos; a divisible one sums only
        the special members' coroots."""
        ambient = _vector_sum([datum.coroots[i] for i in members])
        if any(dm.apply(ambient) != ambient for dm in act.generator_duals):
            raise InternalInconsistencyError("summed coroot is not invariant under the dual action")
        root = tuple(2 * x for x in img) if divisible else img
        coroot = lattice.dual_coords(ambient)
        if sum(a * b for a, b in zip(root, coroot)) != 2:
            raise InternalInconsistencyError(f"folded pairing <root, coroot> != 2 at class {pos}")
        return root, coroot, divisible

    # per variant: its positive (root, coroot, is doubled) slots and the
    # slots of its base
    slots: dict[str, list] = {v: [] for v in VARIANTS}
    bases: dict[str, list[int]] = {v: [] for v in VARIANTS}
    base_set = set(datum.basis_indices)
    seen = set()  # the directions of the class images so far
    for pos, cls in enumerate(classes):
        img = lattice.free_image(datum.roots[cls.representative])
        if not any(img):
            raise InternalInconsistencyError("class image vanishes in the coinvariant lattice")
        for i in cls.nonspecial:
            if lattice.free_image(datum.roots[i]) != img:
                raise InternalInconsistencyError(
                    "nonspecial members of a class have unequal images"
                )
        for i in cls.special:
            if not lattice.same_image(
                datum.roots[i], tuple(2 * x for x in datum.roots[cls.representative])
            ):
                raise InternalInconsistencyError(
                    "special member differs from twice a nonspecial member in M_A"
                )
        if (direction := _direction(img)) in seen:
            raise InternalInconsistencyError("images of distinct classes are proportional")
        seen.add(direction)
        single = folded_root(pos, img, cls.members, divisible=False)
        double = folded_root(pos, img, cls.special, divisible=True) if cls.kind == "II" else None
        meets_base = not base_set.isdisjoint(cls.members)
        for variant, slot in (("R1", single), ("R2", double or single), ("nonreduced", single)):
            if meets_base:
                bases[variant].append(len(slots[variant]))
            slots[variant].append(slot)
        if double:
            slots["nonreduced"].append(double)

    out = {}
    for variant in VARIANTS:
        if variant == "R2" and all(cls.kind == "I" for cls in classes):
            folded = out["R1"].datum  # no divisible class: R2 has R1's slots and base
        else:
            roots = [s[0] for s in slots[variant]]
            coroots = [s[1] for s in slots[variant]]
            folded = RootDatum(
                lattice.free_rank,
                roots + [tuple(-x for x in v) for v in roots],
                coroots + [tuple(-x for x in v) for v in coroots],
                basis_indices=bases[variant],
                reduced=(variant != "nonreduced"),
            )
        out[variant] = FoldedDatum(
            datum=folded,
            variant=variant,
            classes=classes,
            lattice=lattice,
            doubled=dict(enumerate([s[2] for s in slots[variant]] * 2)),
        )
    return out


def folded_root_datum(datum: RootDatum, act: PinnedAction, variant: str) -> FoldedDatum:
    """Build the folded datum for one of the variants R1, R2, nonreduced."""
    if variant not in VARIANTS:
        raise DomainError(f"unknown folded variant {variant!r}; expected {VARIANTS}")
    return folded_root_data(datum, act)[variant]


class FixedWeyl(Record):
    """Centralizer of the action inside the Weyl group: its order, its
    Coxeter generators as root permutations, and the folded variants whose
    R1 type gives that order."""

    order: int
    coxeter_generators: tuple[tuple[int, ...], ...]
    variants: dict[str, FoldedDatum]


def _orbit_longest_element(datum: RootDatum, orbit) -> tuple[int, ...]:
    """Longest element of the parabolic subgroup spanned by an orbit of
    simple roots, by descent: right-multiply by a simple reflection of the
    orbit while it still sends that simple root to a positive root."""
    gens = {p: datum.simple_reflection_permutation(p) for p in orbit}
    w = tuple(range(datum.nroots))
    while True:
        p = next(
            (p for p in orbit if datum.is_positive(w[datum.basis_indices[p]])), None
        )
        if p is None:
            return w
        w = tuple(w[i] for i in gens[p])


def fixed_weyl(datum: RootDatum, act: PinnedAction, limit: int = WEYL_LIMIT_DEFAULT) -> FixedWeyl:
    """The fixed group W^A of Weyl group elements commuting with every
    action generator, given by its order and Coxeter generators.

    W^A is the Weyl group of the folded R1 datum, generated by the longest
    elements of the parabolic subgroups spanned by the orbits of the action
    on the base (Steinberg, Endomorphisms of linear algebraic groups, Mem.
    AMS 80, 1968).  Its order is the product of the degrees of the folded
    R1 type, and neither W nor W^A is enumerated.  ``limit`` bounds |W^A|:
    a larger group is refused.  Each generator is found by descent and
    checked to be action-fixed.
    """
    variants = folded_root_data(datum, act)
    folded_type = cartan_type_of(variants["R1"].datum)
    if folded_type.weyl_order > limit:
        raise ResourceLimitError(
            f"the fixed Weyl group W^A exceeded {limit} elements: its folded type"
            f" {folded_type} has {folded_type.weyl_order} (raise --limit-weyl)"
        )
    gen_perms = act.generator_perms
    coxeter = []
    for orbit in act.orbits("simple"):
        w0 = _orbit_longest_element(datum, orbit)
        if any(w0[g[i]] != g[w0[i]] for g in gen_perms for i in range(datum.nroots)):
            raise InternalInconsistencyError(
                "longest element of an orbit subsystem is not action-fixed"
            )
        coxeter.append(w0)
    return FixedWeyl(
        order=folded_type.weyl_order,
        coxeter_generators=tuple(coxeter),
        variants=variants,
    )


def center_structure(datum: RootDatum, act: PinnedAction) -> FinAbGroup:
    """Coinvariants of (character lattice)/(root lattice): the component
    structure of the fixed points of the center."""
    check_action_of(datum, act)
    rel = _relation_matrix(datum.rank, act.generators)
    return cokernel(IntMatrix.from_columns(datum.basis + rel.transpose().entries, datum.rank))


def isogeny_injectivity_check(datum: RootDatum, act: PinnedAction) -> bool:
    """Whether root-lattice coinvariants inject into weight-lattice
    coinvariants under the map induced by inclusion.

    The action permutes the base, so both coinvariant groups are free on
    the orbits of the base.  The inclusion sends alpha_j to sum_i C[i][j]
    omega_i, C the Cartan matrix, so the induced map has entry
    sum_{i in O'} C[i][j] at (O', O) for any j in O, and it is injective
    exactly when its rank is the number of orbits.
    """
    check_action_of(datum, act)
    base = datum.basis_indices
    pos_of = {r: p for p, r in enumerate(base)}
    cartan = datum.base_cartan()
    for perm in act.generator_perms:
        s = [pos_of[perm[r]] for r in base]
        if tuple(tuple(cartan[a][b] for b in s) for a in s) != cartan:
            raise InternalInconsistencyError(
                "Cartan matrix does not commute with the base permutation"
            )
    orbits = act.orbits("simple")
    phi = IntMatrix([[sum(cartan[i][o[0]] for i in target) for o in orbits] for target in orbits])
    return phi.rank() == len(orbits)
