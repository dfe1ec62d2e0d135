"""Finite groups of pinning-preserving automorphisms of a root datum.

An action is given by unimodular matrices on the character lattice that
permute the roots and fix the base setwise.  The dual action on the
cocharacter lattice is the inverse transpose; validation checks that it
permutes the coroots compatibly, which makes each generator an honest
automorphism of the datum rather than just of the root set.
"""

from __future__ import annotations

from .errors import DomainError, InvalidActionError, ResourceLimitError
from .intlat import IntMatrix
from .rootdata import RootDatum

CLOSURE_LIMIT_DEFAULT = 10**4


class PinnedAction:
    """Closed group of pinned automorphisms, with cached root permutations."""

    def __init__(self, datum: RootDatum, generators, limit: int = CLOSURE_LIMIT_DEFAULT):
        self.datum = datum
        gens = []
        for g in generators:
            m = g if isinstance(g, IntMatrix) else IntMatrix(g)
            gens.append(m)
        self.generators = tuple(gens)
        self.generator_duals, self.generator_perms = self._validate_generators()
        self.elements, self._perm_of = self._close(limit)
        self._component_perms = None

    # -- validation ------------------------------------------------------

    def _root_permutation(self, m: IntMatrix) -> tuple[int, ...]:
        d = self.datum
        images = []
        for r in d.roots:
            img = m.apply(r)
            if not d.is_root(img):
                raise InvalidActionError(
                    f"generator does not permute the roots: image {img} of {r} is not a root"
                )
            images.append(d.root_index(img))
        if len(set(images)) != d.nroots:
            raise InvalidActionError("generator is not injective on roots")
        return tuple(images)

    def _validate_generators(self):
        """Check each generator and return the duals, their inverse
        transposes, and the root permutations; the Smith form behind each
        inverse also decides unimodularity."""
        d = self.datum
        base_set = set(d.basis_indices)
        duals, perms = [], []
        for m in self.generators:
            if m.rows != d.rank or m.cols != d.rank:
                raise InvalidActionError(
                    f"generator is {m.rows}x{m.cols}, expected {d.rank}x{d.rank}"
                )
            try:
                dual = m.inverse_unimodular().transpose()
            except DomainError:
                raise InvalidActionError("generator is not unimodular") from None
            perm = self._root_permutation(m)
            if {perm[i] for i in base_set} != base_set:
                raise InvalidActionError("generator does not fix the base setwise")
            # dual compatibility: inverse transpose must send coroots to
            # the coroots of the permuted roots
            for i in range(d.nroots):
                if dual.apply(d.coroots[i]) != d.coroots[perm[i]]:
                    raise InvalidActionError(
                        "dual action does not permute coroots compatibly "
                        f"at root {d.roots[i]}"
                    )
            duals.append(dual)
            perms.append(perm)
        return tuple(duals), tuple(perms)

    def _close(self, limit: int):
        ident = IntMatrix.identity(self.datum.rank)
        gen_perms = list(zip(self.generators, self.generator_perms))
        perms = {ident: tuple(range(self.datum.nroots))}
        frontier = [ident]
        while frontier:
            new = []
            for w in frontier:
                wp = perms[w]
                for g, gp in gen_perms:
                    prod = g @ w
                    if prod not in perms:
                        if len(perms) >= limit:
                            raise ResourceLimitError(
                                f"action closure exceeded limit {limit}; infinite group suspected"
                            )
                        perms[prod] = tuple(gp[wp[i]] for i in range(self.datum.nroots))
                        new.append(prod)
            frontier = new
        elements = tuple(perms)
        return elements, perms

    # -- queries ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def root_permutation(self, element: IntMatrix) -> tuple[int, ...]:
        return self._perm_of[element]

    def element_permutations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._perm_of[m] for m in self.elements)

    def orbits(self, items: str = "roots") -> tuple[tuple[int, ...], ...]:
        """Orbits on 'roots' (all root indices), 'positive' or 'simple'
        (base positions)."""
        d = self.datum
        if items == "roots":
            universe = list(range(d.nroots))
            act = self.generator_perms
        elif items == "positive":
            universe = list(d.positive_root_indices())
            act = self.generator_perms
        elif items == "simple":
            universe = list(range(len(d.basis_indices)))
            table = {r: p for p, r in enumerate(d.basis_indices)}
            act = [
                tuple(table[perm[d.basis_indices[p]]] for p in range(len(d.basis_indices)))
                for perm in self.generator_perms
            ]
        else:
            raise DomainError(f"unknown orbit universe {items!r}")
        seen = set()
        orbits = []
        for x in universe:
            if x in seen:
                continue
            orbit = {x}
            frontier = [x]
            while frontier:
                nxt = []
                for y in frontier:
                    for perm in act:
                        z = perm[y]
                        if z not in orbit:
                            orbit.add(z)
                            nxt.append(z)
                frontier = nxt
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
        return tuple(orbits)

    def component_permutations(self) -> dict[IntMatrix, tuple[int, ...]]:
        """Permutation of datum components induced by each element; checked
        to be a homomorphism of the closed group."""
        if self._component_perms is not None:
            return self._component_perms
        comps = self.datum.components()
        where = {}
        for ci, comp in enumerate(comps):
            for i in comp:
                where[i] = ci
        sigma = {}
        for m in self.elements:
            perm = self._perm_of[m]
            images = []
            for ci, comp in enumerate(comps):
                targets = {where[perm[i]] for i in comp}
                if len(targets) != 1:
                    raise InvalidActionError("element splits a component across components")
                images.append(targets.pop())
            if sorted(images) != list(range(len(comps))):
                raise InvalidActionError("component images do not form a permutation")
            sigma[m] = tuple(images)
        # homomorphism check on the closed element table
        for a in self.elements:
            for b in self.elements:
                ab = a @ b
                if ab in sigma:
                    composed = tuple(sigma[a][sigma[b][i]] for i in range(len(comps)))
                    if sigma[ab] != composed:
                        raise InvalidActionError(
                            "component permutation is not multiplicative"
                        )
        self._component_perms = sigma
        return sigma

    def stabilizer_moves_component(self, comp_index: int) -> bool:
        """Does some element fixing the component move one of its roots?"""
        comps = self.datum.components()
        sigma = self.component_permutations()
        comp = comps[comp_index]
        for m in self.elements:
            if sigma[m][comp_index] == comp_index:
                perm = self._perm_of[m]
                if any(perm[i] != i for i in comp):
                    return True
        return False


def trivial_action(datum: RootDatum) -> PinnedAction:
    return PinnedAction(datum, [IntMatrix.identity(datum.rank)])


def permutation_matrix(images: dict[int, int], n: int) -> IntMatrix:
    """Matrix sending basis vector e_i to e_{images[i]} (identity elsewhere)."""
    return IntMatrix.permutation({i: images.get(i, i) for i in range(n)}, n)
