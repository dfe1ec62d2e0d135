"""Oracles for ``folding``: the class partition and the isogeny check.

``equivalence_classes`` buckets orbit sums by their primitive direction in
one dict, and ``folded_root_datum`` compares class images the same way.
``buckets_by_proportional`` instead compares each vector with the first
member of every bucket so far by its 2x2 minors, which needs no gcd and no
sign convention.

``isogeny_injectivity_check`` writes the induced map of coinvariants on the
orbits of the base.  ``isogeny_injective_by_lattice`` instead takes the
coinvariant lattice of the base permutation matrices from a Smith form,
asserts that it is free of rank the number of base orbits, and maps the
Cartan matrix through its sections and free coordinates.
"""

from foldlab.action import permutation_matrix
from foldlab.intlat import CoinvariantLattice, IntMatrix


def proportional(u, v) -> bool:
    """Exact test for rational proportionality of nonzero integer vectors."""
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    # a zero vector is proportional to nothing
    return any(u) and any(v)


def buckets_by_proportional(vectors) -> list[list[int]]:
    """Indices of ``vectors`` grouped by proportionality, in order of first
    occurrence."""
    buckets: list[list[int]] = []
    for k, v in enumerate(vectors):
        for bucket in buckets:
            if proportional(vectors[bucket[0]], v):
                bucket.append(k)
                break
        else:
            buckets.append([k])
    return buckets


def isogeny_injective_by_lattice(datum, act) -> bool:
    """Whether the coinvariants of the root lattice inject into those of
    the weight lattice, both read off one CoinvariantLattice of the base
    permutations."""
    base = datum.basis_indices
    k = len(base)
    if k == 0:
        return True
    pos_of = {r: p for p, r in enumerate(base)}
    perm_mats = [
        permutation_matrix({p: pos_of[perm[base[p]]] for p in range(k)}, k)
        for perm in act.generator_perms
    ]
    cartan = IntMatrix([[datum.pairing(base[j], base[i]) for j in range(k)] for i in range(k)])
    lattice = CoinvariantLattice(k, perm_mats)
    assert not lattice.torsion_moduli, lattice.torsion_moduli
    assert lattice.free_rank == len(act.orbits("simple"))
    cols = [
        lattice.free_image(cartan.apply(lattice.section(j))) for j in range(lattice.free_rank)
    ]
    return IntMatrix.from_columns(cols, lattice.free_rank).rank() == lattice.free_rank
