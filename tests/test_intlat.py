"""Exact integer lattice arithmetic: Smith form, coinvariants, duals."""

import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from foldlab.errors import DomainError, InvalidActionError, ResourceLimitError
from foldlab.intlat import (
    MILLER_RABIN_BOUND,
    CoinvariantLattice,
    FinAbGroup,
    IntMatrix,
    coinvariants,
    cokernel,
    hom_to_units_count,
    is_prime,
    prime_power,
    smith_normal_form,
)
from validate_oracle import bareiss_det, inverse_by_adjugate


def minor_det(rows, row_idx, col_idx):
    sub = [[rows[i][j] for j in col_idx] for i in row_idx]
    k = len(row_idx)
    if k == 0:
        return 1
    if k == 1:
        return sub[0][0]
    total = 0
    sign = 1
    for j in range(k):
        total += sign * sub[0][j] * minor_det(
            [r[:j] + r[j + 1 :] for r in sub[1:]], range(k - 1), range(k - 1)
        )
        sign = -sign
    return total


def invariant_factors_by_minor_gcd(m: IntMatrix):
    """Independent oracle: d_k = D_k / D_{k-1} where D_k = gcd of all k x k minors."""
    rows = [list(r) for r in m.entries]
    divisors = [1]
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(m.rows), k):
            for ci in itertools.combinations(range(m.cols), k):
                g = math.gcd(g, minor_det(rows, ri, ci))
        if g == 0:
            break
        divisors.append(g)
    factors = [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]
    return [d for d in factors if d != 1], len(divisors) - 1


small_entries = st.integers(min_value=-9, max_value=9)

# entries of magnitude <= 10 once drove the transforms past 700,000 bits
FOUND_7X6 = IntMatrix(
    [
        [-6, 10, 5, 1, 0, 0],
        [0, -2, -8, 6, 6, 9],
        [7, 0, -8, -2, -10, -7],
        [-4, 10, 0, 10, 10, -1],
        [10, 0, -9, 0, 2, 4],
        [4, -8, -6, 1, -10, 0],
        [1, -8, -2, 0, -6, 3],
    ]
)
# the 8-cycle conjugated by a unimodular matrix: a valid order-8 torus action
ORDER_8 = IntMatrix(
    [
        [-1, 13, -22, 10, 9, -19, 4, -3],
        [1, 6, -8, 4, 4, -9, 2, 2],
        [1, -13, 22, -10, -9, 19, -4, 4],
        [-6, -3, 7, -5, -5, 9, -1, 1],
        [21, -33, 58, -21, -17, 37, -9, 13],
        [7, 1, 2, 1, 2, -5, 1, 4],
        [4, 3, -3, 2, 3, -7, 1, 1],
        [-2, 3, -4, 1, 1, -3, 1, -1],
    ]
)
# rows eliminated column by column, or left unreduced above the pivots,
# drive this matrix's transforms past 2,500 bits
GROWTH_12X11 = IntMatrix(
    [
        [6, 7, -4, 3, -3, 5, -1, -6, 9, 8, 5],
        [9, 7, -9, 4, -5, 8, -8, 0, 6, 9, -5],
        [1, -10, 10, -2, 6, 9, 8, 7, 1, -4, 3],
        [-9, 6, -9, 3, 6, -9, -1, -7, -9, -8, 2],
        [-4, 7, 5, -7, -4, -10, 3, 8, -10, -3, 5],
        [-6, -4, 3, 8, -1, 7, 0, -1, -4, 3, 8],
        [5, -2, -10, 2, 10, 1, -4, 3, -1, -6, 9],
        [7, 1, -6, -2, 1, -9, 9, -5, 3, 0, -1],
        [1, -8, 10, -4, 1, -1, 9, -10, -5, 4, 5],
        [-8, 4, 1, -1, 10, -2, 4, -2, 9, 5, 4],
        [-6, 2, 6, -6, 6, -7, -5, 6, 10, 10, 9],
        [7, 8, -8, -7, 4, -5, -4, -2, -9, 3, 5],
    ]
)
# every entry of U, V and U^-1 stays below 2**TRANSFORM_BITS; the largest
# seen on 20,000 random matrices up to 12 x 12 with entries in [-10, 10]
# had 145 bits
TRANSFORM_BITS = 1_024


@st.composite
def int_matrices(draw, max_dim=4, entry=small_entries):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return IntMatrix(entries)


@st.composite
def unimodular_matrices(draw, n=3, max_ops=10):
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(-3, 3),
            ),
            max_size=max_ops,
        )
    )
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for kind, i, j, c in ops:
        if kind == 0 and i != j:
            for k in range(n):
                m[j][k] += c * m[i][k]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m)


def test_snf_frozen_example():
    m = IntMatrix([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert d == IntMatrix([[2, 0], [0, 4]])
    assert u @ m @ v == d
    assert u.is_unimodular() and v.is_unimodular()


def test_snf_rectangular():
    m = IntMatrix([[6, 10, 15]])
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert d.entries[0][0] == 1  # gcd(6, 10, 15)
    assert d.entries[0][1] == 0 and d.entries[0][2] == 0


@pytest.mark.parametrize(
    "entries", [[[2, 4], [6, 8]], [[6, 10, 15]], [[0, 3, 1], [5, 0, 2], [4, 4, 0], [1, 0, 7]]]
)
def test_snf_u_keeps_its_inverse(monkeypatch, entries):
    m = IntMatrix(entries)
    u, _, _ = smith_normal_form(m)
    monkeypatch.setattr("foldlab.intlat.smith_normal_form", _no_det)
    w = u.inverse_unimodular()
    assert u @ w == IntMatrix.identity(m.rows) == w @ u


def test_snf_transforms_golden_digest():
    # D is canonical, but U, V and U^-1 depend on every step of the
    # elimination: the Bezout coefficients, the reduction above each pivot,
    # the alternation of row and column passes and the gcd-lcm steps; a
    # change to any of them must re-derive this digest on purpose
    rng = random.Random(2024)
    cases = []
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        cases.append(
            [[rng.randint(-6, 6) * rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        )
    for n in range(1, 7):
        cases.append([[-(i == j) for j in range(n)] for i in range(n)])
        cases.append([[2 * (i == j) for j in range(n)] for i in range(n)])
        cases.append([[(-1) ** i * (j == n - 1 - i) for j in range(n)] for i in range(n)])
    h = hashlib.sha256()
    for entries in cases:
        u, d, v = smith_normal_form(IntMatrix(entries))
        h.update(repr((u.entries, d.entries, v.entries, u.inverse_unimodular().entries)).encode())
    assert h.hexdigest() == "5b14cf56ed7976d004d90812581e0125e216e1fb2ce123270bf3a6db5284a373"


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        int_matrices(),
        int_matrices(max_dim=12, entry=st.integers(min_value=-10, max_value=10)),
    )
)
@example(FOUND_7X6)
@example(GROWTH_12X11)
def test_snf_roundtrip_and_divisor_chain(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert u @ u.inverse_unimodular() == IntMatrix.identity(m.rows)
    assert all(
        abs(x).bit_length() < TRANSFORM_BITS
        for t in (u, v, u.inverse_unimodular())
        for row in t.entries
        for x in row
    )
    assert u.is_unimodular()
    assert v.is_unimodular()
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    if m == FOUND_7X6:
        assert diag == [1, 1, 1, 1, 2, 8]


@settings(max_examples=80, deadline=None)
@given(int_matrices(max_dim=3))
def test_snf_matches_minor_gcd_oracle(m):
    _, d, _ = smith_normal_form(m)
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    nontrivial = [x for x in diag if x not in (0, 1)]
    expected, rank = invariant_factors_by_minor_gcd(m)
    assert nontrivial == expected
    assert sum(1 for x in diag if x != 0) == rank


def test_cokernel_examples():
    assert cokernel(IntMatrix([[2, 0], [0, 3]])) == FinAbGroup(0, (6,))
    assert cokernel(IntMatrix([[1, 0], [0, 1]])) == FinAbGroup(0, ())
    assert cokernel(IntMatrix([[0, 0], [0, 0]])) == FinAbGroup(2, ())
    assert cokernel(IntMatrix([[2, 0], [0, 2]])) == FinAbGroup(0, (2, 2))


def test_finabgroup_validation_and_helpers():
    with pytest.raises(DomainError, match="^invariant factors must form a divisor chain$"):
        FinAbGroup(0, (4, 2))
    for factors in ((1,), (0,), (2, -4)):
        with pytest.raises(DomainError, match="^invariant factors must be >= 2$"):
            FinAbGroup(0, factors)
    with pytest.raises(DomainError, match="^negative free rank$"):
        FinAbGroup(-1, ())
    with pytest.raises(DomainError, match="^negative free rank$"):
        FinAbGroup(free_rank=-1, invariant_factors=(2,))
    g = FinAbGroup(1, (2, 6))
    assert not g.is_trivial and not g.is_torsion_free
    assert g.torsion_order() == 12
    assert not g.is_p_group(2)
    assert FinAbGroup(0, (2, 4)).is_p_group(2)
    assert FinAbGroup(0, ()).is_p_group(5)
    assert g.without_prime_part(2) == FinAbGroup(1, (3,))
    assert g.without_prime_part(3) == FinAbGroup(1, (2, 2))
    assert "Z" in FinAbGroup(2, (4,)).describe()


def test_coinvariants_swap_and_inversion():
    swap = IntMatrix([[0, 1], [1, 0]])
    assert coinvariants(2, [swap]) == FinAbGroup(1, ())
    inv = IntMatrix([[-1]])
    assert coinvariants(1, [inv]) == FinAbGroup(0, (2,))
    assert coinvariants(2, []) == FinAbGroup(2, ())


def test_coinvariants_generating_set_invariance():
    # order-4 rotation: same coinvariants from {g} and {g, g^2, g^3}
    g = IntMatrix([[0, -1], [1, 0]])
    one = coinvariants(2, [g])
    many = coinvariants(2, [g, g @ g, g @ g @ g, IntMatrix.identity(2)])
    assert one == many


@settings(max_examples=60, deadline=None)
@given(unimodular_matrices(3), unimodular_matrices(3))
def test_coinvariants_conjugation_invariance(g, u):
    base = coinvariants(3, [g])
    conj = u @ g @ u.inverse_unimodular()
    assert coinvariants(3, [conj]) == base


@settings(max_examples=60, deadline=None)
@given(unimodular_matrices(3))
def test_coinvariants_power_padding(g):
    assert coinvariants(3, [g]) == coinvariants(3, [g, g @ g])


def test_action_generator_validation():
    with pytest.raises(InvalidActionError):
        coinvariants(2, [IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
    with pytest.raises(InvalidActionError):
        coinvariants(2, [IntMatrix([[2, 0], [0, 1]])])


def test_hom_to_units_frozen():
    # Hom(Z/2, F_q^x) has gcd(2, q-1) elements; free part contributes (q-1)^rank
    assert hom_to_units_count(FinAbGroup(0, (2,)), 3) == 2
    assert hom_to_units_count(FinAbGroup(0, (2,)), 2) == 1
    assert hom_to_units_count(FinAbGroup(1, ()), 5) == 4
    assert hom_to_units_count(FinAbGroup(2, (2, 6)), 7) == 36 * 2 * 6


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_hom_count_matches_unit_group_enumeration(q):
    # for prime q count solutions of x^d = 1 in F_q^x directly
    for d in range(2, 13):
        g = cokernel(IntMatrix([[d]]))
        expected = sum(1 for x in range(1, q) if pow(x, d, q) == 1)
        assert hom_to_units_count(g, q) == expected


def test_coinvariant_lattice_swap():
    swap = IntMatrix([[0, 1], [1, 0]])
    lat = CoinvariantLattice(2, [swap])
    assert lat.free_rank == 1
    assert lat.torsion_moduli == ()
    a = lat.free_image((1, 0))
    b = lat.free_image((0, 1))
    assert a == b  # swapped coordinates are identified
    assert lat.free_image((1, 1)) == tuple(2 * x for x in a)
    assert lat.same_image((1, 0), (0, 1))
    assert not lat.same_image((1, 0), (1, 1))


def test_coinvariant_lattice_section_roundtrip():
    swap = IntMatrix([[0, 1], [1, 0]])
    lat = CoinvariantLattice(2, [swap])
    for k in range(lat.free_rank):
        unit = tuple(1 if i == k else 0 for i in range(lat.free_rank))
        assert lat.free_image(lat.section(k)) == unit


def test_coinvariant_lattice_dual_pairing():
    # invariant covectors pair with the quotient: <free_image(v), dual(c)> = <v, c>
    swap = IntMatrix([[0, 1], [1, 0]])
    lat = CoinvariantLattice(2, [swap])
    cov = (1, 1)  # swap-invariant
    dual = lat.dual_coords(cov)
    for v in [(1, 0), (0, 1), (2, -1), (3, 3)]:
        img = lat.free_image(v)
        assert sum(x * y for x, y in zip(img, dual)) == sum(
            x * y for x, y in zip(v, cov)
        )


def test_coinvariant_lattice_torsion():
    lat = CoinvariantLattice(1, [IntMatrix([[-1]])])
    assert lat.free_rank == 0
    assert lat.torsion_moduli == (2,)
    tor, free = lat.full_image((1,))
    assert free == ()
    assert tor == (1,)
    tor, free = lat.full_image((2,))
    assert tor == (0,)


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(121) == (11, 2)
    for bad in (1, 0, -2, 6, 12, 100):
        with pytest.raises(DomainError):
            prime_power(bad)


def _prime_power_by_trial_division(q):
    """(p, e) with q = p**e from the least divisor p of q, or None."""
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q, e = q // p, e + 1
    return (p, e) if q == 1 else None


def test_prime_power_matches_trial_division():
    for q in range(2, 10**5):
        try:
            got = prime_power(q)
        except DomainError:
            got = None
        assert got == _prime_power_by_trial_division(q), q


def test_prime_power_of_large_primes_in_milliseconds():
    start = time.perf_counter()
    assert prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(DomainError, match="^10{36} is not a prime power$"):
        prime_power(10**36)  # a small factor decides q at any size
    with pytest.raises(ResourceLimitError, match=str(MILLER_RABIN_BOUND)):
        prime_power(2**89 - 1)  # a prime past the exact range of the test


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael numbers
        1729,
        56052361,  # 211 * 421 * 631, no factor below 100
        118901521,  # 271 * 541 * 811
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        318665857834031151167461,  # strong pseudoprime to the bases 2..37
    ],
)
def test_pseudoprimes_are_not_prime(n):
    assert not is_prime(n)
    with pytest.raises(DomainError, match=f"^{n} is not a prime power$"):
        prime_power(n)


def test_intmatrix_basics():
    m = IntMatrix([[1, 2], [3, 4]])
    assert bareiss_det(m) == -2
    assert m.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert m @ IntMatrix.identity(2) == m
    assert m.rank() == 2
    assert not m.is_unimodular()
    with pytest.raises(DomainError):
        m.inverse_unimodular()
    u = IntMatrix([[1, 1], [0, 1]])
    assert u.inverse_unimodular() @ u == IntMatrix.identity(2)
    with pytest.raises(DomainError):
        IntMatrix([[1, 2], [3]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: unimodular_matrices(n, max_ops=3 * n)))
@example(ORDER_8)
def test_inverse_matches_adjugate_oracle(m):
    inv = m.inverse_unimodular()
    assert inv == inverse_by_adjugate(m)
    assert m @ inv == IntMatrix.identity(m.rows)


@pytest.mark.parametrize(
    "entries,message",
    [
        ([[1, 2], [2, 4]], "inverse requested for non-unimodular matrix"),
        ([[2, 0], [0, 1]], "inverse requested for non-unimodular matrix"),
        ([[1, 0, 0], [0, 1, 0]], "inverse of non-square matrix"),
    ],
    ids=["singular", "det-2", "non-square"],
)
def test_inverse_rejects_like_adjugate_oracle(entries, message):
    m = IntMatrix(entries)
    for inverse in (IntMatrix.inverse_unimodular, inverse_by_adjugate):
        with pytest.raises(DomainError) as info:
            inverse(m)
        assert str(info.value) == message


def _no_det(self):
    raise AssertionError("determinant computed")


def test_inverse_is_kept_and_decides_unimodularity():
    u = IntMatrix([[2, 1], [1, 1]])
    inv = u.inverse_unimodular()
    assert not hasattr(IntMatrix, "det")
    assert u.inverse_unimodular() is inv
    assert u.is_unimodular()
    assert coinvariants(2, [u]).is_trivial


def test_permutation_matrix_knows_its_inverse(monkeypatch):
    m = IntMatrix.permutation([2, 0, 1], 3)
    assert m.apply((1, 0, 0)) == (0, 0, 1)
    assert not hasattr(IntMatrix, "det")
    monkeypatch.setattr("foldlab.intlat.smith_normal_form", _no_det)
    assert m.is_unimodular()
    assert m.inverse_unimodular() == m.transpose()
    assert m @ m.inverse_unimodular() == IntMatrix.identity(3)
    with pytest.raises(DomainError, match="^images do not define a permutation$"):
        IntMatrix.permutation([0, 0, 1], 3)


@st.composite
def sparse_product_operands(draw):
    """(shape, A, B, v) with shape (n, k, m), A n x k, B k x m and v of
    length k, any of n, k, m possibly 0, and each entry zero with a drawn
    chance of 0 to 90%."""
    n, k, m = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    zeros = draw(st.integers(0, 90))

    def entry():
        return 0 if draw(st.integers(0, 99)) < zeros else draw(st.integers(-9, 9))

    a = [[entry() for _ in range(k)] for _ in range(n)]
    b = [[entry() for _ in range(m)] for _ in range(k)]
    return (n, k, m), a, b, [entry() for _ in range(k)]


@settings(max_examples=200, deadline=None)
@given(sparse_product_operands())
@example(((0, 1, 2), [], [[1, 2]], [3]))
@example(((2, 0, 3), [[], []], [], []))
def test_sparse_products_match_dense_reference(operands):
    (n, k, m), a, b, v = operands
    left, right = IntMatrix(a, cols=k), IntMatrix(b, cols=m)
    dense = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    product = left @ right
    assert (product.rows, product.cols) == (n, m)
    assert product.entries == tuple(map(tuple, dense))
    assert left.apply(tuple(v)) == tuple(sum(a[i][t] * v[t] for t in range(k)) for i in range(n))


def test_raw_generators_keep_the_unimodularity_check():
    with pytest.raises(InvalidActionError, match="^action generator is not unimodular$"):
        coinvariants(2, [[[2, 1], [1, 2]]])
    assert IntMatrix([[2, 1], [1, 2]]).is_unimodular() is False
