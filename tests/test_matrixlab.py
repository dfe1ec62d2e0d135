"""Brute-force verification on SL_{2n+1} with the transpose-inverse twist."""

import itertools
import random
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from foldlab import folding, matrixlab
from foldlab.action import PinnedAction, permutation_matrix, trivial_action
from foldlab.errors import DomainError, ResourceLimitError
from foldlab.intlat import is_prime, prime_power
from foldlab.matrixlab import (
    CountReport,
    _pairing_tables,
    _reduce_columns,
    bruhat_predicted_count,
    count_fixed,
    form_over,
    involution_form,
    sl_order,
    tangent_dim,
    u3_fixed_presentation,
    verify_fixed_count,
)
from foldlab.poly import Poly
from count_oracle import (
    classical_fixed_order,
    count_fixed_by_scan,
    u3_point_count,
    u_fixed_factors,
    u_fixed_point_count,
)
from sl_oracle import (
    GF,
    _dot,
    digit_product,
    dual_fixed_count,
    embed_matrix_over,
    embed_positions,
    embedding_identity_holds,
    is_theta_fixed,
    mat_det,
    mat_inv,
    mat_mul,
    reduce_poly,
    theta,
    xi_even,
    xi_odd,
)
from matrix_samples import mat_identity, special_linear_sample
from foldlab.presets import load_preset, preset_names, type_a_flip
from foldlab.rootdata import WeylGroup, build_preset
from weyl_oracle import bruhat_count_by_elements


# -- finite fields --------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_field_axioms_exhaustive(q):
    F = GF(q)
    els = list(range(F.q))
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [8, 9, 16, 25])
def test_field_axioms_sampled(q):
    F = GF(q)
    rng = random.Random(q)
    els = list(range(F.q))
    for _ in range(200):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one


def test_field_multiplicative_group_cyclic():
    # x^(q-1) = 1 for all nonzero x
    for q in (4, 8, 9):
        F = GF(q)
        for a in range(F.q):
            if a == F.zero:
                continue
            acc = F.one
            for _ in range(q - 1):
                acc = F.mul(acc, a)
            assert acc == F.one


def test_field_characteristic():
    F = GF(8)
    assert F.add(F.one, F.one) == F.zero  # characteristic 2
    F9 = GF(9)
    three = F9.add(F9.one, F9.add(F9.one, F9.one))
    assert three == F9.zero


def test_field_validation():
    for bad in (0, 1, 6, 12, 15):
        with pytest.raises(DomainError):
            GF(bad)
    with pytest.raises(ResourceLimitError):
        GF(521)
    with pytest.raises(DomainError):
        GF(5).inv(0)


PRIME_POWERS_TO_128 = sorted(
    p**e for p in range(2, 129) if is_prime(p) for e in range(1, 8) if p**e <= 128
)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_128)
def test_field_tables_match_digit_products(q):
    F = GF(q)
    for a in range(q):
        assert F._add[a] == [F.digit_add(a, b) for b in range(q)]
        assert F._mul[a] == [F.digit_mul(a, b) for b in range(q)]
        assert F.digit_add(a, F._neg[a]) == 0
        if a:
            assert F.digit_mul(a, F._inv[a]) == 1


def _order_of_x(p, tail):
    x = reduce_poly([0, 1], p, tail)
    power, order = x, 1
    while power != 1:  # x is a unit, since tail[0] != 0
        power, order = digit_product(power, x, p, tail), order + 1
    return order


@pytest.mark.parametrize("q", PRIME_POWERS_TO_128)
def test_field_modulus_is_the_first_primitive_tail(q):
    p, e = prime_power(q)
    first = next(
        tail
        for tail in itertools.product(range(p), repeat=e)
        if tail[0] and _order_of_x(p, tail) == q - 1
    )
    assert GF(q).modulus_tail == first


def test_from_int():
    F = GF(7)
    assert F.from_int(10) == 3
    assert F.from_int(-1) == 6


# -- the involution -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_involution_form_shape(n):
    m = 2 * n + 1
    j = involution_form(n)
    assert len(j) == m
    for r in range(m):
        for c in range(m):
            if r + c == m - 1:
                assert j[r][c] in (1, -1)
            else:
                assert j[r][c] == 0
    assert tuple(tuple(row) for row in j) == tuple(zip(*j))  # symmetric
    F = GF(5)
    jf = form_over(F, j)
    assert mat_mul(F, jf, jf) == mat_identity(m)


def test_theta_is_involution():
    F = GF(5)
    rng = random.Random(11)
    for n in (1, 2):
        m = 2 * n + 1
        for _ in range(10):
            g = special_linear_sample(F, m, rng)
            assert theta(F, n, theta(F, n, g)) == g


def test_theta_preserves_pinning():
    # theta maps the one-parameter subgroup of alpha_i to that of alpha_{m-i}
    F = GF(7)
    n, m = 2, 5
    for i in range(m - 1):
        for x in range(F.q):
            g = [list(r) for r in mat_identity(m)]
            g[i][i + 1] = x
            img = theta(F, n, tuple(tuple(r) for r in g))
            expect = [list(r) for r in mat_identity(m)]
            expect[m - 2 - i][m - 1 - i] = x
            assert img == tuple(tuple(r) for r in expect)


def test_theta_fixes_diagonal_torus_combinatorially():
    F = GF(7)
    d = [[0] * 3 for _ in range(3)]
    d[0][0], d[1][1], d[2][2] = 2, 1, F.inv(2)
    g = tuple(tuple(r) for r in d)
    assert is_theta_fixed(F, 1, g)


# -- counting -------------------------------------------------------------


def test_sl_order():
    assert sl_order(2, 2) == 6
    assert sl_order(3, 2) == 168
    assert sl_order(3, 3) == 5616
    assert sl_order(5, 2) == 9999360


@pytest.mark.parametrize(
    "n,q,count",
    [(1, 2, 6), (1, 3, 24), (1, 4, 60), (1, 5, 120), (1, 7, 336), (1, 8, 504), (1, 9, 720)],
)
def test_fixed_counts_small(n, q, count):
    assert count_fixed(n, q) == count


def test_fixed_count_sp4_f2():
    assert count_fixed(2, 2) == 720  # the symplectic group on 4 letters over F_2


@pytest.mark.parametrize(
    "n,q",
    [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9), (2, 2)]
    # past the default guard: a prime above 9, degree 4 over 2, degree 2 over 5,
    # degree 3 over 3
    + [(1, 11), (1, 16), (1, 25), (1, 27)],
)
def test_fixed_count_matches_classical_order(n, q):
    datum, act = type_a_flip(2 * n)
    brute = count_fixed(n, q, order_limit=sl_order(2 * n + 1, q))
    assert brute == classical_fixed_order(n, q) == bruhat_predicted_count(datum, act, q)


# The tables hold about q^(m+1) entries.  Cases past 27^4, the most a
# count here builds, are left out: m = 5 from q = 16 and m = 7 from q = 7
# (25^8 entries at m = 7, q = 25).
PAIRING_CASES = [
    (m, q)
    for m in (3, 5, 7)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25)
    if q ** (m + 1) <= 27**4
]


@pytest.mark.parametrize("m,q", PAIRING_CASES)
def test_pairing_tables_match_the_dot_product(m, q):
    F = GF(q)
    head, tail = _pairing_tables(F, m)
    split = q ** (m // 2)
    vectors = list(itertools.product(range(q), repeat=m))
    if m == 3 and q <= 4:
        pairs = itertools.product(range(len(vectors)), repeat=2)
    else:
        rng = random.Random(m * 100 + q)
        pairs = [(rng.randrange(len(vectors)), rng.randrange(len(vectors))) for _ in range(2000)]
    for v, w in pairs:
        (hv, tv), (hw, tw) = divmod(v, split), divmod(w, split)
        assert F.add(head[hv][hw], tail[tv][tw]) == _dot(F, vectors[v], vectors[w]), (v, w)


def carried_det(F, a):
    """Determinant of a, one column at a time through ``_reduce_columns``,
    as ``count_fixed`` carries it down its search."""
    pivots, rows_used, det = [], 0, 1
    for c in zip(*a):
        (step,) = _reduce_columns(F, pivots, rows_used, det, [c])
        if step is None:
            return 0
        det, entry = step
        pivots.append(entry)
        rows_used |= 1 << entry[0]
    return det


@st.composite
def square_matrices_over_fields(draw):
    """An m x m matrix over GF(q), m in {3, 5} and q <= 9.  Sometimes one
    column is made a combination of the others, so the matrix is singular;
    the rows are then shuffled, so pivots are often found out of order."""
    F = GF(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    m = draw(st.sampled_from([3, 5]))
    entry = st.integers(0, F.q - 1)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    if draw(st.booleans()):
        k = draw(st.integers(0, m - 1))
        coeffs = draw(st.lists(entry, min_size=m, max_size=m))
        coeffs[k] = 0
        for row in rows:
            row[k] = _dot(F, coeffs, row)
    order = draw(st.permutations(range(m)))
    return F, tuple(tuple(rows[i]) for i in order)


@settings(max_examples=300, deadline=None)
@given(square_matrices_over_fields())
@example((GF(3), form_over(GF(3), involution_form(2))))  # anti-diagonal
@example((GF(5), ((0, 1, 0), (1, 0, 0), (0, 0, 1))))  # one swap: det -1
@example((GF(5), ((1, 2, 3), (2, 4, 1), (3, 1, 4))))  # column 1 = 2 column 0
def test_carried_det_matches_elimination(case):
    F, a = case
    assert carried_det(F, a) == mat_det(F, a)


def test_scan_and_backtrack_agree():
    for q in (2, 3):
        assert count_fixed_by_scan(1, q) == count_fixed(1, q)


def test_count_fixed_limits():
    with pytest.raises(ResourceLimitError):
        count_fixed(2, 3)  # |SL_5(F_3)| is past the order budget
    with pytest.raises(ResourceLimitError):
        count_fixed(1, 3, order_limit=10)


def test_bruhat_prediction_rank_one():
    datum, act = type_a_flip(2)
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert bruhat_predicted_count(datum, act, q) == q**3 - q  # |PGL_2(F_q)|


def test_bruhat_prediction_rank_two():
    datum, act = type_a_flip(4)
    assert bruhat_predicted_count(datum, act, 2) == 720
    # |SO_5(F_q)| = q^4 (q^2 - 1)(q^4 - 1)
    for q in (2, 3, 4, 5):
        assert bruhat_predicted_count(datum, act, q) == q**4 * (q**2 - 1) * (q**4 - 1)


def _diagram_action(ctype, images):
    datum = build_preset(ctype)
    return datum, PinnedAction(datum, [permutation_matrix(dict(enumerate(images)), datum.rank)])


def _trivial(ctype):
    datum = build_preset(ctype)
    return datum, trivial_action(datum)


def _preset(name):
    pre = load_preset(name)
    return pre.datum, pre.action


# the (datum, action) pairs on which the closed form meets the element sum;
# the presets A2-A5-sc-flip are also the A2-A5 sc flips, so 28 are distinct
BRUHAT_PAIRS = {
    **{name: partial(_preset, name) for name in preset_names()},
    **{
        f"A{rank}-{isogeny}-flip": partial(type_a_flip, rank, isogeny)
        for rank in range(1, 8)
        for isogeny in ("sc", "adjoint")
    },
    "B2+B2-swap": partial(_diagram_action, "B2+B2", [2, 3, 0, 1]),
    "G2+G2+G2-cycle": partial(_diagram_action, "G2+G2+G2", [2, 3, 4, 5, 0, 1]),
    "D5-flip": partial(_diagram_action, "D5", [0, 1, 2, 4, 3]),
    **{
        f"{ctype}-trivial": partial(_trivial, ctype)
        for ctype in ("B2+B2", "G2+G2+G2", "D5", "A3+A3", "F4", "C3")
    },
}


@pytest.mark.parametrize("name", sorted(BRUHAT_PAIRS))
def test_bruhat_matches_element_sum(name):
    datum, act = BRUHAT_PAIRS[name]()
    for q in (2, 3, 4, 5, 7):
        assert bruhat_predicted_count(datum, act, q) == bruhat_count_by_elements(datum, act, q)


@pytest.mark.parametrize(
    "ctype,degrees",
    [
        ("E6", (2, 5, 6, 8, 9, 12)),
        ("E7", (2, 6, 8, 10, 12, 14, 18)),
        ("E8", (2, 8, 12, 14, 18, 20, 24, 30)),
    ],
    ids=["E6", "E7", "E8"],
)
def test_bruhat_prediction_is_the_classical_order(ctype, degrees):
    # |G(F_q)| = q^N prod (q^d_i - 1) for split G (Carter, Simple Groups of
    # Lie Type, 9.4), with N = sum (d_i - 1) positive roots
    datum, act = _trivial(ctype)
    for q in (2, 3):
        order = q ** sum(d - 1 for d in degrees)
        for d in degrees:
            order *= q**d - 1
        assert bruhat_predicted_count(datum, act, q) == order


def test_bruhat_prediction_closes_no_weyl_group(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("a Weyl group was closed")

    monkeypatch.setattr(folding, "fixed_weyl", no_closure)
    monkeypatch.setattr(WeylGroup, "generate", classmethod(no_closure))
    assert not hasattr(matrixlab, "fixed_weyl")
    assert bruhat_predicted_count(*type_a_flip(4), 3) == 51840
    assert bruhat_predicted_count(*_trivial("E8"), 2) > 0


def test_verify_fixed_count_agrees():
    for n, q in [(1, 2), (1, 3)]:
        rep = verify_fixed_count(n, q)
        assert rep.agree
        assert rep.brute == rep.predicted
        d = rep.as_dict()
        assert d["agree"] is True


def test_refused_count_makes_no_prediction(monkeypatch):
    def no_prediction(*args, **kwargs):
        raise AssertionError("a refused count made a prediction")

    monkeypatch.setattr(matrixlab, "bruhat_predicted_count", no_prediction)
    with pytest.raises(ResourceLimitError):
        verify_fixed_count(20, 512)
    with pytest.raises(ResourceLimitError):
        verify_fixed_count(1, 5, order_limit=10)
    with pytest.raises(ResourceLimitError):  # a prime, past the guard
        verify_fixed_count(1, 2**61 - 1)
    with pytest.raises(ResourceLimitError, match="cannot decide"):
        verify_fixed_count(1, 2**89 - 1)
    for bad in (1, 6):  # not a prime power, refused before the guard
        with pytest.raises(DomainError):
            verify_fixed_count(1, bad, order_limit=10)


def test_count_report_disagreement_flag():
    assert not CountReport(n=1, q=2, brute=6, predicted=7).agree


# -- tangent spaces -------------------------------------------------------


@pytest.mark.parametrize("n,p,dim", [(1, 2, 5), (1, 3, 3), (1, 5, 3), (2, 3, 10), (2, 5, 10)])
def test_tangent_dim(n, p, dim):
    assert tangent_dim(n, p) == dim


def test_tangent_dim_requires_prime():
    for bad in (0, 1, 4, 6):
        with pytest.raises(DomainError, match=f"^characteristic must be a prime, got {bad}$"):
            tangent_dim(1, bad)


def test_dual_numbers_spot_check():
    assert dual_fixed_count(1, 2) == 2 ** tangent_dim(1, 2)
    # an odd prime, through the same mat_mul as the field code
    assert dual_fixed_count(1, 3) == 3 ** tangent_dim(1, 3) == 27
    with pytest.raises(ResourceLimitError):
        dual_fixed_count(2, 2)


# -- the block embeddings -------------------------------------------------


def test_embed_positions():
    assert embed_positions(1, 1) == (0, 1, 2)
    assert embed_positions(1, 2) == (0, 2, 4)
    assert embed_positions(2, 2) == (1, 2, 3)
    for bad_i, n in [(0, 2), (3, 2), (-1, 1)]:
        with pytest.raises(DomainError):
            embed_positions(bad_i, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embedding_identity_all_slots(n):
    for i in range(1, n + 1):
        assert embedding_identity_holds(i, n)


def test_embedding_is_homomorphism_over_f5():
    F = GF(5)
    rng = random.Random(3)
    for n in (1, 2):
        for i in range(1, n + 1):
            assert embed_matrix_over(F, i, n, mat_identity(3)) == mat_identity(2 * n + 1)
            for _ in range(8):
                a = special_linear_sample(F, 3, rng)
                b = special_linear_sample(F, 3, rng)
                fa = embed_matrix_over(F, i, n, a)
                fb = embed_matrix_over(F, i, n, b)
                assert mat_det(F, fa) == F.one
                assert embed_matrix_over(F, i, n, mat_mul(F, a, b)) == mat_mul(F, fa, fb)


def test_embedding_intertwines_involutions():
    F = GF(5)
    rng = random.Random(4)
    for n in (1, 2):
        for i in range(1, n + 1):
            for _ in range(8):
                g = special_linear_sample(F, 3, rng)
                lhs = theta(F, n, embed_matrix_over(F, i, n, g))
                rhs = embed_matrix_over(F, i, n, theta(F, 1, g))
                assert lhs == rhs


# -- the rank-one parametrizations ----------------------------------------


def test_xi_odd_frozen_example():
    F = GF(7)
    img = xi_odd(F, ((0, 1), (6, 0)))  # the standard rotation by 90 degrees
    assert img == ((0, 0, 4), (0, 6, 0), (2, 0, 0))  # 4 = 1/2, 6 = -1 mod 7


def test_xi_odd_lands_in_fixed_group():
    F = GF(7)
    rng = random.Random(5)
    for _ in range(12):
        g = special_linear_sample(F, 2, rng)
        img = xi_odd(F, g)
        assert mat_det(F, img) == F.one
        assert is_theta_fixed(F, 1, img)


def test_xi_odd_homomorphism():
    F = GF(5)
    rng = random.Random(6)
    for _ in range(10):
        a = special_linear_sample(F, 2, rng)
        b = special_linear_sample(F, 2, rng)
        assert xi_odd(F, mat_mul(F, a, b)) == mat_mul(F, xi_odd(F, a), xi_odd(F, b))


def test_xi_odd_kernel_is_plus_minus_identity():
    F = GF(3)
    ident = mat_identity(3)
    kernel = []
    for flat in itertools.product(range(F.q), repeat=4):
        g = (flat[0:2], flat[2:4])
        if mat_det(F, g) != F.one:
            continue
        if xi_odd(F, g) == ident:
            kernel.append(g)
    assert sorted(kernel) == sorted(
        [((1, 0), (0, 1)), ((2, 0), (0, 2))]
    )


def test_xi_odd_rejects_char_two_and_bad_det():
    with pytest.raises(DomainError):
        xi_odd(GF(2), ((1, 0), (0, 1)))
    with pytest.raises(DomainError):
        xi_odd(GF(4), ((1, 0), (0, 1)))
    with pytest.raises(DomainError):
        xi_odd(GF(5), ((2, 0), (0, 2)))


def test_xi_even_corner_placement():
    F = GF(2)
    img = xi_even(F, ((1, 1), (0, 1)))
    assert img == ((1, 0, 1), (0, 1, 0), (0, 0, 1))


def test_xi_even_properties():
    for q in (2, 4):
        F = GF(q)
        seen = set()
        for flat in itertools.product(range(F.q), repeat=4):
            g = (flat[0:2], flat[2:4])
            if mat_det(F, g) != F.one:
                continue
            img = xi_even(F, g)
            assert is_theta_fixed(F, 1, img)
            assert img not in seen  # injective: trivial kernel
            seen.add(img)
        assert len(seen) == sl_order(2, q)


def test_xi_even_rejects_odd_characteristic():
    with pytest.raises(DomainError):
        xi_even(GF(3), ((1, 0), (0, 1)))


# -- the unipotent fixed locus --------------------------------------------


def test_u3_presentation_exact():
    pres = u3_fixed_presentation()
    assert pres.relation == Poly(2, {(2, 0): 1, (0, 1): -2})  # x^2 - 2y


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_u3_point_counts(q):
    assert u3_point_count(u3_fixed_presentation(), q) == q


def test_u3_smoothness_flags():
    pres = u3_fixed_presentation()
    assert not pres.is_smooth_mod(2)
    for p in (3, 5, 7):
        assert pres.is_smooth_mod(p)


@pytest.mark.parametrize("p", [4, 8, 9, 1, 0, -3])
def test_u3_smoothness_refuses_non_primes(p):
    # a prime power is a field size, not a characteristic
    with pytest.raises(DomainError, match=f"characteristic must be a prime, got {p}"):
        u3_fixed_presentation().is_smooth_mod(p)


def test_u_fixed_factors():
    datum, act = type_a_flip(4)
    kinds = [f.kind for f in u_fixed_factors(datum, act)]
    assert sorted(kinds) == ["line", "line", "twisted", "twisted"]
    for q in (2, 3, 5):
        assert u_fixed_point_count(datum, act, q) == q**4

    datum3, act3 = type_a_flip(3)
    assert [f.kind for f in u_fixed_factors(datum3, act3)] == ["line"] * 4

    pre = load_preset("D4-sc-triality")
    assert [f.kind for f in u_fixed_factors(pre.datum, pre.action)] == ["line"] * 6
    assert u_fixed_point_count(pre.datum, pre.action, 3) == 3**6


def test_special_linear_sample():
    F = GF(9)
    rng = random.Random(0)
    for size in (2, 3):
        g = special_linear_sample(F, size, rng)
        assert len(g) == size
        assert mat_det(F, g) == F.one


def test_mat_inv():
    F = GF(7)
    rng = random.Random(8)
    g = special_linear_sample(F, 3, rng)
    assert mat_mul(F, g, mat_inv(F, g)) == mat_identity(3)
    with pytest.raises(DomainError):
        mat_inv(F, ((1, 1, 1), (1, 1, 1), (0, 0, 1)))
