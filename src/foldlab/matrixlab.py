"""Explicit matrix groups over small finite fields.

Everything here is brute force on purpose: the odd special linear group
SL_{2n+1} carries the pinned involution g |-> J (g^T)^{-1} J for an
anti-diagonal symmetric J, and this module counts its fixed matrices,
computes tangent spaces, and solves for the fixed locus in the
unitriangular group of SL_3 -- all independently of the root-datum
machinery, so the two sides can be compared.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .intlat import hom_to_units_count, is_prime, prime_power
from .poly import Poly, poly_matrix_mul
from .rootdata import cartan_type_of
from .folding import folded_root_data
from .presets import type_a_flip
from .record import FrozenRecord, Record

GROUP_ORDER_LIMIT = 10**8
FIELD_SIZE_LIMIT = 512


# -- finite fields -------------------------------------------------------


class GF:
    """A finite field with q = p^e elements, as lookup tables.

    Elements are the integers 0..q-1; the base-p digits of an element are
    the coefficients of its polynomial representative modulo x^e + sum
    m_k x^k.  The tail ``modulus_tail`` = (m_0..m_{e-1}) is the first in
    ``itertools.product`` order with m_0 != 0 whose x has order q - 1, so
    the modulus is primitive and the powers of x list every nonzero
    element.  0 and 1 are the two identities, integers below p form the
    prime field, and for a prime field x is -m_0.
    """

    zero = 0
    one = 1

    def __init__(self, q: int):
        p, e = prime_power(q)
        if q > FIELD_SIZE_LIMIT:
            raise ResourceLimitError(
                f"field size {q} exceeds the table limit {FIELD_SIZE_LIMIT}"
            )
        self.q, self.p, self.e = q, p, e
        weights = [p**k for k in range(e)]
        for tail in itertools.product(range(p), repeat=e):
            if not tail[0]:
                continue  # x divides the modulus
            # x is a unit, so its powers return to 1; multiplying by x moves
            # the digits up and folds the top one back through
            # x^e = -sum m_k x^k
            antilog, digits = [1], [1] + [0] * (e - 1)
            while True:
                top = digits[-1]
                digits = [(d - top * m) % p for d, m in zip([0] + digits[:-1], tail)]
                if (power := sum(map(operator.mul, digits, weights))) == 1:
                    break
                antilog.append(power)
            if len(antilog) == q - 1:
                break
        self.modulus_tail = tail
        log = [0] * q
        for k, a in enumerate(antilog):
            log[a] = k
        twice = antilog + antilog
        self._mul = [[0] * q] + [
            [0] + [twice[log[a] + log[b]] for b in range(1, q)] for a in range(1, q)
        ]
        self._inv = [0] + [antilog[-log[a]] for a in range(1, q)]
        self._neg = [row[p - 1] for row in self._mul]  # a * (-1)
        # 1 + b adds 1 to b's lowest digit; a + b = a * (1 + b / a) for nonzero a
        one_plus = [b - b % p + (b + 1) % p for b in range(q)]
        self._add = [list(range(q))]
        for a in range(1, q):
            times_a, over_a = self._mul[a], self._mul[self._inv[a]]
            self._add.append([times_a[one_plus[over_a[b]]] for b in range(q)])

    def from_int(self, n: int) -> int:
        return n % self.p


# -- the involuted special linear group ----------------------------------


def involution_form(n: int):
    """Anti-diagonal symmetric matrix J of size 2n+1 with alternating
    signs; J is its own inverse and the induced involution of SL_{2n+1}
    preserves the standard pinning."""
    if n < 1:
        raise DomainError("n must be at least 1")
    m = 2 * n + 1
    return tuple(
        tuple((1 if i % 2 else -1) if i + j == m - 1 else 0 for j in range(m))
        for i in range(m)
    )


def form_over(F: GF, j):
    return tuple(tuple(F.from_int(v) for v in row) for row in j)


def sl_order(m: int, q: int) -> int:
    order = q ** (m * (m - 1) // 2)
    for i in range(2, m + 1):
        order *= q**i - 1
    return order


def _reduce_columns(F: GF, pivots: list, rows_used: int, det: int, columns):
    """The next column of a determinant carried column by column, for each
    column of ``columns`` in turn.

    ``pivots`` holds a (pivot row, reduced column, -1 / pivot) entry for
    each column before; each reduced column is zero in the pivot rows of
    the columns before it.  ``rows_used`` has the pivot rows as bits, and
    ``det`` is the product of the pivots times the sign of the permutation
    their rows form.  Reduce each column c against the entries and yield
    ``det`` with c added and c's entry, or None when c reduces to zero,
    i.e. depends on the columns before it.
    """
    add, mul, neg, inv = F._add, F._mul, F._neg, F._inv
    for u in columns:
        for r, e, scale in pivots:
            f = u[r]
            if f:
                times = mul[mul[f][scale]]
                u = [add[x][times[y]] for x, y in zip(u, e)]
        for r, pivot in enumerate(u):
            if pivot:
                break
        else:
            yield None
            continue
        d = mul[det][pivot]
        if (rows_used >> r).bit_count() % 2:  # earlier pivot rows past r are inversions
            d = neg[d]
        yield d, (r, u, neg[inv[pivot]])


def _pairing_tables(F: GF, m: int):
    """Dot products of the heads and of the tails of the vectors of F_q^m.

    A vector is coded by its base-q integer, in ``itertools.product``
    order; with s = q^(m // 2), code // s codes its head, the first
    h = m - m // 2 coordinates, and code % s its tail, the rest.  Returns
    (head, tail): head[a][b] is the dot product of the heads coded a and
    b and tail[a][b] that of the tails, so u . v is the sum of one entry of
    each.  They hold q^(2h) + q^(2(m-h)) entries.
    """
    add, mul = F._add, F._mul
    # blocks[k][a][b] is the dot product of the k-coordinate blocks coded a and b
    blocks = [None, mul]
    while len(blocks) <= m - m // 2:
        blocks.append([[add[x][y] for x in row for y in by] for row in blocks[-1] for by in mul])
    return blocks[-1], blocks[m // 2]


def count_fixed(n: int, q: int, order_limit: int = GROUP_ORDER_LIMIT) -> int:
    """Number of matrices in SL_{2n+1}(F_q) fixed by the involution.

    A fixed matrix g satisfies g^T J g = J, so its columns c_0..c_{m-1}
    satisfy c_k . (J c_d) = J[k][d].  Vectors are coded as integers, and
    the dot product of two is read from the head and tail tables of
    ``_pairing_tables``, one entry of each.  Those tables hold at most 2 q^(m+1) entries,
    fewer than |SL_m(F_q)|, so the order guard bounds them too; they are
    built after it.  The code of J v and the norm v . (J v) of every vector
    are computed once, and the search keeps one candidate list per depth,
    starting from the vectors whose norm is J[d][d]; once column c is
    chosen at depth k, every later list keeps only the vectors v with
    v . (J c) = J[k][d], and a choice that empties a later list is dropped.
    Each candidate list is reduced against the columns above it by one
    call of ``_reduce_columns``; a column that reduces to zero depends on
    them and is dropped, since no matrix below it is invertible.  A full
    choice of columns is kept when its determinant, the product of its
    pivots times the sign of the permutation its pivot rows form, is one;
    the last column is counted in the loop over the one before it.  The
    field arithmetic reads the tables of ``GF``.  The ambient group order
    is capped to keep the search finite in practice.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    m = 2 * n + 1
    order = sl_order(m, q)
    if order > order_limit:
        if order < 10**30:
            size = f"= {order}"
        else:  # past 4300 digits, str(order) would raise
            digits = (order.bit_length() - 1) * 30103 // 100000  # at most log10(order)
            while 10**digits <= order:
                digits += 1
            size = f"has {digits} digits and"
        raise ResourceLimitError(
            f"|SL_{m}(F_{q})| {size} exceeds the search limit "
            f"{order_limit} (raise --limit-enum)"
        )
    F = GF(q)
    add = F._add
    head, tail = _pairing_tables(F, m)
    split = q ** (m // 2)
    vectors = list(itertools.product(range(q), repeat=m))
    head_of = [v // split for v in range(len(vectors))]
    tail_of = [v % split for v in range(len(vectors))]
    jf = form_over(F, involution_form(n))
    j_rows = []
    for row in jf:
        code = 0
        for x in row:
            code = code * q + x
        j_rows.append((head[head_of[code]], tail[tail_of[code]]))
    j_code = []
    by_norm: dict = {}
    for v, (a, b) in enumerate(zip(head_of, tail_of)):
        jv = 0
        for h_row, t_row in j_rows:
            jv = jv * q + add[h_row[a]][t_row[b]]
        j_code.append(jv)
        by_norm.setdefault(add[head[head_of[jv]][a]][tail[tail_of[jv]][b]], []).append(v)
    coords = vectors.__getitem__
    count = 0
    pivots: list = []

    def descend(depth: int, lists: list, det: int, rows_used: int):
        # lists[i] holds the candidates left for depth + i
        nonlocal count
        steps = _reduce_columns(F, pivots, rows_used, det, map(coords, lists[0]))
        for c, step in zip(lists[0], steps):
            if step is None:
                continue
            jc = j_code[c]
            h_row, t_row = head[head_of[jc]], tail[tail_of[jc]]
            below = []
            for target, later in zip(jf[depth][depth + 1 :], lists[1:]):
                kept = [v for v in later if add[h_row[head_of[v]]][t_row[tail_of[v]]] == target]
                if not kept:
                    break
                below.append(kept)
            else:
                d, entry = step
                pivots.append(entry)
                used = rows_used | 1 << entry[0]
                if depth == m - 2:
                    for last in _reduce_columns(F, pivots, used, d, map(coords, below[0])):
                        if last and last[0] == 1:
                            count += 1
                else:
                    descend(depth + 1, below, d, used)
                pivots.pop()

    descend(0, [by_norm.get(jf[d][d], []) for d in range(m)], 1, 0)
    return count


# -- Bruhat-style prediction from the folded combinatorics ----------------


def bruhat_predicted_count(datum, act, q: int) -> int:
    """Predicted number of fixed rational points: torus part times q^N
    times the length generating function of the fixed Weyl group W^A.

    W^A is the Weyl group of the folded R1 datum, whose lengths count root
    classes sent to negatives, so by Solomon's factorisation that function
    is prod (q^d_i - 1)/(q - 1) over the degrees d_i of the folded type
    (L. Solomon, The orders of the finite Chevalley groups, J. Algebra 3,
    1966); W^A is never enumerated.
    """
    prime_power(q)
    r1 = folded_root_data(datum, act)["R1"]
    t_count = hom_to_units_count(r1.lattice.group, q)
    lengths = math.prod((q**d - 1) // (q - 1) for d in cartan_type_of(r1.datum).degrees)
    return t_count * q ** len(r1.classes) * lengths


class CountReport(Record):
    n: int
    q: int
    brute: int
    predicted: int

    @property
    def agree(self) -> bool:
        return self.brute == self.predicted

    def as_dict(self):
        return {
            "n": self.n,
            "q": self.q,
            "brute": self.brute,
            "predicted": self.predicted,
            "agree": self.agree,
        }


def verify_fixed_count(n: int, q: int, order_limit: int = GROUP_ORDER_LIMIT) -> CountReport:
    """Compare the brute-force fixed count in SL_{2n+1}(F_q) with the
    prediction computed purely from the folded root combinatorics.  A q
    that is no prime power is refused before the count's order guard, and
    the guard before the prediction folds anything."""
    prime_power(q)
    brute = count_fixed(n, q, order_limit=order_limit)
    predicted = bruhat_predicted_count(*type_a_flip(2 * n, "sc"), q)
    return CountReport(n=n, q=q, brute=brute, predicted=predicted)


# -- tangent space at the identity ---------------------------------------


def _rank_mod_p(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def tangent_dim(n: int, p: int) -> int:
    """Dimension over F_p of trace-zero matrices X with X = -J X^T J."""
    if not is_prime(p):
        raise DomainError(f"characteristic must be a prime, got {p}")
    m = 2 * n + 1
    j = involution_form(n)
    s = [j[i][m - 1 - i] for i in range(m)]
    nvars = m * m

    def var(i, k):
        return i * m + k

    rows = []
    for i in range(m):
        for k in range(m):
            row = [0] * nvars
            row[var(i, k)] += 1
            row[var(m - 1 - k, m - 1 - i)] += s[i] * s[m - 1 - k]
            rows.append([x % p for x in row])
    trace = [0] * nvars
    for i in range(m):
        trace[var(i, i)] = 1 % p
    rows.append(trace)
    return nvars - _rank_mod_p(rows, p)


# -- fixed points on the unipotent part -----------------------------------


def _u3_theta_images():
    """Involution on upper unitriangular 3x3 coordinates (x, y, z)."""
    nv = 3
    x, y, z = (Poly.var(nv, k) for k in range(3))
    one = Poly.const(nv, 1)
    zero = Poly.const(nv, 0)
    u = [[one, x, y], [zero, one, z], [zero, zero, one]]
    uinv = [[one, -x, x * z - y], [zero, one, -z], [zero, zero, one]]
    prod = poly_matrix_mul(u, uinv)
    for r in range(3):
        for c in range(3):
            expect = one if r == c else zero
            if prod[r][c] != expect:
                raise InternalInconsistencyError("unitriangular inverse is wrong")
    j3 = [[Poly.const(nv, v) for v in row] for row in involution_form(1)]
    th = poly_matrix_mul(poly_matrix_mul(j3, [list(r) for r in zip(*uinv)]), j3)
    if th[0][0] != one or th[1][0] != zero or th[2][0] != zero or th[2][1] != zero:
        raise InternalInconsistencyError("involution left the unitriangular group")
    return th[0][1], th[0][2], th[1][2]


def _restrict_to_xy(poly: Poly) -> Poly:
    """Substitute z = x in a polynomial in (x, y, z), landing in (x, y)."""
    out: dict = {}
    for (ex, ey, ez), c in poly.terms.items():
        key = (ex + ez, ey)
        out[key] = out.get(key, 0) + c
    return Poly(2, out)


class UnipotentFixedPresentation(FrozenRecord):
    """Coordinate presentation of the fixed locus in the 3x3 unitriangular
    group: two generators cut it out, and eliminating the dependent
    coordinate leaves one plane relation in (x, y)."""

    fixed_equations: tuple[Poly, ...]  # in (x, y, z)
    relation: Poly  # in (x, y) after eliminating z

    def _y_coefficient(self) -> int:
        return self.relation.terms.get((0, 1), 0)

    def is_smooth_mod(self, p: int) -> bool:
        """The relation eliminates y exactly when its y-coefficient is a
        unit; otherwise the fiber has a singular (in fact nonreduced) origin."""
        if not is_prime(p):
            raise DomainError(f"characteristic must be a prime, got {p}")
        return self._y_coefficient() % p != 0


def u3_fixed_presentation() -> UnipotentFixedPresentation:
    """Fixed locus of the involution on the unitriangular group of SL_3.

    Solving theta(u) = u coordinatewise gives z = x and x z = 2 y; the
    eliminated relation is x^2 - 2y, an affine line away from 2 and a
    thickened line at 2.
    """
    tx, ty, tz = _u3_theta_images()
    nv = 3
    x, y, z = (Poly.var(nv, k) for k in range(3))
    eq1 = x - tx
    eq2 = y - ty
    eq3 = z - tz
    if eq3 != -eq1:
        raise InternalInconsistencyError("fixed equations are not paired")
    relation = -_restrict_to_xy(eq2)
    expected = Poly(2, {(2, 0): 1, (0, 1): -2})
    if relation != expected:
        raise InternalInconsistencyError("eliminated relation has unexpected form")
    return UnipotentFixedPresentation(
        fixed_equations=(eq1, eq2),
        relation=relation,
    )
