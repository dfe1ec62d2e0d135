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


def _digits(a: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(a % p)
        a //= p
    return out


def _undigits(ds, p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


def _poly_divides(div, poly, p) -> bool:
    """Whether monic div divides monic poly over F_p (coeffs low-to-high)."""
    rem = list(poly)
    d = len(div) - 1
    while len(rem) - 1 >= d:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - d
            for k, c in enumerate(div):
                rem[shift + k] = (rem[shift + k] - lead * c) % p
        rem.pop()
    return not any(rem)


def _irreducible_tail(p: int, e: int) -> tuple[int, ...]:
    """Tail (m_0..m_{e-1}) of a monic irreducible x^e + sum m_k x^k."""
    for tail in itertools.product(range(p), repeat=e):
        poly = list(tail) + [1]
        if not poly[0]:
            continue  # divisible by x
        reducible = False
        for d in range(1, e // 2 + 1):
            for div_tail in itertools.product(range(p), repeat=d):
                if _poly_divides(list(div_tail) + [1], poly, p):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(tail)
    raise InternalInconsistencyError(f"no irreducible polynomial of degree {e} found")


class GF:
    """A finite field with q = p^e elements, as lookup tables.

    Elements are the integers 0..q-1; the base-p digits of an element are
    the coefficients of its polynomial representative, so 0 and 1 are the
    two identities and integers below p form the prime field.
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
        self.modulus_tail = None if e == 1 else _irreducible_tail(p, e)
        # The powers of a primitive element list every nonzero element, so
        # they give log/antilog tables from O(q) slow products.
        antilog = next(
            powers
            for powers in map(self._powers_slow, range(1, q))
            if len(powers) == q - 1
        )
        log = [0] * q
        for k, a in enumerate(antilog):
            log[a] = k
        twice = antilog + antilog
        self._mul = [[0] * q] + [
            [0] + [twice[log[a] + log[b]] for b in range(1, q)] for a in range(1, q)
        ]
        self._inv = [0] + [antilog[-log[a]] for a in range(1, q)]
        self._neg = [row[p - 1] for row in self._mul]  # a * (-1)
        # a + b = a * (1 + b / a) for nonzero a
        one_plus = [self._add_slow(1, b) for b in range(q)]
        self._add = [list(range(q))]
        for a in range(1, q):
            times_a, over_a = self._mul[a], self._mul[self._inv[a]]
            self._add.append([times_a[one_plus[over_a[b]]] for b in range(q)])

    def _powers_slow(self, g):
        """[1, g, g^2, ...] up to the last power before 1 recurs."""
        out = [1]
        power = g
        while power != 1:
            out.append(power)
            power = self._mul_slow(power, g)
        return out

    def _add_slow(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        da, db = _digits(a, self.p, self.e), _digits(b, self.p, self.e)
        return _undigits([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def _mul_slow(self, a, b):
        p, e = self.p, self.e
        if e == 1:
            return (a * b) % p
        da, db = _digits(a, p, e), _digits(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * e - 2, e - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for k, mcoef in enumerate(self.modulus_tail):
                    prod[top - e + k] = (prod[top - e + k] - c * mcoef) % p
        return _undigits(prod[:e], p)

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise DomainError("zero has no inverse")
        return self._inv[a]

    def from_int(self, n: int) -> int:
        return n % self.p


# -- matrices over a field ----------------------------------------------


def _dot(F: GF, u, v):
    acc = F.zero
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def mat_det(F: GF, a) -> int:
    m = len(a)
    rows = [list(r) for r in a]
    det = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = F.neg(det)
        det = F.mul(det, rows[col][col])
        inv = F.inv(rows[col][col])
        for r in range(col + 1, m):
            f = F.mul(rows[r][col], inv)
            if f:
                rows[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[col])]
    return det


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


def count_fixed(n: int, q: int, order_limit: int = GROUP_ORDER_LIMIT) -> int:
    """Number of matrices in SL_{2n+1}(F_q) fixed by the involution.

    A fixed matrix g satisfies g^T J g = J, so its columns c_0..c_{m-1}
    satisfy c_k . (J c_d) = J[k][d].  The search keeps one candidate list
    per depth, starting from the vectors v with v . (J v) = J[d][d]; once
    column c is chosen at depth k, every later list keeps only the vectors
    v with v . (J c) = J[k][d], and the filtered lists are passed down.
    Each full choice of columns is kept when its determinant is one.  The
    ambient group order is capped to keep the search finite in practice.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    m = 2 * n + 1
    if sl_order(m, q) > order_limit:
        raise ResourceLimitError(
            f"|SL_{m}(F_{q})| = {sl_order(m, q)} exceeds the search limit "
            f"{order_limit} (raise --limit-enum)"
        )
    F = GF(q)
    jf = form_over(F, involution_form(n))
    vectors = list(itertools.product(range(q), repeat=m))
    jv = {v: tuple(_dot(F, row, v) for row in jf) for v in vectors}
    count = 0
    cols: list = []

    def descend(depth: int, lists: list):
        # lists[i] holds the candidates left for depth + i
        nonlocal count
        if depth == m:
            if mat_det(F, tuple(zip(*cols))) == 1:
                count += 1
            return
        for c in lists[0]:
            jc = jv[c]
            cols.append(c)
            descend(
                depth + 1,
                [
                    [v for v in later if _dot(F, v, jc) == jf[depth][d]]
                    for d, later in enumerate(lists[1:], depth + 1)
                ],
            )
            cols.pop()

    descend(0, [[v for v in vectors if _dot(F, v, jv[v]) == jf[d][d]] for d in range(m)])
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
    prediction computed purely from the folded root combinatorics."""
    datum, act = type_a_flip(2 * n, "sc")
    predicted = bruhat_predicted_count(datum, act, q)
    brute = count_fixed(n, q, order_limit=order_limit)
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
    pp, e = prime_power(p)
    if e != 1:
        raise DomainError("characteristic must be a prime")
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
