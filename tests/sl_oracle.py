"""Oracles on the twisted SL(2n+1) side.

``foldlab.matrixlab`` counts the matrices fixed by the involution
g |-> J (g^T)^{-1} J column by column and reads the tangent dimension off
one linear system.  The routines here check the facts those two rest on by
other routes:

- ``GF`` is the package's field with its arithmetic as methods, which the
  routines here use.  Its ``digit_add`` and ``digit_mul`` add and multiply
  base-p digits as polynomial coefficients modulo the field's modulus
  (``digit_product``), the reference for the field's log/antilog tables.
- ``mat_det`` is plain Gaussian elimination with row swaps: the reference
  for the determinant ``count_fixed`` carries down its column search
  (``matrixlab._reduce_columns``).
- ``theta`` applies the involution literally, through ``mat_inv``, and
  ``is_theta_fixed`` tests g^T J g = J with det g = 1, which is what the
  full scan of ``count_oracle`` keeps; the tests check that theta is an
  involution that sends the root subgroup of alpha_i to that of
  alpha_{m-i}, the A_{2n} flip that ``count_fixed`` counts.
- ``dual_fixed_count`` enumerates the fixed points congruent to the
  identity over the dual numbers F_p[t]/(t^2); there are p^``tangent_dim``
  of them.  At p^((2n+1)^2) candidates it is only feasible for n = 1,
  p <= 3.
- ``embed_matrix`` places a 3x3 block on the i-th trio of SL(2n+1);
  ``embedding_identity_holds`` proves, as an identity of integer
  polynomials in the nine block entries (``poly_det``, ``poly_adjugate``),
  that the involution commutes with it.
- ``xi_odd`` and ``xi_even`` are the rank-one sections SL(2) -> SL(3)^theta
  away from and in characteristic 2.
"""

import itertools

from foldlab import matrixlab
from foldlab.errors import DomainError, ResourceLimitError
from foldlab.intlat import prime_power
from foldlab.matrixlab import form_over, involution_form
from foldlab.poly import Poly, poly_matrix_mul

FULL_SCAN_LIMIT = 300_000


# -- matrices over a field ----------------------------------------------


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


def reduce_poly(coeffs, p: int, tail) -> int:
    """The element of F_p[x] / (x^e + sum tail[k] x^k), e = len(tail), of
    the polynomial with integer coefficients ``coeffs``, low to high."""
    e = len(tail)
    rem = [c % p for c in coeffs] + [0] * (e - len(coeffs))
    for top in range(len(rem) - 1, e - 1, -1):
        c = rem[top]
        if c:
            for k, m in enumerate(tail):
                rem[top - e + k] = (rem[top - e + k] - c * m) % p
    return _undigits(rem[:e], p)


def digit_product(a: int, b: int, p: int, tail) -> int:
    """a * b by schoolbook multiplication of base-p digits, reduced
    modulo x^e + sum tail[k] x^k."""
    e = len(tail)
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(a, p, e)):
        for j, y in enumerate(_digits(b, p, e)):
            prod[i + j] += x * y
    return reduce_poly(prod, p, tail)


class GF(matrixlab.GF):
    """``foldlab.matrixlab.GF`` with its arithmetic as methods.

    ``count_fixed`` reads the field's tables directly; the oracles and the
    tests here go through these methods.
    """

    def digit_add(self, a, b):
        p, e = self.p, self.e
        return _undigits([(x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))], p)

    def digit_mul(self, a, b):
        return digit_product(a, b, self.p, self.modulus_tail)

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


def mat_transpose(a):
    return tuple(zip(*a))


def mat_mul(F: GF, a, b):
    bt = mat_transpose(b)
    return tuple(
        tuple(
            _dot(F, row, col)
            for col in bt
        )
        for row in a
    )


def mat_inv(F: GF, a):
    m = len(a)
    rows = [list(r) + [1 if i == j else 0 for j in range(m)] for i, r in enumerate(a)]
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col]), None)
        if piv is None:
            raise DomainError("matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = F.inv(rows[col][col])
        rows[col] = [F.mul(inv, x) for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(r[m:]) for r in rows)


# -- the involution -------------------------------------------------------


def theta(F: GF, n: int, g):
    """The involution J (g^T)^{-1} J evaluated over a field."""
    jf = form_over(F, involution_form(n))
    return mat_mul(F, mat_mul(F, jf, mat_transpose(mat_inv(F, g))), jf)


def is_theta_fixed(F: GF, n: int, g) -> bool:
    """g in SL fixed by theta, i.e. g^T J g = J and det g = 1."""
    jf = form_over(F, involution_form(n))
    gt = mat_transpose(g)
    if mat_mul(F, mat_mul(F, gt, jf), g) != jf:
        return False
    return mat_det(F, g) == 1


# -- fixed points over the dual numbers ----------------------------------


class DualNumbers:
    """The ring F_p[t]/(t^2); elements are pairs (a, b) meaning a + b t."""

    zero = (0, 0)
    one = (1, 0)
    t = (0, 1)

    def __init__(self, p: int):
        pp, e = prime_power(p)
        if e != 1:
            raise DomainError("characteristic must be a prime")
        self.p = p

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def mul(self, x, y):
        return (
            (x[0] * y[0]) % self.p,
            (x[0] * y[1] + x[1] * y[0]) % self.p,
        )

    def neg(self, x):
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def from_int(self, n: int):
        return (n % self.p, 0)


def _det_ring(R, rows) -> object:
    m = len(rows)
    if m > 5:
        raise ResourceLimitError("permutation-expansion determinant capped at size 5")
    total = R.zero
    for perm in itertools.permutations(range(m)):
        inversions = sum(
            1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b]
        )
        term = R.one
        for i, jj in enumerate(perm):
            term = R.mul(term, rows[i][jj])
        total = R.add(total, term if inversions % 2 == 0 else R.neg(term))
    return total


def dual_fixed_count(n: int, p: int) -> int:
    """Count fixed points congruent to the identity over F_p[t]/(t^2).

    This equals p to the tangent dimension, giving an independent check
    on the linear-algebra computation.
    """
    m = 2 * n + 1
    if p ** (m * m) > FULL_SCAN_LIMIT:
        raise ResourceLimitError("dual-number enumeration too large")
    R = DualNumbers(p)
    j = involution_form(n)
    jr = tuple(tuple(R.from_int(v) for v in row) for row in j)
    count = 0
    for flat in itertools.product(range(p), repeat=m * m):
        g = tuple(
            tuple(
                ((1 if i == k else 0), flat[i * m + k])
                for k in range(m)
            )
            for i in range(m)
        )
        if mat_mul(R, mat_transpose(g), mat_mul(R, jr, g)) != jr:
            continue
        if _det_ring(R, g) == R.one:
            count += 1
    return count


# -- polynomial determinants ----------------------------------------------


def poly_det(mat) -> Poly:
    """Determinant by expansion along the sparsest column."""
    n = len(mat)
    zero = mat[0][0] * 0
    if n == 1:
        return mat[0][0]

    def go(rows, cols):
        if len(cols) == 1:
            return mat[rows[0]][cols[0]]
        best = min(
            range(len(cols)),
            key=lambda cj: sum(1 for r in rows if mat[r][cols[cj]].terms),
        )
        col = cols[best]
        rest_cols = cols[:best] + cols[best + 1:]
        total = zero
        for pos, r in enumerate(rows):
            entry = mat[r][col]
            if not entry.terms:
                continue
            sub = go(rows[:pos] + rows[pos + 1:], rest_cols)
            term = entry * sub
            if (pos + best) % 2:
                term = -term
            total = total + term
        return total

    return go(tuple(range(n)), tuple(range(n)))


def poly_adjugate(mat):
    """Adjugate: adj[j][i] = (-1)^(i+j) * minor(i, j)."""
    n = len(mat)
    if n == 1:
        return [[Poly.const(mat[0][0].nvars, 1)]]
    all_idx = tuple(range(n))
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        rows = all_idx[:i] + all_idx[i + 1:]
        for j in range(n):
            cols = all_idx[:j] + all_idx[j + 1:]
            minor = [[mat[r][c] for c in cols] for r in rows]
            d = poly_det(minor)
            out[j][i] = d if (i + j) % 2 == 0 else -d
    return out


# -- rank-one embeddings --------------------------------------------------


def embed_positions(i: int, n: int) -> tuple[int, int, int]:
    """0-based row/column trio hosting the i-th rank-one block."""
    if not 1 <= i <= n:
        raise DomainError(f"index {i} outside 1..{n}")
    return (i - 1, n, 2 * n + 1 - i)


def embed_matrix(i: int, n: int, block, *, one, zero, neg):
    """Place a 3x3 block at the i-th trio of SL_{2n+1}, identity elsewhere.

    Entries crossing the third trio position pick up the sign (-1)^(i+n);
    the corner entry stays plain.  The result is conjugate to the naive
    block embedding by a diagonal sign matrix, hence multiplicative.
    """
    m = 2 * n + 1
    pos = embed_positions(i, n)
    flip = (i + n) % 2 == 1
    out = [[one if r == c else zero for c in range(m)] for r in range(m)]
    for r in range(3):
        for c in range(3):
            v = block[r][c]
            if flip and (r == 2) != (c == 2):
                v = neg(v)
            out[pos[r]][pos[c]] = v
    return tuple(tuple(row) for row in out)


def embed_matrix_over(F: GF, i: int, n: int, block):
    return embed_matrix(i, n, block, one=F.one, zero=F.zero, neg=F.neg)


def embedding_identity_holds(i: int, n: int) -> bool:
    """Polynomial identity: the involution commutes with the i-th embedding.

    Both sides are computed with adjugates, so the comparison is between
    integer polynomials in the nine block entries; the difference must be
    det - 1 at the diagonal positions outside the trio and zero elsewhere,
    which vanishes identically on the determinant-one locus.
    """
    nv = 9
    one = Poly.const(nv, 1)
    zero = Poly.const(nv, 0)
    g3 = [[Poly.var(nv, r * 3 + c) for c in range(3)] for r in range(3)]
    det3 = poly_det(g3)
    j3 = [[Poly.const(nv, v) for v in row] for row in involution_form(1)]
    theta3 = poly_matrix_mul(
        poly_matrix_mul(j3, [list(r) for r in zip(*poly_adjugate(g3))]), j3
    )
    m = 2 * n + 1
    fg = embed_matrix(i, n, g3, one=one, zero=zero, neg=lambda x: -x)
    jm = [[Poly.const(nv, v) for v in row] for row in involution_form(n)]
    lhs = poly_matrix_mul(
        poly_matrix_mul(jm, [list(r) for r in zip(*poly_adjugate(fg))]), jm
    )
    rhs = embed_matrix(i, n, theta3, one=one, zero=zero, neg=lambda x: -x)
    trio = set(embed_positions(i, n))
    extra = det3 - one
    for r in range(m):
        for c in range(m):
            diff = lhs[r][c] - rhs[r][c]
            if r == c and r not in trio:
                if diff != extra:
                    return False
            elif diff.terms:
                return False
    return True


# -- rank-one sections ----------------------------------------------------


def xi_odd(F: GF, block):
    """Section SL_2 -> fixed subgroup of SL_3, defined when 2 is a unit.

    The image of [[a,b],[c,d]] is the symmetric-square matrix written in
    the coordinates where the involution fixes it entrywise; the kernel
    is +/-identity.
    """
    if F.p == 2:
        raise DomainError("the rank-one section needs 2 invertible")
    (a, b), (c, d) = block
    if F.sub(F.mul(a, d), F.mul(b, c)) != 1:
        raise DomainError("input must have determinant one")
    two = F.from_int(2)
    half = F.inv(two)
    return (
        (F.mul(a, a), F.mul(a, b), F.mul(F.mul(b, b), half)),
        (F.mul(two, F.mul(a, c)), F.add(F.mul(a, d), F.mul(b, c)), F.mul(b, d)),
        (F.mul(two, F.mul(c, c)), F.mul(two, F.mul(c, d)), F.mul(d, d)),
    )


def xi_even(F: GF, block):
    """Section SL_2 -> fixed subgroup of SL_3 in characteristic 2."""
    if F.p != 2:
        raise DomainError("this section is specific to characteristic 2")
    (a, b), (c, d) = block
    if F.sub(F.mul(a, d), F.mul(b, c)) != 1:
        raise DomainError("input must have determinant one")
    return ((a, 0, b), (0, 1, 0), (c, 0, d))
