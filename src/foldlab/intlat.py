"""Exact integer linear algebra over finitely generated abelian groups.

Everything downstream (root data, folding, torus point counts) reduces to
Smith normal form of integer matrices, so this module is written for
correctness first: arbitrary-precision ints, no floats, and round-trip
identities that are cheap to assert in tests.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError, InvalidActionError, ResourceLimitError
from .record import FrozenRecord


class IntMatrix:
    """Immutable integer matrix of plain Python ints; keeps its inverse once found."""

    __slots__ = ("rows", "cols", "entries", "_inverse", "_sparse")

    def __init__(self, entries, cols: int | None = None):
        rows = tuple(tuple(map(int, row)) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DomainError("ragged matrix rows")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_inverse", None)
        object.__setattr__(self, "_sparse", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def permutation(cls, images, n: int) -> "IntMatrix":
        """Matrix sending e_j to e_{images[j]}; its inverse is its transpose."""
        if sorted(images[j] for j in range(n)) != list(range(n)):
            raise DomainError("images do not define a permutation")
        m = cls([[1 if images[j] == i else 0 for j in range(n)] for i in range(n)], cols=n)
        object.__setattr__(m, "_inverse", m.transpose())
        return m

    @classmethod
    def from_columns(cls, columns, rows: int) -> "IntMatrix":
        cols = list(columns)
        return cls([[c[i] for c in cols] for i in range(rows)], cols=len(cols))

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def _sparse_rows(self) -> tuple:
        """Each row's (column, entry) pairs with a nonzero entry, built once."""
        if self._sparse is None:
            object.__setattr__(self, "_sparse", tuple(map(_nonzero, self.entries)))
        return self._sparse

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DomainError("matrix shape mismatch in product")
        right = other._sparse_rows()
        out = [[0] * other.cols for _ in range(self.rows)]
        for acc, row in zip(out, self._sparse_rows()):
            for k, a in row:
                for j, b in right[k]:
                    acc[j] += a * b
        return IntMatrix(out, cols=other.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def apply(self, vector) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vector) != self.cols:
            raise DomainError("vector length mismatch")
        out = []
        for row in self._sparse_rows():
            total = 0
            for j, x in row:
                total += x * vector[j]
            out.append(total)
        return tuple(out)

    def is_unimodular(self) -> bool:
        try:
            self.inverse_unimodular()
        except DomainError:
            return False
        return True

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse; defined only when det = +/-1.

        From the Smith form U M V = D: M is unimodular exactly when D = I,
        and then M^-1 = V U.
        """
        if self._inverse is None:
            if self.rows != self.cols:
                raise DomainError("inverse of non-square matrix")
            u, d, v = smith_normal_form(self)
            if d != IntMatrix.identity(self.rows):
                raise DomainError("inverse requested for non-unimodular matrix")
            object.__setattr__(self, "_inverse", v @ u)
        return self._inverse

    def rank(self) -> int:
        """Rank over the rationals: the number of nonzero Smith invariants."""
        return len(_smith_invariants(self)[1])


def _nonzero(vector) -> tuple:
    """The (index, entry) pairs of the nonzero entries of a vector."""
    return tuple((j, x) for j, x in enumerate(vector) if x)


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x a + y b and g >= 0.  When a divides
    b, y = 0: a pivot that divides the entries it clears keeps its row."""
    g, x, y, h, u, w = b, 0, 1, a, 1, 0  # g = x a + y b and h = u a + w b
    while h:
        k, r = divmod(g, h)
        g, x, y, h, u, w = h, u, w, r, x - k * u, y - k * w
    return (g, x, y) if g >= 0 else (-g, -x, -y)


def _step(a, inv, i, j, p, q, r, s):
    """(a_i, a_j) <- (p a_i + q a_j, r a_i + s a_j) on rows i, j of a, where
    ps - qr = 1; with i == j and p = s = -1, q = r = 0 it negates row i.  A
    row kept as it is, (p, q) = (1, 0) or (r, s) = (0, 1), is not rewritten.
    The rows of inv, the columns of the inverse, take the inverse transpose."""
    x, y = a[i], a[j]
    if q or p != 1:
        a[i] = [p * e + q * f for e, f in zip(x, y)]
    if r or s != 1:
        a[j] = [r * e + s * f for e, f in zip(x, y)]
    if inv is not None:
        _step(inv, None, i, j, s, -r, -q, p)


def _hermite(a, width, inv):
    """Bring the first `width` columns of the rows a to row echelon form with
    positive pivots, in place, each entry above a pivot in [0, pivot).

    Rows join one at a time (Kannan and Bachem): Bezout steps against the
    pivot rows clear a new row up to its first entry off the pivot columns,
    where it becomes a pivot row, and the entries above the pivots are then
    reduced again.  A row only ever meets reduced rows, so entries stay small.
    """
    cols = []  # the pivot column of each row a[0], a[1], ... in echelon form
    for i in range(len(a)):
        lo = len(cols)  # the first pivot row that changes
        for c in range(width):
            if not (b := a[i][c]):
                continue
            if c in cols:
                k = cols.index(c)
                g, x, y = _bezout(a[k][c], b)
                _step(a, inv, k, i, x, y, -b // g, a[k][c] // g)
                lo = min(lo, k)
                continue
            k = sum(1 for p in cols if p < c)
            for j in range(i, k, -1):  # lift row i one row, negated
                _step(a, inv, j - 1, j, 0, -1, 1, 0)
            if a[k][c] < 0:
                _step(a, inv, k, k, -1, 0, 0, -1)
            cols.insert(k, c)
            lo = min(lo, k)
            break
        for k in range(lo, len(cols)):
            c = cols[k]
            for j in range(k):
                if q := a[j][c] // a[k][c]:
                    _step(a, inv, j, k, 1, -q, 0, 1)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U @ m @ V = D, U and V unimodular, D diagonal
    with nonnegative entries d1 | d2 | ... ; U keeps its inverse, built
    alongside U by the inverse of each row step.

    Echelon forms of the rows, carrying U, and of the columns, carrying V^T,
    alternate until the matrix is diagonal (Kannan and Bachem, SIAM J.
    Comput. 8, 1979); then one step on U and one on V^T turn each diagonal
    pair x, y with x not dividing y into gcd(x, y), lcm(x, y).
    """
    rows, cols = m.rows, m.cols
    u = [[0] * i + [1] + [0] * (rows - 1 - i) for i in range(rows)]
    wt = [r[:] for r in u]  # columns of U^-1
    vt = [[0] * j + [1] + [0] * (cols - 1 - j) for j in range(cols)]
    a = m.entries
    while True:
        au = [list(r) + e for r, e in zip(a, u)]
        _hermite(au, cols, wt)
        u = [r[cols:] for r in au]
        bv = [[r[j] for r in au] + e for j, e in enumerate(vt)]
        _hermite(bv, rows, None)
        vt = [r[rows:] for r in bv]
        a = [[r[i] for r in bv] for i in range(rows)]
        if not any(x for i, r in enumerate(a) for j, x in enumerate(r) if i != j):
            break
    for i in range(min(rows, cols)):
        for j in range(i + 1, min(rows, cols)):
            x, y = a[i][i], a[j][j]
            if x and y % x:
                # [[p, q], [-y/g, x/g]] diag(x, y) [[1, -qy/g], [1, px/g]]
                # = diag(g, xy/g) for g = px + qy = gcd(x, y)
                g, p, q = _bezout(x, y)
                _step(u, wt, i, j, p, q, -y // g, x // g)
                _step(vt, None, i, j, 1, 1, -q * y // g, p * x // g)
                a[i][i], a[j][j] = g, x // g * y
    u = IntMatrix(u, cols=rows)
    object.__setattr__(u, "_inverse", IntMatrix.from_columns(wt, rows))
    return u, IntMatrix(a, cols=cols), IntMatrix(zip(*vt), cols=cols)


def _smith_invariants(m: IntMatrix) -> tuple[IntMatrix, list[int], IntMatrix]:
    """(U, invariants, V) from the Smith form U m V = D: the invariants are
    D's nonzero diagonal entries, which come first, 1s included."""
    u, d, v = smith_normal_form(m)
    return u, [d[i, i] for i in range(min(d.rows, d.cols)) if d[i, i]], v


class FinAbGroup(FrozenRecord):
    """Finitely generated abelian group: Z^free_rank x prod Z/d_i.

    invariant_factors is the chain d1 | d2 | ... with every d_i >= 2.
    """

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...]):
        if free_rank < 0:
            raise DomainError("negative free rank")
        for d in invariant_factors:
            if d < 2:
                raise DomainError("invariant factors must be >= 2")
        for x, y in zip(invariant_factors, invariant_factors[1:]):
            if y % x:
                raise DomainError("invariant factors must form a divisor chain")
        super().__init__(free_rank, invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_torsion_free(self) -> bool:
        return not self.invariant_factors

    def torsion_order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def is_p_group(self, p: int) -> bool:
        """True when every invariant factor is a power of the prime p."""
        for d in self.invariant_factors:
            while d % p == 0:
                d //= p
            if d != 1:
                return False
        return True

    def without_prime_part(self, p: int) -> "FinAbGroup":
        """Quotient away the p-primary component of the torsion."""
        kept = []
        for d in self.invariant_factors:
            while d % p == 0:
                d //= p
            if d > 1:
                kept.append(d)
        return FinAbGroup(self.free_rank, tuple(kept))

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " x ".join(parts) if parts else "trivial"


def cokernel(relations: IntMatrix) -> FinAbGroup:
    """Z^rows / (column span of `relations`) as an abstract group."""
    _, diag, _ = _smith_invariants(relations)
    return FinAbGroup(
        free_rank=relations.rows - len(diag),
        invariant_factors=tuple(x for x in diag if x >= 2),
    )


def _check_action_generators(rank: int, generators) -> list[IntMatrix]:
    mats = []
    for g in generators:
        m = g if isinstance(g, IntMatrix) else IntMatrix(g)
        if m.rows != rank or m.cols != rank:
            raise InvalidActionError(
                f"action generator is {m.rows}x{m.cols}, expected {rank}x{rank}"
            )
        if not m.is_unimodular():
            raise InvalidActionError("action generator is not unimodular")
        mats.append(m)
    return mats


def _relation_matrix(rank: int, mats: list[IntMatrix]) -> IntMatrix:
    """The columns (g - 1) e_j of each generator g in turn."""
    return IntMatrix(
        [[x - (i == j) for m in mats for j, x in enumerate(m.entries[i])] for i in range(rank)],
        cols=rank * len(mats),
    )


def coinvariants(rank: int, generators) -> FinAbGroup:
    """Largest quotient of Z^rank on which every generator acts trivially."""
    mats = _check_action_generators(rank, generators)
    return cokernel(_relation_matrix(rank, mats))


class CoinvariantLattice:
    """Coinvariants of Z^rank under a unimodular action, with coordinates.

    Exposes the quotient group, the projection onto its free part, and the
    dual pairing needed to express invariant covectors in coordinates dual
    to the chosen free basis.  After the Smith normal form U R V = D of the
    relation matrix R, coordinates y = U x present the quotient as
    prod Z/d_i x Z^free; free coordinates are normalized so the image of a
    caller-supplied orientation vector is nonnegative.
    """

    def __init__(self, rank: int, generators, orient=None):
        mats = _check_action_generators(rank, generators)
        self.rank = rank
        self.generators = mats
        rel = _relation_matrix(rank, mats)
        u, diag, _ = _smith_invariants(rel)
        nonzero = len(diag)
        self.torsion_moduli = tuple(x for x in diag if x >= 2)
        self._moduli_all = tuple(diag)
        self.free_rank = rank - nonzero
        self.group = FinAbGroup(self.free_rank, self.torsion_moduli)
        rows = [list(r) for r in u.entries]
        w = u.inverse_unimodular()
        sections = [w.column(j) for j in range(nonzero, rank)]
        if orient is not None and self.free_rank:
            probe = u.apply(tuple(orient))
            for k in range(nonzero, rank):
                if probe[k] < 0:
                    # negating row k of U negates column k of U^-1
                    rows[k] = [-x for x in rows[k]]
                    sections[k - nonzero] = tuple(-x for x in sections[k - nonzero])
        self._u = IntMatrix(rows, cols=rank)
        self._sections = sections
        self._split = nonzero

    def free_image(self, vector) -> tuple:
        """Image of a lattice vector in the free quotient (M_A mod torsion)."""
        y = self._u.apply(tuple(vector))
        return y[self._split :]

    def full_image(self, vector) -> tuple[tuple, tuple]:
        """Image in M_A as (torsion coordinates, free coordinates).

        Torsion coordinates are reduced mod their moduli; coordinates with
        modulus 1 are dropped.
        """
        y = self._u.apply(tuple(vector))
        tors = tuple(
            y[i] % m for i, m in enumerate(self._moduli_all) if m >= 2
        )
        return tors, y[self._split :]

    def same_image(self, vec_a, vec_b) -> bool:
        return self.full_image(vec_a) == self.full_image(vec_b)

    def section(self, k: int) -> tuple:
        """Lattice vector mapping to the k-th free basis vector."""
        return self._sections[k]

    def dual_coords(self, covector) -> tuple:
        """Coordinates of an invariant covector in the basis dual to the
        free quotient basis; pairing then becomes the literal dot product."""
        return tuple(
            sum(a * b for a, b in zip(self.section(k), covector))
            for k in range(self.free_rank)
        )


# Trial division by these settles every q with a small prime factor.
_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % d for d in range(2, p)))
# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > a passes the Miller-Rabin test to base a, as every
    prime does: with n - 1 = d 2^s and d odd, a^d = 1 or a^(d 2^k) = -1
    mod n for some k < s."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    return x == 1 or any(pow(x, 1 << k, n) == n - 1 for k in range(s))


def _integer_root(n: int, e: int) -> int:
    """The largest r with r**e <= n, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, or raise DomainError.

    A q with a prime factor below 100 is decided by dividing it out.
    Otherwise q = r**e for the largest e with an exact integer root r,
    and q is a prime power exactly when r is prime, which Miller-Rabin
    decides exactly for q below MILLER_RABIN_BOUND; a larger q without a
    small factor raises ResourceLimitError.
    """
    if q < 2:
        raise DomainError(f"{q} is not a prime power")
    p = next((p for p in _SMALL_PRIMES if q % p == 0), None)
    if p is None:
        if q >= MILLER_RABIN_BOUND:
            raise ResourceLimitError(
                f"cannot decide whether {q} is a prime power: it has no prime factor"
                f" below 100, and the primality test is exact only below {MILLER_RABIN_BOUND}"
            )
        p = next(
            r for e in range(q.bit_length(), 0, -1) if (r := _integer_root(q, e)) ** e == q
        )
        if not all(_is_strong_probable_prime(p, a) for a in _MILLER_RABIN_BASES):
            raise DomainError(f"{q} is not a prime power")
    n, e = q, 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise DomainError(f"{q} is not a prime power")
    return p, e


def is_prime(n: int) -> bool:
    """Whether n is a prime, i.e. a prime power with exponent one."""
    try:
        return prime_power(n)[1] == 1
    except DomainError:
        return False


def hom_to_units_count(g: FinAbGroup, q: int) -> int:
    """Number of homomorphisms from g to the unit group of the q-element field.

    The unit group is cyclic of order q - 1, so the count is
    (q-1)^free_rank * prod gcd(d_i, q-1).
    """
    prime_power(q)
    n = (q - 1) ** g.free_rank
    for d in g.invariant_factors:
        n *= gcd(d, q - 1)
    return n
