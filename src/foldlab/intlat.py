"""Exact integer linear algebra over finitely generated abelian groups.

Everything downstream (root data, folding, torus point counts) reduces to
Smith normal form of integer matrices, so this module is written for
correctness first: arbitrary-precision ints, no floats, and round-trip
identities that are cheap to assert in tests.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import DomainError, InvalidActionError, ResourceLimitError
from .record import FrozenRecord


class IntMatrix:
    """Immutable integer matrix of plain Python ints; keeps its inverse once found."""

    __slots__ = ("rows", "cols", "entries", "_inverse")

    def __init__(self, entries, cols: int | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
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

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DomainError("matrix shape mismatch in product")
        ot = other.transpose().entries
        return IntMatrix(
            [[sum(map(mul, row, col)) for col in ot] for row in self.entries],
            cols=other.cols,
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("matrix shape mismatch in sum")
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in r] for r in self.entries], cols=self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def apply(self, vector) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vector) != self.cols:
            raise DomainError("vector length mismatch")
        return tuple(sum(map(mul, row, vector)) for row in self.entries)

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


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U @ m @ V = D, U and V unimodular, D diagonal
    with nonnegative entries d1 | d2 | ... .  U keeps its inverse, built
    alongside U by undoing each row operation on the columns of the identity.
    """
    a = [list(r) for r in m.entries]
    rows, cols = m.rows, m.cols
    u = [list(r) for r in IntMatrix.identity(rows).entries]
    v = [list(r) for r in IntMatrix.identity(cols).entries]
    wt = [list(r) for r in IntMatrix.identity(rows).entries]  # columns of U^-1

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        wt[i], wt[j] = wt[j], wt[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        wt[src] = [x - c * y for x, y in zip(wt[src], wt[dst])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        wt[i] = [-x for x in wt[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate a nonzero pivot of least magnitude in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            # clear column t
            done = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            # clear row t
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if not done:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    u = IntMatrix(u, cols=rows)
    object.__setattr__(u, "_inverse", IntMatrix.from_columns(wt, rows))
    return u, IntMatrix(a, cols=cols), IntMatrix(v, cols=cols)


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
    columns = []
    ident = IntMatrix.identity(rank)
    for m in mats:
        delta = m - ident
        columns.extend(delta.column(j) for j in range(rank))
    return IntMatrix.from_columns(columns, rank)


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
