"""Root data with exact lattice coordinates.

A root datum is stored as a character lattice Z^rank, a list of roots
(coordinate tuples in a fixed basis of the lattice), a parallel list of
coroots (coordinates in the dual basis), and the positions of a base of
simple roots.  The pairing of a root with a coroot is the literal dot
product of their coordinate tuples.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import itemgetter, mul

from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .intlat import IntMatrix, _nonzero, _smith_invariants
from .record import FrozenRecord

WEYL_LIMIT_DEFAULT = 10**6


class CartanType(FrozenRecord):
    """Product of simple types, e.g. (('A', 2), ('A', 2)) for A2+A2."""

    components: tuple[tuple[str, int], ...]

    _RANK_RULES = {
        "A": lambda n: n >= 1,
        "B": lambda n: n >= 2,
        "C": lambda n: n >= 2,
        "D": lambda n: n >= 3,
        "E": lambda n: n in (6, 7, 8),
        "F": lambda n: n == 4,
        "G": lambda n: n == 2,
    }

    def __init__(self, components: tuple[tuple[str, int], ...]):
        for fam, n in components:
            rule = self._RANK_RULES.get(fam)
            if rule is None or not rule(n):
                raise DomainError(f"no simple type {fam}{n}")
        super().__init__(components)

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        parts = []
        for chunk in text.split("+"):
            chunk = chunk.strip()
            fam, digits = chunk[:1], chunk[1:].lstrip()
            # isdecimal accepts the Unicode decimal digits, each of which int() reads
            if fam not in cls._RANK_RULES or not digits.isdecimal():
                raise DomainError(f"cannot parse Cartan type {text!r}")
            try:
                parts.append((fam, int(digits)))
            except ValueError:  # past Python's limit on the digits of an int
                raise DomainError(
                    f"rank of {fam} in a Cartan type has {len(digits)} digits"
                ) from None
        return cls(tuple(parts))

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.components)

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic invariants, component by component."""
        return tuple(d for fam, n in self.components for d in _DEGREES[fam](n))

    @property
    def root_count(self) -> int:
        """W has sum(d_i - 1) reflections, one per positive root
        (Humphreys, Reflection Groups and Coxeter Groups, 3.9)."""
        return 2 * sum(d - 1 for d in self.degrees)

    @property
    def weyl_order(self) -> int:
        """|W| as the product of the degrees (Humphreys, Reflection Groups
        and Coxeter Groups, ch. 3); 1 for the empty type."""
        return math.prod(self.degrees)

    def __str__(self):
        return "+".join(f"{fam}{n}" for fam, n in self.components) or "torus"


_DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "C": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(range(2, 2 * n - 1, 2)) + (n,),
    "E": lambda n: {
        6: (2, 5, 6, 8, 9, 12),
        7: (2, 6, 8, 10, 12, 14, 18),
        8: (2, 8, 12, 14, 18, 20, 24, 30),
    }[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


def _simply_laced_edges(fam: str, n: int) -> list[tuple[int, int]]:
    if fam == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if fam == "D":
        # branch node convention: for D4 the branch is alpha_2 (index 1)
        chain = [(i, i + 1) for i in range(n - 3)]
        return chain + [(n - 3, n - 2), (n - 3, n - 1)]
    if fam == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5)]
        chain += [(4 + k, 5 + k) for k in range(1, n - 5)]
        return chain + [(1, 3)]
    raise DomainError(f"not simply laced: {fam}")


def cartan_matrix(fam: str, n: int) -> IntMatrix:
    """Cartan matrix with entry [i][j] = <alpha_j, alpha_i^vee>."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, down=1, up=1):
        # <alpha_j, alpha_i^vee> = -down, <alpha_i, alpha_j^vee> = -up
        a[i][j] = -down
        a[j][i] = -up

    if fam in ("A", "D", "E"):
        for i, j in _simply_laced_edges(fam, n):
            bond(i, j)
    elif fam == "B":
        # last simple root short: <alpha_{n-1}, alpha_n^vee> = -2
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, down=1, up=2)
    elif fam == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, down=2, up=1)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, down=1, up=2)  # alpha_3 short
        bond(2, 3)
    elif fam == "G":
        bond(0, 1, down=3, up=1)  # alpha_1 short
    else:
        raise DomainError(f"unknown family {fam}")
    return IntMatrix(a)


def cartan_matrix_product(ct: CartanType) -> IntMatrix:
    n, offset = ct.rank, 0
    a = [[0] * n for _ in range(n)]
    for fam, r in ct.components:
        for i, row in enumerate(cartan_matrix(fam, r).entries):
            a[offset + i][offset : offset + r] = row
        offset += r
    return IntMatrix(a, cols=n)


def _check_vectors(rank, roots, coroots):
    """Refuse roots and coroots that do not correspond one to one, a
    coordinate length other than rank, a zero root or <alpha, alpha^vee> != 2."""
    if len(roots) != len(coroots):
        raise DomainError("roots and coroots must correspond one to one")
    for r in roots:
        if len(r) != rank:
            raise DomainError("root coordinate length differs from rank")
        if not any(r):
            raise DomainError("zero vector listed as a root")
    for c in coroots:
        if len(c) != rank:
            raise DomainError("coroot coordinate length differs from rank")
    for r, c in zip(roots, coroots):
        if (n := sum(map(mul, r, c))) != 2:
            raise DomainError(f"<alpha, alpha^vee> = {n} != 2 at root {r}")


def _images(vectors, codes, at, dual, code_i) -> list:
    """For each vector v, given with its integer code, the index that ``at``
    gives to the code of v - <v, dual> x_i, or None: one sparse integer
    expression and one dict lookup.  ``dual`` holds the (index, entry) pairs
    of a dual vector, and code_i is the code of x_i."""
    return [at.get(x - sum(v[k] * y for k, y in dual) * code_i) for x, v in zip(codes, vectors)]


class RootDatum:
    """Root datum (lattice, roots, coroots, base).  Validates on build."""

    def __init__(self, rank, roots, coroots, basis_indices, reduced=True, validate=True):
        # the builder's vectors are tuples of ints already
        vector = (lambda v: tuple(map(int, v))) if validate else tuple
        self.rank = int(rank)
        self.roots = tuple(map(vector, roots))
        self.coroots = tuple(map(vector, coroots))
        self.basis_indices = tuple(basis_indices)
        self.reduced = bool(reduced)
        self._index = {r: i for i, r in enumerate(self.roots)}
        if len(self._index) != len(self.roots):
            raise DomainError("duplicate roots")
        self._simple_coords = None
        self._cartan = self._components = self._component_types = self._base_groups = None
        self._root_codes = self._negatives = self._root_sums = None
        if validate:
            self._validate()

    # -- basic queries -------------------------------------------------

    @property
    def nroots(self) -> int:
        return len(self.roots)

    @property
    def basis(self) -> tuple[tuple, ...]:
        return tuple(self.roots[i] for i in self.basis_indices)

    def root_index(self, vector) -> int:
        try:
            return self._index[tuple(vector)]
        except KeyError:
            raise DomainError(f"{vector} is not a root") from None

    def is_root(self, vector) -> bool:
        return tuple(vector) in self._index

    def pairing(self, root_index: int, coroot_index: int) -> int:
        return sum(a * b for a, b in zip(self.roots[root_index], self.coroots[coroot_index]))

    # -- validation ----------------------------------------------------

    def _validate(self):
        """Accept the datum exactly when the walk from its base gives it
        (``_walk_coordinates``), and take the walk's simple coordinates and
        Cartan recognition; a datum whose root count cannot match its
        base's type is not walked.  A valid datum with a valid base is its
        walk (SGA3 Exp. XXI), so any other datum fails one of the checks
        that follow, which name its first fault in this order: a reflection
        pair in index order, root side first; a doubled root of a reduced
        datum; a basis index; then, by one Smith form U B V = D of the base,
        a dependent base or, in index order, a root r that is no integer
        combination of the base (y = U r needs d_i | y_i for i < k and
        y_i = 0 beyond; its coordinates are V (y_i / d_i)) or of mixed sign.
        """
        _check_vectors(self.rank, self.roots, self.coroots)
        if len(set(self.coroots)) != len(self.coroots):
            raise DomainError("duplicate coroots")
        coords = None
        if all(0 <= i < self.nroots for i in self.basis_indices):
            cobase = [self.coroots[i] for i in self.basis_indices]
            try:
                based = _recognized_base(self.rank, self.basis, cobase)
            except DomainError:
                pass  # an infinite type or a dependent base, named below
            else:
                # the walk gives the roots of the base's type, to which a
                # nonreduced datum may add doubled roots
                n = CartanType(based[-1]).root_count
                if self.nroots == n or (self.nroots > n and not self.reduced):
                    walk = _walk(self.rank, *based)
                    coords = _walk_coordinates(self, walk)
        if coords is not None:
            self._simple_coords = coords
            self._cartan, self._base_groups = walk._cartan, walk._base_groups
            self._component_types = walk._component_types
            return
        coroot_set = set(self.coroots)
        for root, coroot in zip(self.roots, self.coroots):
            col, cocol = _nonzero(root), _nonzero(coroot)
            for x, y in zip(self.roots, self.coroots):
                # a zero pairing fixes the vector
                if (n := sum(x[q] * a for q, a in cocol)) and _minus(x, n, col) not in self._index:
                    raise DomainError(f"reflection of {x} along {root} leaves the root set")
                if (n := sum(y[q] * a for q, a in col)) and _minus(y, n, cocol) not in coroot_set:
                    raise DomainError(f"coreflection of {y} leaves the coroot set")
        if self.reduced:
            for r in self.roots:
                if tuple(2 * x for x in r) in self._index:
                    raise DomainError("datum marked reduced but contains a doubled root")
        for i in self.basis_indices:
            if not 0 <= i < self.nroots:
                raise DomainError("basis index out of range")
        k = len(self.basis_indices)
        u, diag, v = _smith_invariants(IntMatrix.from_columns(self.basis, self.rank))
        if len(diag) != k:
            raise DomainError("base of simple roots is linearly dependent")
        for r in self.roots:
            y = u.apply(r)
            if any(y[k:]) or any(yi % di for yi, di in zip(y, diag)):
                raise DomainError(f"root {r} is not an integer combination of the base")
            sol = v.apply(tuple(yi // di for yi, di in zip(y, diag)))
            if len({x > 0 for x in sol if x}) != 1:  # zero, or of mixed sign
                raise DomainError(f"root {r} is not uniformly signed over the base")
        raise InternalInconsistencyError(
            "a datum with a valid base differs from the datum its base builds"
        )

    # -- structure -----------------------------------------------------

    def simple_coordinates(self, root_index: int) -> tuple:
        return self._simple_coords[root_index]

    def is_positive(self, root_index: int) -> bool:
        return any(x > 0 for x in self._simple_coords[root_index])

    def positive_root_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.nroots) if self.is_positive(i))

    def height(self, root_index: int) -> int:
        return sum(self._simple_coords[root_index])

    def root_codes(self) -> tuple[int, ...]:
        """Each root coded as sum_k v_k B^k with B = 4m + 1, m the largest
        root coordinate size: additive, and injective on roots, zero and
        sums of two roots, whose coordinates have size at most 2m."""
        if self._root_codes is None:
            m = max((abs(x) for r in self.roots for x in r), default=0)
            powers = [(4 * m + 1) ** k for k in range(self.rank)]
            self._root_codes = tuple(sum(map(mul, r, powers)) for r in self.roots)
        return self._root_codes

    def negative_of(self, root_index: int) -> int:
        if self._negatives is None:
            where = {-code: i for i, code in enumerate(self.root_codes())}
            self._negatives = tuple(where.get(code) for code in self.root_codes())
        if self._negatives[root_index] is None:
            raise DomainError(f"{tuple(-x for x in self.roots[root_index])} is not a root")
        return self._negatives[root_index]

    def root_sums(self) -> tuple[dict[int, int], ...]:
        """Per root i, the map j -> k for each j with roots[i] + roots[j] =
        roots[k] (k = -1 for a zero sum); a missing j means no root.  The
        order of the keys in a row is not part of the contract.

        The first root of each orbit under the simple reflections gets its
        row directly, each sum one addition of root codes and one dict
        lookup.  A simple reflection s permutes the roots linearly, so row
        s(j) is row j moved by s: {s(b): s(k)}, with -1 kept."""
        if self._root_sums is None:
            codes = self.root_codes()
            where = {0: -1} | {code: i for i, code in enumerate(codes)}
            # a trailing -1 makes s[-1] = -1
            perms = [
                [*self.simple_reflection_permutation(p), -1] for p in range(len(self.basis_indices))
            ]
            rows = {}
            for start, a in enumerate(codes):
                if start in rows:
                    continue
                row = ((j, where.get(a + b)) for j, b in enumerate(codes))
                rows[start] = {j: k for j, k in row if k is not None}
                queue = [start]
                for j in queue:  # the queue grows as rows are moved
                    for s in perms:
                        if (i := s[j]) not in rows:
                            rows[i] = {s[b]: s[k] for b, k in rows[j].items()}
                            queue.append(i)
            self._root_sums = tuple(rows[i] for i in range(self.nroots))
        return self._root_sums

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Partition of root indices by irreducible component.

        Components are the connected pieces of the base under the Cartan
        pairing; each root joins the component carrying its support.
        """
        if self._components is None:
            self.component_types()
            supports = [{j for j, c in enumerate(v) if c} for v in self._simple_coords]
            self._components = tuple(
                tuple(i for i, s in enumerate(supports) if s and s <= group)
                for group in map(set, self._base_groups)
            )
        return self._components

    def component_types(self) -> tuple[tuple[str, int], ...]:
        """The (family, rank) of each component, in the order of
        ``components()``; recognized once per datum."""
        if self._component_types is None:
            self._base_groups, self._component_types = _cartan_components(self.base_cartan())
        return self._component_types

    def base_cartan(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix <alpha_q, alpha_p^vee> of the base, built once."""
        if self._cartan is None:
            base = self.basis_indices
            self._cartan = tuple(tuple(self.pairing(j, i) for j in base) for i in base)
        return self._cartan

    def simple_reflection_permutation(self, basis_position: int) -> tuple[int, ...]:
        """Permutation of root indices induced by reflecting along the
        basis_position-th simple root of a valid datum, read off the root
        codes: s(alpha_j) has the code of alpha_j - <alpha_j, alpha^vee> alpha."""
        codes, g = self.root_codes(), self.basis_indices[basis_position]
        where = {code: i for i, code in enumerate(codes)}
        return tuple(_images(self.roots, codes, where, _nonzero(self.coroots[g]), codes[g]))

    def weyl_group(self, limit: int = WEYL_LIMIT_DEFAULT) -> "WeylGroup":
        gens = [self.simple_reflection_permutation(p) for p in range(len(self.basis_indices))]
        return WeylGroup.generate(self.nroots, gens, limit=limit, name="the Weyl group W")


class WeylGroup:
    """Finite permutation group on the root list."""

    def __init__(self, elements):
        self.elements = tuple(elements)
        self.order = len(self.elements)

    @classmethod
    def generate(
        cls, degree: int, generators, limit: int = WEYL_LIMIT_DEFAULT, name: str = "a Weyl group"
    ) -> "WeylGroup":
        """Close the generators under composition; ``name`` says in the
        limit error what was being closed."""
        ident = tuple(range(degree))
        seen = {ident}
        frontier = [ident]
        gens = [tuple(g) for g in generators]
        # itemgetter(*g)(w) is w composed with g; on one index it would
        # return a scalar, and on no index it cannot be built
        compose = [
            itemgetter(*g) if degree > 1 else (lambda w, g=g: tuple(w[i] for i in g))
            for g in gens
        ]
        while frontier:
            new = []
            for w in frontier:
                for g in compose:
                    wg = g(w)
                    if wg not in seen:
                        if len(seen) >= limit:
                            raise ResourceLimitError(f"closing {name} exceeded {limit} elements")
                        seen.add(wg)
                        new.append(wg)
            frontier = new
        return cls(sorted(seen))


def build_torus(rank: int) -> RootDatum:
    """Root datum of a torus: a lattice with no roots."""
    if rank < 0:
        raise DomainError("torus rank must be nonnegative")
    return _build_based(rank, [], [])


def build_preset(cartan_type, isogeny: str = "sc") -> RootDatum:
    """Construct the simply connected or adjoint datum of a Cartan type.

    sc: character lattice = weight lattice (basis: fundamental weights),
    simple roots C e_i for C the Cartan matrix, simple coroots e_i;
    adjoint: character lattice = root lattice (basis: simple roots),
    simple roots e_i, simple coroots C^T e_i.
    """
    ct = cartan_type if isinstance(cartan_type, CartanType) else CartanType.parse(cartan_type)
    if isogeny not in ("sc", "adjoint"):
        raise DomainError(f"unknown isogeny {isogeny!r}; expected 'sc' or 'adjoint'")
    c = cartan_matrix_product(ct).entries
    units = IntMatrix.identity(ct.rank).entries
    if isogeny == "sc":
        return _build_based(ct.rank, zip(*c), units)
    return _build_based(ct.rank, units, c)


def _minus(vector, c, column) -> tuple:
    """vector - c column, for a column given by its (index, entry) pairs."""
    out = list(vector)
    for q, x in column:
        out[q] -= c * x
    return tuple(out)


def _recognized_base(rank, simple_roots, simple_coroots) -> tuple:
    """The simple roots alpha_i and coroots alpha_i^vee as tuples, their
    Cartan matrix C[i][j] = <alpha_j, alpha_i^vee>, and C's components
    with their types (``_cartan_components``).

    It checks the vectors and that C is of finite type. A finite-type
    C = B^vee^T B (B, B^vee the matrices of the simple roots and coroots)
    is nonsingular, so the base is then independent; a refused C is first
    tested for a dependent base.
    """
    base = [tuple(map(int, r)) for r in simple_roots]
    cobase = [tuple(map(int, c)) for c in simple_coroots]
    _check_vectors(rank, base, cobase)
    cartan = tuple(
        tuple(sum(r[q] * y for q, y in coroot) for r in base) for coroot in map(_nonzero, cobase)
    )
    try:
        groups, types = _cartan_components(cartan)
    except DomainError:
        if IntMatrix.from_columns(base, rank).rank() < len(base):
            raise DomainError("base of simple roots is linearly dependent") from None
        raise
    return base, cobase, cartan, groups, types


def _build_based(rank, simple_roots, simple_coroots) -> RootDatum:
    """The root datum in Z^rank of simple roots and coroots whose Cartan
    matrix is of finite type (``_recognized_base``), which determines it
    (SGA3 Exp. XXI; Springer, Linear Algebraic Groups, 7.4)."""
    return _walk(rank, *_recognized_base(rank, simple_roots, simple_coroots))


def _walk(rank, base, cobase, cartan, groups, types) -> RootDatum:
    """The roots and coroots that the simple reflections reach from a
    recognized base (``_recognized_base``), sorted by simple coordinates.

    The walk reflects in simple coordinates: s_i sends v to v - c e_i,
    c = (C v)_i, the root x to x - c alpha_i, its coroot y to
    y - <alpha_i, y> alpha_i^vee and C v to C v - c C e_i, each one sparse
    column update. The roots of a finite type are reduced and uniformly
    signed over the base, so the datum keeps the walk's coordinates and is
    not validated again.
    """
    cols, cocols = list(map(_nonzero, base)), list(map(_nonzero, cobase))
    cartan_cols = list(map(_nonzero, zip(*cartan)))
    units = IntMatrix.identity(len(base)).entries
    # simple coordinates v -> (root, coroot, C v)
    found = {e: (r, c, col) for e, r, c, col in zip(units, base, cobase, zip(*cartan))}
    queue = list(units)
    for v in queue:  # the queue grows as roots are found
        x, y, cv = found[v]
        for i in compress(range(len(v)), cv):
            c = cv[i]
            if (rv := v[:i] + (v[i] - c,) + v[i + 1 :]) not in found:
                d = sum(y[q] * a for q, a in cols[i])
                found[rv] = (
                    _minus(x, c, cols[i]), _minus(y, d, cocols[i]), _minus(cv, c, cartan_cols[i])
                )
                queue.append(rv)
    coords = sorted(found)
    where = {v: k for k, v in enumerate(coords)}
    roots, coroots = [found[v][0] for v in coords], [found[v][1] for v in coords]
    datum = RootDatum(rank, roots, coroots, [where[e] for e in units], validate=False)
    datum._simple_coords = tuple(coords)
    datum._cartan, datum._base_groups, datum._component_types = cartan, groups, types
    return datum


def _walk_coordinates(datum: RootDatum, walk: RootDatum) -> tuple | None:
    """The simple coordinates of the roots of datum when its (root, coroot)
    pairs are those of the walk from its base, together, in a datum not
    marked reduced, with doubled roots 2 alpha of coroot alpha^vee / 2 whose
    halves the base reflections permute; None otherwise."""
    at, coords, halves = walk._index, [], set()
    for r, c in zip(datum.roots, datum.coroots):
        if (k := at.get(r)) is not None:
            if walk.coroots[k] != c:
                return None
            coords.append(walk._simple_coords[k])
            continue
        k = at.get(tuple(x // 2 for x in r))
        if (
            datum.reduced
            or k is None
            or tuple(2 * x for x in walk.roots[k]) != r
            or tuple(2 * y for y in c) != walk.coroots[k]
        ):
            return None
        coords.append(tuple(2 * x for x in walk._simple_coords[k]))
        halves.add(k)
    if len(coords) - len(halves) != walk.nroots:  # a root of the walk is missing
        return None
    perms = map(walk.simple_reflection_permutation, range(len(walk.basis_indices)))
    if halves and any(s[k] not in halves for s in perms for k in halves):
        return None
    return tuple(coords)


# -- type recognition ---------------------------------------------------


def _cartan_components(a) -> tuple[tuple, tuple]:
    """The connected components of a Cartan matrix a[i][j] = <alpha_j,
    alpha_i^vee> with 2 on its diagonal: their positions, by smallest
    position, and their (family, rank), rank-2 double bonds as C2. Raises
    DomainError unless a is of finite type: nonpositive off the diagonal,
    a[i][j] = 0 exactly when a[j][i] = 0, and each component a tree with
    bond weights a[i][j] a[j][i] of 1, 2 or 3 in the shape of a Dynkin
    diagram."""
    k = len(a)
    adj, bonds = [[] for _ in range(k)], {}
    for i in range(k):
        for j in range(i + 1, k):
            x, y = a[i][j], a[j][i]
            if x > 0 or y > 0 or (x == 0) != (y == 0):
                raise DomainError(
                    f"Cartan matrix is not of finite type: <alpha_{j}, alpha_{i}^vee> = {x}"
                    f" and <alpha_{i}, alpha_{j}^vee> = {y}"
                )
            if x:
                adj[i].append(j)
                adj[j].append(i)
                bonds[i, j] = bonds[j, i] = x * y
    groups, types, seen = [], [], set()
    for start in range(k):
        if start not in seen:
            comp = [start]
            seen.add(start)
            for i in comp:  # the component grows as nodes are reached
                comp += [j for j in adj[i] if j not in seen]
                seen.update(adj[i])
            groups.append(tuple(sorted(comp)))
            types.append(_component_type(a, groups[-1], adj, bonds))
            if isinstance(types[-1], str):
                nodes = ", ".join(map(str, groups[-1]))
                raise DomainError(
                    f"Cartan matrix is not of finite type: {types[-1]} on simple roots {nodes}"
                )
    return tuple(groups), tuple(types)


def _component_type(a, comp, adj, bonds) -> tuple[str, int] | str:
    """The (family, rank) of the connected component comp of the Cartan
    matrix a, given its neighbour lists and bond weights; for a component
    of infinite type, the name of its shape."""
    n = len(comp)
    weights = sorted(bonds[i, j] for i in comp for j in adj[i] if i < j)
    if len(weights) != n - 1:
        return "a cycle"
    if n == 1:
        return ("A", 1)
    if weights[-1] > 3:
        return f"a bond of weight {weights[-1]}"
    if 3 in weights:
        return ("G", 2) if n == 2 else "a triple bond past rank 2"
    degrees = sorted(len(adj[i]) for i in comp)
    if 2 in weights:
        if weights.count(2) != 1 or degrees[-1] > 2:
            return "a doubly laced diagram with a branch or two double bonds"
        if n == 2:
            return ("C", 2)  # B2 and C2 coincide; normalized to C2
        edge = next(edge for edge, w in bonds.items() if w == 2 and edge[0] in comp)
        i, j = sorted(edge, key=lambda x: len(adj[x]))  # an end node first
        if len(adj[i]) == 1:
            # the end node i is short, and then the only short node (B),
            # exactly when its coroot pairs to -2 with its neighbour's root
            return ("B", n) if a[i][j] == -2 else ("C", n)
        return ("F", 4) if n == 4 else "an interior double bond outside F4"
    # simply laced
    if degrees[-1] <= 2:
        return ("A", n)
    if degrees[-2] > 2 or degrees[-1] > 3:
        return "a simply laced diagram with two branches"
    # the arms are paths from the hub, each as long as the depth of its end
    hub = next(i for i in comp if len(adj[i]) == 3)
    depth, queue = {hub: 0}, [hub]
    for i in queue:  # the queue grows as nodes are reached
        new = [j for j in adj[i] if j not in depth]
        depth.update((j, depth[i] + 1) for j in new)
        queue += new
    arms = sorted(depth[i] for i in comp if len(adj[i]) == 1)
    if arms[:2] == [1, 1]:
        return ("D", n)
    if arms[:2] == [1, 2] and n in (6, 7, 8):
        return ("E", n)
    return f"a branch with arms {arms[0]}, {arms[1]} and {arms[2]}"


def cartan_type_of(datum: RootDatum) -> CartanType:
    """Recognize the Cartan type of a datum from its roots.

    Rank-2 double-bond components normalize to C2 and rank-3 D to A3.
    """
    return CartanType(tuple(sorted(datum.component_types())))
