"""Root data with exact lattice coordinates.

A root datum is stored as a character lattice Z^rank, a list of roots
(coordinate tuples in a fixed basis of the lattice), a parallel list of
coroots (coordinates in the dual basis), and the positions of a base of
simple roots.  The pairing of a root with a coroot is the literal dot
product of their coordinate tuples.
"""

from __future__ import annotations

import math
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
    n = ct.rank
    a = [[0] * n for _ in range(n)]
    offset = 0
    for fam, r in ct.components:
        block = cartan_matrix(fam, r)
        for i in range(r):
            for j in range(r):
                a[offset + i][offset + j] = block[i, j]
        offset += r
    return IntMatrix(a, cols=n)


def _generate_root_coroot_pairs(cartan: IntMatrix) -> list[tuple[tuple, tuple, tuple]]:
    """Close the simple (root, coroot) pairs under simple reflections.

    Roots carry coordinates in the simple-root basis, coroots in the
    simple-coroot basis; the reflection s_i acts on both sides at once.
    s_i changes only coordinate i, and fixes v when <v, alpha_i^vee> = 0.
    Returns the sorted triples (root v, coroot, C v), C the Cartan matrix.
    """
    n = cartan.rows
    ct = cartan.transpose()
    pairs, products = {}, {}
    frontier = []
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        pairs[e] = e
        frontier.append(e)
    while frontier:
        new = []
        for v in frontier:
            w = pairs[v]
            cw = ct.apply(w)
            products[v] = cartan.apply(v)
            for i, c in enumerate(products[v]):
                if not c:
                    continue
                rv = v[:i] + (v[i] - c,) + v[i + 1 :]
                if rv not in pairs:
                    pairs[rv] = w[:i] + (w[i] - cw[i],) + w[i + 1 :]
                    new.append(rv)
        frontier = new
    return sorted((v, w, products[v]) for v, w in pairs.items())


def _images(vectors, codes, at, dual, code_i) -> list:
    """For each vector v, given with its integer code, the index that ``at``
    gives to the code of v - <v, dual> x_i, or None: one sparse integer
    expression and one dict lookup.  ``dual`` holds the (index, entry) pairs
    of a dual vector, and code_i is the code of x_i."""
    return [at.get(x - sum(v[k] * y for k, y in dual) * code_i) for x, v in zip(codes, vectors)]


class RootDatum:
    """Root datum (lattice, roots, coroots, base).  Validates on build."""

    def __init__(self, rank, roots, coroots, basis_indices, reduced=True, validate=True):
        self.rank = int(rank)
        self.roots = tuple(tuple(int(x) for x in r) for r in roots)
        self.coroots = tuple(tuple(int(x) for x in c) for c in coroots)
        self.basis_indices = tuple(basis_indices)
        self.reduced = bool(reduced)
        self._index = {r: i for i, r in enumerate(self.roots)}
        if len(self._index) != len(self.roots):
            raise DomainError("duplicate roots")
        self._simple_coords = None
        self._components = self._component_types = None
        self._root_codes = self._negatives = None
        self._root_sums = None
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
        if len(self.roots) != len(self.coroots):
            raise DomainError("roots and coroots must correspond one to one")
        for r in self.roots:
            if len(r) != self.rank:
                raise DomainError("root coordinate length differs from rank")
            if all(x == 0 for x in r):
                raise DomainError("zero vector listed as a root")
        for c in self.coroots:
            if len(c) != self.rank:
                raise DomainError("coroot coordinate length differs from rank")
        for r, c in zip(self.roots, self.coroots):
            n = sum(map(mul, r, c))
            if n != 2:
                raise DomainError(f"<alpha, alpha^vee> = {n} != 2 at root {r}")
        if len(set(self.coroots)) != len(self.coroots):
            raise DomainError("duplicate coroots")
        codes = self._reflection_codes()
        try:
            reached = self._check_reflections(codes)
        except DomainError:
            # name the first failing pair in index order, as a scan of all
            # pairs would
            for i in range(self.nroots):
                self._reflection_images(i, codes)
            raise
        if self.reduced:
            for r in self.roots:
                if tuple(2 * x for x in r) in self._index:
                    raise DomainError("datum marked reduced but contains a doubled root")
        for i in self.basis_indices:
            if not 0 <= i < self.nroots:
                raise DomainError("basis index out of range")
        self._compute_simple_coords(reached)

    def _reflection_codes(self):
        """Integer codes code(v) = sum_k v_k B^k of the roots and coroots,
        and the index of each code on either side.

        With m the largest coordinate size of a root or coroot, every
        pairing has size at most rank m^2, so every root, coroot and image
        x - n y has coordinates of size at most m (1 + rank m^2);
        B = 2 m (1 + rank m^2) + 1 makes the code injective on all of them,
        and code(x - n y) = code(x) - n code(y) by linearity.
        """
        m = max((abs(x) for v in self.roots + self.coroots for x in v), default=0)
        big = 2 * m * (1 + self.rank * m * m) + 1
        # a torus has no roots to code, whatever its rank
        powers = [big**k for k in range(self.rank if self.roots else 0)]
        root_codes = [sum(map(mul, r, powers)) for r in self.roots]
        coroot_codes = [sum(map(mul, c, powers)) for c in self.coroots]
        root_at = {code: j for j, code in enumerate(root_codes)}
        coroot_at = {code: j for j, code in enumerate(coroot_codes)}
        return root_codes, coroot_codes, root_at, coroot_at

    def _reflection_images(self, i: int, codes) -> tuple[list, list]:
        """Indices of s_i(alpha_j) and s_i^vee(alpha_j^vee) for every j,
        each one sparse integer expression and one dict lookup.  Raises for
        the first j, root side before coroot side, whose image leaves its set."""
        root_codes, coroot_codes, root_at, coroot_at = codes
        root, coroot = _nonzero(self.roots[i]), _nonzero(self.coroots[i])
        images = _images(self.roots, root_codes, root_at, coroot, root_codes[i])
        coimages = _images(self.coroots, coroot_codes, coroot_at, root, coroot_codes[i])
        if None in images or None in coimages:
            for j in range(self.nroots):
                if images[j] is None:
                    raise DomainError(
                        f"reflection of {self.roots[j]} along {self.roots[i]} leaves the root set"
                    )
                if coimages[j] is None:
                    raise DomainError(
                        f"coreflection of {self.coroots[j]} leaves the coroot set"
                    )
        return images, coimages

    def _check_reflections(self, codes) -> dict[int, tuple]:
        """Reflection stability of the roots and coroots: checked directly
        for the base roots, carried along the roots they reach, and checked
        directly for every root left over.  Returns the simple coordinates
        of the roots reached.

        If s_g is stable for a base root g, s_j is stable, s_g(alpha_j) =
        alpha_k and s_g^vee(alpha_j^vee) = alpha_k^vee, then s_k = s_g s_j s_g
        on X and on X^vee, so s_k is stable too, and c(alpha_k) = c(alpha_j)
        - <alpha_j, alpha_g^vee> e_p for g at base position p.  Roots the
        base does not reach this way (the doubled roots of a nonreduced
        datum, or every root under a bad base) are checked directly.
        """
        # a repeated base root makes the base dependent, refused later
        base = {g: p for p, g in enumerate(self.basis_indices) if 0 <= g < self.nroots}
        gens = [
            (p, _nonzero(self.coroots[g]), *self._reflection_images(g, codes))
            for g, p in base.items()
        ]
        units = IntMatrix.identity(len(self.basis_indices)).entries
        reached = {g: units[p] for g, p in base.items()}
        queue = list(base)
        for j in queue:  # the queue grows as roots are reached
            for p, coroot, images, coimages in gens:
                i = images[j]
                if i == coimages[j] and i not in reached:
                    c, n = reached[j], sum(self.roots[j][q] * x for q, x in coroot)
                    reached[i] = c[:p] + (c[p] - n,) + c[p + 1 :]
                    queue.append(i)
        for i in range(self.nroots):
            if i not in reached:
                self._reflection_images(i, codes)
        return reached

    def _compute_simple_coords(self, reached: dict[int, tuple]):
        """Take the coordinates of the roots that ``reached`` maps, solve
        every other root as an integer combination of the base, and check
        each combination is uniformly signed.

        With the Smith form U B V = D of the base matrix B, the base is
        independent when its k invariants d_i are nonzero; a root r lies in
        the span of the base exactly when y = U r has d_i | y_i for i < k
        and y_i = 0 beyond, and its coordinates are then V (y_i / d_i).
        """
        base = [self.roots[i] for i in self.basis_indices]
        k = len(base)
        u, diag, v = _smith_invariants(IntMatrix.from_columns(base, self.rank))
        if len(diag) != k:
            raise DomainError("base of simple roots is linearly dependent")
        coords = []
        for i, r in enumerate(self.roots):
            sol = reached.get(i)
            if sol is None:
                y = u.apply(r)
                if any(y[k:]) or any(yi % di for yi, di in zip(y, diag)):
                    raise DomainError(
                        f"root {r} is not an integer combination of the base"
                    )
                sol = v.apply(tuple(yi // di for yi, di in zip(y, diag)))
            if len({x > 0 for x in sol if x}) != 1:  # zero, or of mixed sign
                raise DomainError(f"root {r} is not uniformly signed over the base")
            coords.append(sol)
        self._simple_coords = tuple(coords)

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
        if self._components is not None:
            return self._components
        k = len(self.basis_indices)
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in range(k):
            for b in range(a + 1, k):
                if self.pairing(self.basis_indices[a], self.basis_indices[b]) != 0:
                    parent[find(a)] = find(b)
        groups: dict[int, list[int]] = {}
        for a in range(k):
            groups.setdefault(find(a), []).append(a)
        comps = []
        for members in sorted(groups.values()):
            support = set(members)
            idxs = [
                i
                for i in range(self.nroots)
                if {j for j, c in enumerate(self._simple_coords[i]) if c} <= support
                and any(self._simple_coords[i])
            ]
            comps.append(tuple(idxs))
        self._components = tuple(comps)
        return self._components

    def component_types(self) -> tuple[tuple[str, int], ...]:
        """The (family, rank) of each component, in the order of
        ``components()``; recognized once per datum."""
        if self._component_types is None:
            self._component_types = tuple(_component_type(self, c) for c in self.components())
        return self._component_types

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
    return RootDatum(rank, [], [], [], reduced=True)


def build_preset(cartan_type, isogeny: str = "sc") -> RootDatum:
    """Construct the simply connected or adjoint datum of a Cartan type.

    sc: character lattice = weight lattice (basis: fundamental weights);
    adjoint: character lattice = root lattice (basis: simple roots).
    """
    ct = cartan_type if isinstance(cartan_type, CartanType) else CartanType.parse(cartan_type)
    if isogeny not in ("sc", "adjoint"):
        raise DomainError(f"unknown isogeny {isogeny!r}; expected 'sc' or 'adjoint'")
    c = cartan_matrix_product(ct)
    ctr = c.transpose()
    n = ct.rank
    roots, coroots = [], []
    for v, w, cv in _generate_root_coroot_pairs(c):
        if isogeny == "sc":
            roots.append(cv)
            coroots.append(w)
        else:
            roots.append(v)
            coroots.append(ctr.apply(w))
    units = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    simple = [c.apply(e) for e in units] if isogeny == "sc" else units
    return RootDatum(n, roots, coroots, basis_indices=[roots.index(s) for s in simple])


# -- type recognition ---------------------------------------------------


def _component_type(datum: RootDatum, comp: tuple[int, ...]) -> tuple[str, int]:
    members = set(comp)
    idx = [i for i in datum.basis_indices if i in members]
    n = len(idx)
    if n == 1:
        return ("A", 1)
    pair = {}
    for a in range(n):
        for b in range(n):
            if a != b:
                pair[a, b] = datum.pairing(idx[b], idx[a])  # <alpha_b, alpha_a^vee>
    adj = {a: [] for a in range(n)}
    bonds = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = pair[a, b] * pair[b, a]
            if w:
                adj[a].append(b)
                adj[b].append(a)
                bonds[a, b] = bonds[b, a] = w
    # connected tree expected; classify by bond weights and shape
    weights = sorted(bonds[a, b] for a in range(n) for b in adj[a] if a < b)
    if any(w > 3 for w in weights):
        raise InternalInconsistencyError("bond weight exceeds 3 in a finite type")
    if 3 in weights:
        if n != 2:
            raise InternalInconsistencyError("triple bond outside rank 2")
        return ("G", 2)
    if 2 in weights:
        if weights.count(2) != 1:
            raise InternalInconsistencyError("multiple double bonds in one component")
        degrees = sorted(len(adj[a]) for a in range(n))
        if degrees[-1] > 2:
            raise InternalInconsistencyError("branch node in a doubly laced component")
        if n == 2:
            return ("C", 2)  # B2 and C2 coincide; normalized to C2
        a, b = next(edge for edge, w in bonds.items() if w == 2)
        if len(adj[a]) != 1:
            a, b = b, a
        if len(adj[a]) == 1:
            # the end node a is short, and then the only short node (B),
            # exactly when its coroot pairs to -2 with its neighbour's root
            return ("B", n) if pair[a, b] == -2 else ("C", n)
        if n == 4:
            return ("F", 4)
        raise InternalInconsistencyError("interior double bond outside F4")
    # simply laced
    degrees = [len(adj[a]) for a in range(n)]
    if max(degrees) <= 2:
        return ("A", n)
    if degrees.count(3) != 1 or max(degrees) > 3:
        raise InternalInconsistencyError("unrecognized simply laced shape")
    hub = degrees.index(3)
    arms = []
    for start in adj[hub]:
        length, prev, cur = 1, hub, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return ("D", n)
    if arms[0] == 1 and arms[1] == 2 and n in (6, 7, 8):
        return ("E", n)
    raise InternalInconsistencyError("unrecognized branched shape")


def cartan_type_of(datum: RootDatum) -> CartanType:
    """Recognize the Cartan type of a datum from its roots.

    Rank-2 double-bond components normalize to C2 and rank-3 D to A3.
    """
    comps = datum.component_types()
    return CartanType(tuple(sorted(("A", 3) if t == ("D", 3) else t for t in comps)))
