"""Tuple-based oracles for datum validation, root generation and the
unimodular inverse.

``validate_by_tuples`` checks reflection stability by building the image
tuple of every (root, root) pair and looking it up among the roots and the
coroots.  ``RootDatum._validate`` instead encodes every vector as one
integer and checks each image by one integer expression, so this is an
independent cross-check of the encoding, with the same checks, messages and
order; it checks every reflection directly and solves every root for its
simple coordinates, where the datum checks the base reflections and carries
stability and coordinates along the orbits they reach.
``generate_pairs_by_tuples`` closes the simple (root, coroot) pairs under
every simple reflection by rebuilding both tuples, where
``rootdata._generate_root_coroot_pairs`` skips reflections that fix a root
and changes one coordinate.  ``inverse_by_adjugate`` forms the inverse
from n^2 cofactor determinants, each a fraction-free ``bareiss_det``;
``IntMatrix.inverse_unimodular`` reads it off the Smith form.
"""

from foldlab.errors import DomainError
from foldlab.intlat import IntMatrix


def validate_by_tuples(datum):
    """Every check of ``RootDatum._validate`` on a datum built with
    ``validate=False``; the final base check is the datum's own, given no
    carried coordinates, so it solves every root by the Smith form."""
    if len(datum.roots) != len(datum.coroots):
        raise DomainError("roots and coroots must correspond one to one")
    for r in datum.roots:
        if len(r) != datum.rank:
            raise DomainError("root coordinate length differs from rank")
        if all(x == 0 for x in r):
            raise DomainError("zero vector listed as a root")
    for c in datum.coroots:
        if len(c) != datum.rank:
            raise DomainError("coroot coordinate length differs from rank")
    pairs = [
        [sum(a * b for a, b in zip(r, c)) for c in datum.coroots] for r in datum.roots
    ]
    for i in range(datum.nroots):
        if pairs[i][i] != 2:
            raise DomainError(
                f"<alpha, alpha^vee> = {pairs[i][i]} != 2 at root {datum.roots[i]}"
            )
    coroot_set = set(datum.coroots)
    if len(coroot_set) != len(datum.coroots):
        raise DomainError("duplicate coroots")
    for i in range(datum.nroots):
        for j in range(datum.nroots):
            n = pairs[j][i]
            image = tuple(x - n * y for x, y in zip(datum.roots[j], datum.roots[i]))
            if not datum.is_root(image):
                raise DomainError(
                    f"reflection of {datum.roots[j]} along {datum.roots[i]} leaves the root set"
                )
            m = pairs[i][j]
            coimage = tuple(x - m * y for x, y in zip(datum.coroots[j], datum.coroots[i]))
            if coimage not in coroot_set:
                raise DomainError(
                    f"coreflection of {datum.coroots[j]} leaves the coroot set"
                )
    if datum.reduced:
        for r in datum.roots:
            if datum.is_root(tuple(2 * x for x in r)):
                raise DomainError("datum marked reduced but contains a doubled root")
    for i in datum.basis_indices:
        if not 0 <= i < datum.nroots:
            raise DomainError("basis index out of range")
    datum._compute_simple_coords({})


def generate_pairs_by_tuples(cartan: IntMatrix) -> list[tuple[tuple, tuple, tuple]]:
    """Sorted (root, coroot, C root) triples, root and coroot in simple
    coordinates, from every simple reflection of every pair found; C root is
    a dense product with the Cartan matrix C."""
    n = cartan.rows
    ct = cartan.transpose()
    pairs = {}
    frontier = []
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        pairs[e] = e
        frontier.append(e)
    while frontier:
        new = []
        for v in frontier:
            w = pairs[v]
            cv = cartan.apply(v)
            cw = ct.apply(w)
            for i in range(n):
                rv = tuple(x - (cv[i] if k == i else 0) for k, x in enumerate(v))
                rw = tuple(x - (cw[i] if k == i else 0) for k, x in enumerate(w))
                if rv not in pairs:
                    pairs[rv] = rw
                    new.append(rv)
        frontier = new
    return sorted(
        (v, w, tuple(sum(a * b for a, b in zip(row, v)) for row in cartan.entries))
        for v, w in pairs.items()
    )


def bareiss_det(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise DomainError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse_by_adjugate(m: IntMatrix) -> IntMatrix:
    """Exact inverse as the adjugate times det = +/-1."""
    if m.rows != m.cols:
        raise DomainError("inverse of non-square matrix")
    d = bareiss_det(m)
    if abs(d) != 1:
        raise DomainError("inverse requested for non-unimodular matrix")
    n = m.rows
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r, c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = bareiss_det(IntMatrix(minor, cols=n - 1)) if n > 1 else 1
            adj[j][i] = (-1) ** (i + j) * cof
    return IntMatrix([[a * d for a in row] for row in adj], cols=n)
