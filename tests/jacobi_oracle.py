"""Exhaustive oracles for the Jacobi identity.

``verify_jacobi`` checks the identity on a generating set of the algebra.
The oracles here check it on every triple a < b < c of basis elements:

- ``verify_jacobi_exhaustive`` sums integer codes of the brackets in the
  table of ``chevalley._bracket_table``, one triple after another;
- ``verify_jacobi_by_brackets`` rebuilds every bracket of every triple
  through ``bracket`` and ``bracket_elements``.

``bracket`` brackets two basis elements by adding their coordinate tuples,
and ``bracket_elements`` extends it bilinearly.  ``bracket_table_by_brackets``
builds the sparse rows of ``verify_jacobi``'s bracket table through
``bracket``, from all pairs of keys, as it was built before the root-sum
table.  ``jacobi_sum`` and ``is_alternating_on``
check the one triple or pair that a failure message names.
"""

from foldlab.chevalley import _bracket_table
from foldlab.errors import InternalInconsistencyError


def bracket(sc, key_a, key_b) -> dict:
    """Bracket of basis elements; keys ('r', i) or ('h', k)."""
    d = sc.datum
    kind_a, a = key_a
    kind_b, b = key_b
    if kind_a == "h" and kind_b == "h":
        return {}
    if kind_a == "h" and kind_b == "r":
        return {key_b: d.roots[b][a]}
    if kind_a == "r" and kind_b == "h":
        return {key_a: -d.roots[a][b]}
    total = tuple(x + y for x, y in zip(d.roots[a], d.roots[b]))
    if all(x == 0 for x in total):
        return {("h", k): c for k, c in enumerate(d.coroots[a]) if c}
    if d.is_root(total):
        return {("r", d.root_index(total)): sc.table[(a, b)]}
    return {}


def bracket_elements(sc, ea: dict, eb: dict) -> dict:
    """Bracket of two elements given as {basis key: coefficient}."""
    out: dict = {}
    for ka, ca in ea.items():
        for kb, cb in eb.items():
            for k, c in bracket(sc, ka, kb).items():
                out[k] = out.get(k, 0) + ca * cb * c
    return {k: c for k, c in out.items() if c}


def bracket_table_by_brackets(sc):
    """Basis keys and the rows br[a], each a dict b -> the (index,
    coefficient) pairs with nonzero coefficient of the bracket of basis
    elements a and b, over the b where that bracket is nonzero."""
    d = sc.datum
    keys = [("r", i) for i in range(d.nroots)] + [("h", k) for k in range(d.rank)]
    index = {key: a for a, key in enumerate(keys)}
    br = []
    for ka in keys:
        row = {}
        for b, kb in enumerate(keys):
            if entry := tuple((index[k], x) for k, x in bracket(sc, ka, kb).items() if x):
                row[b] = entry
        br.append(row)
    return keys, br


def verify_jacobi_by_brackets(sc):
    """True, or the first failing triple as an InternalInconsistencyError."""
    d = sc.datum
    keys = [("r", i) for i in range(d.nroots)] + [("h", k) for k in range(d.rank)]
    m = len(keys)
    for a in range(m):
        for b in range(a + 1, m):
            ab = bracket(sc, keys[a], keys[b])
            for c in range(b + 1, m):
                total: dict = {}
                for term in (
                    bracket_elements(sc, ab, {keys[c]: 1}),
                    bracket_elements(sc, bracket(sc, keys[b], keys[c]), {keys[a]: 1}),
                    bracket_elements(sc, bracket(sc, keys[c], keys[a]), {keys[b]: 1}),
                ):
                    for k, v in term.items():
                        total[k] = total.get(k, 0) + v
                if any(total.values()):
                    raise InternalInconsistencyError(
                        f"Jacobi identity fails on {keys[a]}, {keys[b]}, {keys[c]}"
                    )
    return True


def verify_jacobi_exhaustive(sc):
    """True, or the first failing triple a < b < c as an
    InternalInconsistencyError.

    Each bracket of two basis elements is coded as the integer
    code[a][b] = sum y B^k over its terms (k, y), and every triple sums
    [[a, b], c] + [[b, c], a] + [[c, a], b] as sum x * code[i][z] over the
    terms (i, x) of each pair bracket.  With L the largest coefficient sum
    of a bracket and Y its largest coefficient, each coordinate of a Jacobi
    sum has size at most 3 L Y, so with B = 6 L Y + 1 the code of the sum
    is zero exactly when the sum is.  The sparse rows of ``_bracket_table``
    are spread into a dense m x m table first.
    """
    keys, rows = _bracket_table(sc)
    m = len(keys)
    br = [[row.get(b, ()) for b in range(m)] for row in rows]
    terms = [entry for row in br for entry in row if entry]
    largest_sum = max((sum(abs(x) for _, x in t) for t in terms), default=0)
    largest = max((abs(x) for t in terms for _, x in t), default=0)
    big = 6 * largest_sum * largest + 1
    powers = [big**k for k in range(m)]
    code = [[sum(y * powers[k] for k, y in entry) for entry in row] for row in br]
    code_t = [list(col) for col in zip(*code)]
    for a in range(m):
        row_a, code_a = br[a], code_t[a]
        col_a = [row[a] for row in br]
        for b in range(a + 1, m):
            ab = [(x, code[i]) for i, x in row_a[b]]
            row_b, code_b = br[b], code_t[b]
            for c in range(b + 1, m):
                bc = row_b[c]
                ca = col_a[c]
                if not (ab or bc or ca):
                    continue
                total = 0
                for x, code_i in ab:
                    total += x * code_i[c]
                for i, x in bc:
                    total += x * code_a[i]
                for i, x in ca:
                    total += x * code_b[i]
                if total:
                    raise InternalInconsistencyError(
                        f"Jacobi identity fails on {keys[a]}, {keys[b]}, {keys[c]}"
                    )
    return True


def jacobi_sum(sc, key_a, key_b, key_c):
    """[[a, b], c] + [[b, c], a] + [[c, a], b] on basis keys, with zero
    coefficients dropped."""
    total: dict = {}
    for x, y, z in ((key_a, key_b, key_c), (key_b, key_c, key_a), (key_c, key_a, key_b)):
        for k, v in bracket_elements(sc, bracket(sc, x, y), {z: 1}).items():
            total[k] = total.get(k, 0) + v
    return {k: v for k, v in total.items() if v}


def is_alternating_on(sc, key_a, key_b):
    """Whether [b, a] = -[a, b] on two basis keys."""
    ab, ba = bracket(sc, key_a, key_b), bracket(sc, key_b, key_a)
    return {k: -v for k, v in ab.items() if v} == {k: v for k, v in ba.items() if v}
