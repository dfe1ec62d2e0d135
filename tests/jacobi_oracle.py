"""Exhaustive oracles for the Jacobi identity.

``verify_jacobi`` checks the identity on a generating set of the algebra.
The oracles here check it on every triple a < b < c of basis elements:

- ``verify_jacobi_exhaustive`` sums integer codes of the brackets in the
  table of ``chevalley._bracket_table``, one triple after another;
- ``verify_jacobi_by_brackets`` rebuilds every bracket of every triple
  through ``StructureConstants.bracket`` and ``bracket_elements``.

``bracket_table_by_brackets`` builds the basis bracket table of
``verify_jacobi`` through ``StructureConstants.bracket``, as it was built
before the root-sum table.  ``jacobi_sum`` and ``is_alternating_on``
check the one triple or pair that a failure message names.
"""

from foldlab.chevalley import _bracket_table
from foldlab.errors import InternalInconsistencyError


def bracket_table_by_brackets(sc):
    """Basis keys and br[a][b], the (index, coefficient) pairs with nonzero
    coefficient of the bracket of basis elements a and b."""
    d = sc.datum
    keys = [("r", i) for i in range(d.nroots)] + [("h", k) for k in range(d.rank)]
    index = {key: a for a, key in enumerate(keys)}
    br = [
        [tuple((index[k], x) for k, x in sc.bracket(ka, kb).items() if x) for kb in keys]
        for ka in keys
    ]
    return keys, br


def verify_jacobi_by_brackets(sc):
    """True, or the first failing triple as an InternalInconsistencyError."""
    d = sc.datum
    keys = [("r", i) for i in range(d.nroots)] + [("h", k) for k in range(d.rank)]
    m = len(keys)
    for a in range(m):
        for b in range(a + 1, m):
            ab = sc.bracket(keys[a], keys[b])
            for c in range(b + 1, m):
                total: dict = {}
                for term in (
                    sc.bracket_elements(ab, {keys[c]: 1}),
                    sc.bracket_elements(sc.bracket(keys[b], keys[c]), {keys[a]: 1}),
                    sc.bracket_elements(sc.bracket(keys[c], keys[a]), {keys[b]: 1}),
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
    is zero exactly when the sum is.
    """
    keys, br = _bracket_table(sc)
    m = len(keys)
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
        for k, v in sc.bracket_elements(sc.bracket(x, y), {z: 1}).items():
            total[k] = total.get(k, 0) + v
    return {k: v for k, v in total.items() if v}


def is_alternating_on(sc, key_a, key_b):
    """Whether [b, a] = -[a, b] on two basis keys."""
    ab, ba = sc.bracket(key_a, key_b), sc.bracket(key_b, key_a)
    return {k: -v for k, v in ab.items() if v} == {k: v for k, v in ba.items() if v}
