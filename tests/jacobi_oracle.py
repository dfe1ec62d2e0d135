"""Per-triple oracle for the Jacobi identity.

Rebuilds every bracket of every triple of basis elements through
``StructureConstants.bracket`` and ``bracket_elements`` and sums
[[a, b], c] + [[b, c], a] + [[c, a], b].  ``verify_jacobi`` instead sums
integer codes of brackets from a table built once per basis pair, so this
is an independent cross-check of the table path, over the same triples in
the same order.  ``bracket_table_by_brackets`` builds the basis bracket table
of ``verify_jacobi`` through ``StructureConstants.bracket``, as it was
built before the root-sum table.
"""

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
