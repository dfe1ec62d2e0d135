"""Tuple-based oracles for the structure constants.

These are ``chain_length``, ``base_constants``, ``rescale`` and
``automorphism_constants`` as they were written before the root-sum table:
each root sum or difference is built as a coordinate tuple and looked up
among the roots.  Production reads ``RootDatum.root_sums`` instead, so
these are an independent cross-check of the table path, with the same
checks, messages and order.  ``root_sums_by_tuples`` builds every root
sum the same way, as a dense table for the sparse rows of ``root_sums`` to
be compared with.  The constants are ``Fraction`` throughout, and
``squared_lengths_by_fractions`` sums the length form term by term in
``Fraction``, as production did before it moved to integers.
``special_pairs_by_scan`` finds the special pairs of each positive root by
scanning every positive root before it, as production did before it read
them off the root-sum rows.

Production keeps a table of constants as per-root rows, table[i] = {j:
N(i, j)}; ``flat_table`` gives the {(i, j): N(i, j)} view that the oracles
work in and tests compare entry by entry, and ``table_rows`` turns that
view back into rows, so that an oracle's system can stand in for
production's.
"""

from fractions import Fraction

from foldlab.chevalley import StructureConstants
from foldlab.errors import DomainError, InternalInconsistencyError


def flat_table(table):
    """The per-root rows of a table of constants as one {(i, j): N(i, j)}
    dict, row by row."""
    return {(i, j): v for i, row in enumerate(table) for j, v in row.items()}


def table_rows(flat, nroots):
    """A {(i, j): N(i, j)} table as per-root rows, one for each root."""
    rows = [{} for _ in range(nroots)]
    for (i, j), v in flat.items():
        rows[i][j] = v
    return rows


def positive_order(datum):
    """The positive roots sorted by (height, simple coordinates), and that
    key of each, in the same order."""
    pos = sorted(
        datum.positive_root_indices(),
        key=lambda i: (datum.height(i), datum.simple_coordinates(i)),
    )
    return pos, {i: (datum.height(i), datum.simple_coordinates(i)) for i in pos}


def root_sums_by_tuples(datum, rows=None):
    """sums[i][j]: index of roots[i] + roots[j], -1 if zero, else None; only
    the rows i in ``rows`` when it is given."""
    out = []
    for r in (datum.roots if rows is None else [datum.roots[i] for i in rows]):
        row = []
        for s in datum.roots:
            v = tuple(a + b for a, b in zip(r, s))
            if not any(v):
                row.append(-1)
            else:
                row.append(datum.root_index(v) if datum.is_root(v) else None)
        out.append(tuple(row))
    return tuple(out)


def special_pairs_by_scan(datum, pos, order_key):
    """For each positive root c, the pairs (a, b) of positive roots with
    a + b = c and a before b in the order, listed by a."""
    sums = datum.root_sums()
    pos_set = set(pos)
    neg = {a: datum.negative_of(a) for a in pos}
    out = {}
    for c in pos:
        row = sums[c]
        pairs = []
        for a in pos:
            if order_key[a] >= order_key[c]:
                break
            b = row.get(neg[a])
            if b in pos_set and order_key[a] < order_key[b]:
                pairs.append((a, b))
        out[c] = pairs
    return out


def squared_lengths_by_fractions(datum):
    """W-invariant squared lengths, normalized to 2 on the first simple
    root of each component."""
    k = len(datum.basis_indices)
    cartan = [
        [datum.pairing(datum.basis_indices[j], datum.basis_indices[i]) for j in range(k)]
        for i in range(k)
    ]
    d = [None] * k
    for start in range(k):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            a = stack.pop()
            for b in range(k):
                if a != b and cartan[a][b] and d[b] is None:
                    d[b] = d[a] * cartan[a][b] / cartan[b][a]
                    stack.append(b)
    out = []
    for idx in range(datum.nroots):
        c = datum.simple_coordinates(idx)
        total = Fraction(0)
        for i in range(k):
            if not c[i]:
                continue
            for j in range(k):
                if c[j]:
                    total += c[i] * c[j] * d[i] * cartan[i][j]
        out.append(total)
    return tuple(out)


def chain_length_by_tuples(datum, i: int, j: int) -> int:
    """Least r >= 1 with roots[j] - r*roots[i] not a root."""
    r = 1
    while datum.is_root(
        tuple(b - r * a for a, b in zip(datum.roots[i], datum.roots[j]))
    ):
        r += 1
    return r


def base_constants_by_tuples(datum):
    """Deterministic base Chevalley system for a reduced datum."""
    if not datum.reduced:
        raise DomainError("structure constants require a reduced datum")
    pos, order_key = positive_order(datum)
    pos_set = set(pos)
    len2 = squared_lengths_by_fractions(datum)
    table: dict[tuple[int, int], Fraction | int] = {}

    def neg(i):
        return datum.negative_of(i)

    def resolve(i, j) -> Fraction:
        """Constant for an arbitrary valid pair, reducing to the positive table."""
        if (i, j) in table:
            return Fraction(table[(i, j)])
        ip, jp = i in pos_set, j in pos_set
        if ip and jp:
            raise InternalInconsistencyError(
                "positive pair requested before its height was processed"
            )
        if not ip and not jp:
            val = -resolve(neg(i), neg(j))
        elif not ip:
            val = -resolve(j, i)
        else:
            # i positive, j negative
            s = tuple(a + b for a, b in zip(datum.roots[i], datum.roots[j]))
            si = datum.root_index(s)
            if si in pos_set:
                val = -resolve(neg(j), si) * len2[si] / len2[i]
            else:
                val = resolve(neg(si), i) * len2[si] / len2[j]
        table[(i, j)] = val
        return val

    def special_pairs(c):
        out = []
        for a in pos:
            if order_key[a] >= order_key[c]:
                break
            rest = tuple(x - y for x, y in zip(datum.roots[c], datum.roots[a]))
            if datum.is_root(rest):
                b = datum.root_index(rest)
                if b in pos_set and order_key[a] < order_key[b]:
                    out.append((a, b))
        return out

    special = {c: special_pairs(c) for c in pos}
    xs_pair: dict[int, tuple[int, int]] = {}
    for c in pos:
        if datum.height(c) == 1:
            continue
        pairs = special[c]
        if not pairs:
            raise InternalInconsistencyError(
                "nonsimple positive root with no special pair"
            )
        pairs.sort(key=lambda ab: order_key[ab[0]])
        eps_pair = pairs[0]
        if datum.height(eps_pair[0]) != 1:
            raise InternalInconsistencyError(
                "extraspecial pair does not start at a simple root"
            )
        xs_pair[c] = eps_pair
        e, h = eps_pair
        table[(e, h)] = chain_length_by_tuples(datum, e, h)
        table[(h, e)] = -table[(e, h)]
        for a, b in pairs[1:]:
            # Jacobi on (X_{-e}, X_a, X_b); only N(a, b) is unknown.
            t = Fraction(0)
            d_ae = tuple(x - y for x, y in zip(datum.roots[a], datum.roots[e]))
            if datum.is_root(d_ae):
                k = datum.root_index(d_ae)
                t += resolve(neg(e), a) * resolve(k, b)
            d_be = tuple(x - y for x, y in zip(datum.roots[b], datum.roots[e]))
            if datum.is_root(d_be):
                k = datum.root_index(d_be)
                t += resolve(b, neg(e)) * resolve(k, a)
            n_c_nege = resolve(c, neg(e))
            if n_c_nege == 0:
                raise InternalInconsistencyError("vanishing pivot constant")
            val = -t / n_c_nege
            if val.denominator != 1:
                raise InternalInconsistencyError(
                    f"derived constant is not an integer: {val}"
                )
            table[(a, b)] = val
            table[(b, a)] = -val

    # complete the table over every valid ordered pair and check magnitudes
    n = datum.nroots
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            s = tuple(x + y for x, y in zip(datum.roots[i], datum.roots[j]))
            if any(s) and datum.is_root(s):
                resolve(i, j)
    final: dict[tuple[int, int], int] = {}
    for (i, j), v in table.items():
        v = Fraction(v)
        if v.denominator != 1:
            raise InternalInconsistencyError("non-integral structure constant")
        iv = int(v)
        expected = chain_length_by_tuples(datum, i, j)
        if abs(iv) != expected:
            raise InternalInconsistencyError(
                f"constant magnitude {abs(iv)} differs from root-string bound {expected}"
            )
        if final.get((j, i), -iv) != -iv:
            raise InternalInconsistencyError("antisymmetry violated")
        final[(i, j)] = iv
    return StructureConstants(
        datum=datum,
        table=table_rows(final, datum.nroots),
        eps={i: 1 for i in pos},
        xs_pair=xs_pair,
        order_key=order_key,
        special=special,
    )


def rescale_by_tuples(sc, eps):
    """System obtained by X_beta -> eps(beta) X_beta (same sign on -beta)."""
    d = sc.datum
    full = {}
    for i in sc.eps:
        e = eps.get(i, 1)
        if e not in (1, -1):
            raise DomainError("signs must be +1 or -1")
        full[i] = e
        full[d.negative_of(i)] = e
    new_table = {}
    for (i, j), v in flat_table(sc.table).items():
        s = tuple(x + y for x, y in zip(d.roots[i], d.roots[j]))
        k = d.root_index(s)
        new_table[(i, j)] = full[i] * full[j] * full[k] * v
    new_eps = {i: sc.eps[i] * eps.get(i, 1) for i in sc.eps}
    return StructureConstants(
        datum=d,
        table=table_rows(new_table, d.nroots),
        eps=new_eps,
        xs_pair=sc.xs_pair,
        order_key=sc.order_key,
        special=sc.special,
    )


def automorphism_constants_by_tuples(sc, act):
    """For each group element a, the signs c with a . X_beta = c(beta) X_{a.beta}
    over positive beta, extended from c = +1 on the base.

    Consistency across every special decomposition is asserted; failure
    would mean the element does not extend to a Lie algebra automorphism.
    """
    d = sc.datum
    pos, order_key = positive_order(d)
    pos_set = set(pos)
    simple = {i for i in pos if d.height(i) == 1}
    table = flat_table(sc.table)
    out = []
    for perm in act.element_permutations():
        c: dict[int, int] = {i: 1 for i in simple}
        for gamma in pos:
            if gamma in simple:
                continue
            values = set()
            for a in pos:
                if order_key[a] >= order_key[gamma]:
                    break
                rest = tuple(
                    x - y for x, y in zip(d.roots[gamma], d.roots[a])
                )
                if not d.is_root(rest):
                    continue
                b = d.root_index(rest)
                if b not in pos_set or order_key[a] >= order_key[b]:
                    continue
                num = table[(perm[a], perm[b])]
                den = table[(a, b)]
                if abs(num) != abs(den):
                    raise InternalInconsistencyError(
                        "constant magnitude not preserved by the action"
                    )
                values.add(c[a] * c[b] * (num // den))
            if len(values) != 1:
                raise InternalInconsistencyError(
                    "automorphism sign differs across special decompositions"
                )
            c[gamma] = values.pop()
        out.append(c)
    return out


def bracket_word_signs(sc, comp):
    """Signs making X_beta an explicit iterated bracket of simple root
    vectors, for the eight nonsimple positive roots of a D4 component
    ``comp`` (root indices), anchored at its branch node.

    The word (w0, w1, ..., wn) is [..[[X_w0, X_w1], X_w2].., X_wn], walked
    one root vector at a time on the root sums and the constants of ``sc``.
    The tests check that this system is equivariant under the full S3 of
    the component and agrees with ``equivariant_signs`` up to one sign per
    orbit, an independent check of its orbit propagation.
    """
    d = sc.datum
    comp_set = set(comp)
    base_pos = [p for p, r in enumerate(d.basis_indices) if r in comp_set]
    cartan = d.base_cartan()
    degree = {p: sum(1 for q in base_pos if q != p and cartan[p][q]) for p in base_pos}
    (hub,) = (p for p in base_pos if degree[p] == 3)
    b = d.basis_indices[hub]
    o1, o2, o3 = (d.basis_indices[p] for p in base_pos if p != hub)
    words = [(o1, b), (o2, b), (o3, b), (o1, b, o2), (o2, b, o3), (o1, b, o3)]
    words += [(o1, b, o2, o3), (o1, b, o2, o3, b)]
    sums = d.root_sums()
    signs = {}
    for first, *rest in words:
        i, coeff = first, 1
        for j in rest:
            k = sums[i][j]
            assert k >= 0, "bracket word left the positive roots"
            i, coeff = k, coeff * sc.table[i][j]
        assert abs(coeff) == 1, "bracket word has a non-unit coefficient"
        signs[i] = coeff
    assert len(signs) == 8, "bracket words hit fewer than 8 distinct roots"
    return signs
