"""Integral structure constants and action-equivariant sign choices.

The Lie algebra attached to a root datum is handled purely through its
structure constants: basis X_delta for each root delta plus the coroot
span.  Signs are fixed the classical way -- order positive roots by
height, give each nonsimple positive root its extraspecial decomposition
(the special pair with least first member, necessarily simple) a positive
constant, and derive every other constant from the Jacobi identity and the
length-weighted three-root relation

    N(a,b)/|c|^2 = N(b,c)/|a|^2 = N(c,a)/|b|^2      (a + b + c = 0).

Magnitudes always equal the root-string bound; this is asserted, not
assumed.
"""

from __future__ import annotations

from .errors import DomainError, InternalInconsistencyError
from .intlat import _nonzero
from .rootdata import RootDatum
from .action import PinnedAction, check_action_of
from .folding import equivalence_classes
from .record import Record


def chain_length(datum: RootDatum, i: int, j: int) -> int:
    """Least r >= 1 with roots[j] - r*roots[i] not a root."""
    return _chain_length(datum.root_sums(), datum.negative_of(i), j)


def _chain_length(sums, neg_i: int, j: int) -> int:
    """``chain_length`` on the root sums, given the index of -roots[i]."""
    r, k = 1, sums[j].get(neg_i)
    while k is not None and k >= 0:
        r, k = r + 1, sums[k].get(neg_i)
    return r


def _squared_lengths(datum: RootDatum) -> tuple[int, ...]:
    """W-invariant squared lengths as the integer form L(c) = sum_ij c_i c_j
    d_i cartan[i][j], with d = 6 on the first simple root of each component;
    6 clears every ratio 2^+-1 and 3^+-1 of a Dynkin bond, and only
    within-component ratios are ever used."""
    k = len(datum.basis_indices)
    cartan = datum.base_cartan()
    d = [None] * k
    for start in range(k):
        if d[start] is not None:
            continue
        d[start] = 6
        stack = [start]
        while stack:
            a = stack.pop()
            for b in range(k):
                if a != b and cartan[a][b] and d[b] is None:
                    d[b] = d[a] * cartan[a][b] // cartan[b][a]
                    stack.append(b)
    form = [_nonzero([x * a for a in row]) for x, row in zip(d, cartan)]
    out = []
    for idx in range(datum.nroots):
        c = datum.simple_coordinates(idx)
        out.append(sum(c[i] * sum(c[j] * f for j, f in form[i]) for i in range(k) if c[i]))
    return tuple(out)


class StructureConstants(Record):
    """Every N(i, j) over ordered root-index pairs with a root sum, kept as
    per-root rows like ``RootDatum.root_sums``: table[i] maps j -> N(i, j)
    for exactly the j with roots[i] + roots[j] a root."""

    datum: RootDatum
    table: list[dict[int, int]]
    eps: dict[int, int]  # positive root index -> sign relative to the base system
    xs_pair: dict[int, tuple[int, int]]  # positive nonsimple root -> extraspecial pair
    order_key: dict[int, tuple]  # positive root index -> (height, coordinates), in order
    special: dict[int, list[tuple[int, int]]]  # positive root -> its special pairs


def base_constants(datum: RootDatum) -> StructureConstants:
    """Deterministic base Chevalley system for a reduced datum."""
    if not datum.reduced:
        raise DomainError("structure constants require a reduced datum")
    key = {i: (datum.height(i), datum.simple_coordinates(i)) for i in datum.positive_root_indices()}
    pos = sorted(key, key=key.get)
    place = {a: p for p, a in enumerate(pos)}
    len2 = _squared_lengths(datum)
    sums = datum.root_sums()
    neg = [datum.negative_of(i) for i in range(datum.nroots)]
    # the special pairs of each positive c: a + b = c with a before b, listed
    # by a, from the rows of the positive a in order
    special = {c: [] for c in pos}
    for a in pos:
        for b, c in sums[a].items():
            if place.get(b, -1) > place[a]:
                special[c].append((a, b))
    table: list[dict[int, int]] = [{} for _ in range(datum.nroots)]

    def mixed(i, j, s) -> int:
        """N(i, j) for i, j of opposite signs, s = i + j, by the three-root relation
        N(i, j)/|s|^2 = N(j, -s)/|i|^2 = N(-s, i)/|j|^2 from a positive pair."""
        if (j in place) != (s in place):  # j and -s have one sign
            x, y, den = j, neg[s], len2[i]
        else:
            x, y, den = neg[s], i, len2[j]
        val = table[x][y] if x in place else -table[neg[x]][neg[y]]
        val, rem = divmod(val * len2[s], den)
        if rem:
            raise InternalInconsistencyError("non-integral structure constant")
        return val

    xs_pair: dict[int, tuple[int, int]] = {}
    for c in pos:
        if datum.height(c) == 1:
            continue
        pairs = special[c]
        if not pairs:
            raise InternalInconsistencyError(
                "nonsimple positive root with no special pair"
            )
        eps_pair = pairs[0]
        if datum.height(eps_pair[0]) != 1:
            raise InternalInconsistencyError(
                "extraspecial pair does not start at a simple root"
            )
        xs_pair[c] = eps_pair
        e, h = eps_pair
        table[e][h] = _chain_length(sums, neg[e], h)
        table[h][e] = -table[e][h]
        for a, b in pairs[1:]:
            # Jacobi on (X_{-e}, X_a, X_b); only N(a, b) is unknown.
            t = 0
            if (k := sums[a].get(neg[e], -1)) >= 0:
                t += mixed(neg[e], a, k) * table[k][b]
            if (k := sums[b].get(neg[e], -1)) >= 0:
                t += mixed(b, neg[e], k) * table[k][a]
            n_c_nege = mixed(c, neg[e], h)
            if n_c_nege == 0:
                raise InternalInconsistencyError("vanishing pivot constant")
            val, rem = divmod(-t, n_c_nege)
            if rem:
                raise InternalInconsistencyError(
                    f"derived constant is not an integer: {-t}/{n_c_nege}"
                )
            table[a][b] = val
            table[b][a] = -val

    # each row in root-sum order from the positive pairs alone, and checked
    for i, row in enumerate(sums):
        full, ip = {}, i in place
        for j, s in row.items():
            if s < 0:
                continue
            if ip == (j in place):
                val = table[i][j] if ip else -table[neg[i]][neg[j]]
            else:
                val = mixed(i, j, s)
            if abs(val) != (expected := _chain_length(sums, neg[i], j)):
                raise InternalInconsistencyError(
                    f"constant magnitude {abs(val)} differs from root-string bound {expected}"
                )
            if j < i and table[j].get(i) != -val:
                raise InternalInconsistencyError("antisymmetry violated")
            full[j] = val
        table[i] = full
    return StructureConstants(
        datum=datum,
        table=table,
        eps={i: 1 for i in pos},
        xs_pair=xs_pair,
        order_key={i: key[i] for i in pos},
        special=special,
    )


def _bracket(d: RootDatum, sums, table, a: int, b: int) -> tuple:
    """The (index, coefficient) pairs with nonzero coefficient of the
    bracket of basis keys a and b, the keys being the roots and then the
    Cartan keys n + k; read off the root sums, the rows of constants and
    the coroots: [h_k, X_b] = b_k X_b, [X_a, X_-a] = the coroot of a in the
    Cartan keys, and [X_a, X_b] = N(a, b) X_(a+b) when a + b is a root."""
    n = len(d.roots)
    if a >= n:
        x = d.roots[b][a - n] if b < n else 0
        return ((b, x),) if x else ()
    if b >= n:
        x = d.roots[a][b - n]
        return ((a, -x),) if x else ()
    s = sums[a].get(b)
    if s is None:
        return ()
    if s < 0:
        return tuple((n + k, x) for k, x in enumerate(d.coroots[a]) if x)
    x = table[a][b]
    return ((s, x),) if x else ()


def _derivation_failure(s: int, code, preimage, d: RootDatum, sums, table):
    """Step 4 of ``verify_jacobi`` for the generator s: a pair (y, z) with
    J(s, y, z) != 0, or None.  J(s, y, z) = T(y, z) - T(z, y) - sum x code[s][i]
    over the terms (i, x) of [y, z], with T(y, z) = [[s, y], z] and
    code[i][s] = -code[s][i] by step 2, summed over y < z keyed y m + z."""
    m = len(code)
    total = {}
    for y in code[s]:
        ym = y * m
        for i, x in _bracket(d, sums, table, s, y):
            for z, v in code[i].items():
                if y < z:
                    total[ym + z] = total.get(ym + z, 0) + x * v
                elif z < y:
                    total[z * m + y] = total.get(z * m + y, 0) - x * v
    for i, w in code[s].items():
        flat = iter(preimage[i])
        for key, x in zip(flat, flat):
            total[key] = total.get(key, 0) - x * w
    return next((divmod(key, m) for key, v in total.items() if v), None)


def verify_jacobi(sc: StructureConstants) -> bool:
    """Jacobi identity on the whole algebra, checked on generators.

    Once the bracket is alternating, the identity says that every ad x is
    a derivation, and those x form a subalgebra: ad [x, y] = [ad x, ad y]
    when ad x is a derivation, and a commutator of derivations is one (cf.
    Carter, Simple Groups of Lie Type, 4.1).  One pass over each root's
    root sums and constants codes [a, b] as code[a][b] = sum x P_i over its
    terms (i, x) and files each term of [y, z], y < z, as y m + z, x in the
    flat list preimage[i]; step 4 reads [s, y] through ``_bracket``.  This
    checks in turn:

    1. ad h is a derivation for each Cartan key h: each term of [y, z]
       has weight wt(y) + wt(z), the root code of a root vector or 0;
    2. code[b][a] = -code[a][b] for all a, b: the bracket is alternating;
    3. the simple root vectors, their negatives and any root vector they
       do not reach by one-term brackets generate the algebra;
    4. ad s is a derivation for each generator s: J(s, y, z) =
       [[s, y], z] + [[y, z], s] + [[z, s], y] vanishes on each pair where
       a term can be nonzero.  The Chevalley involution omega: X_a ->
       -X_(-a), h -> -h is an automorphism of every Chevalley basis
       (Humphreys, Introduction to Lie Algebras and Representation Theory,
       14.3; Carter, 4.2), and then J(omega s, omega y, omega z) =
       omega J(s, y, z).  So when step 2 finds code[-y][-z] = -code[y][z]
       throughout (N(-a, -b) = -N(a, b) and coroot(-a) = -coroot(a)), only
       the positive simple root vectors and one of +-r for each root r not
       reached are checked, and otherwise every generator of step 3.

    By step 1 the terms of a bracket, and of J, lie on one root vector or
    in the Cartan span, so P_i = 1 on root vectors and B^k on Cartan key k
    code them exactly.  A coefficient is a constant, a root coordinate or
    a coroot coordinate; with Y the largest of these in size and L the
    largest coefficient sum of a bracket (Y, or that of a coroot), J has
    coordinates of size at most 3 L Y, and B = 6 L Y + 1.
    """
    d = sc.datum
    n, rank = d.nroots, d.rank
    m = n + rank
    keys = [("r", i) for i in range(n)] + [("h", k) for k in range(rank)]
    sums, table = d.root_sums(), sc.table
    coefficients = (*d.roots, *d.coroots, *(row.values() for row in table))
    largest = max([0] + [max(map(abs, v), default=0) for v in coefficients])
    largest_sum = max([largest] + [sum(map(abs, c)) for c in d.coroots])
    base = 6 * largest_sum * largest + 1
    wt = (*d.root_codes(), 0)  # wt[-1] = 0 weighs the zero sum in a root-sum row
    cartan = range(n, m)
    code, preimage = [], [[] for _ in keys]
    for a, (root, coroot, row) in enumerate(zip(d.roots, d.coroots, sums)):
        constants, am, wa = table[a], a * m, wt[a]
        code_a = {h: -x for h, x in zip(cartan, root) if x}
        for h, x in code_a.items():
            preimage[a] += am + h, x
        for b, k in row.items():
            x = constants[b] if k >= 0 else sum(c * base**e for e, c in enumerate(coroot))
            if not x:
                continue
            if wt[k] != wa + wt[b]:
                raise InternalInconsistencyError(
                    f"bracket of {keys[a]} and {keys[b]} is not of their weight"
                )
            code_a[b] = x
            if a < b and k >= 0:
                preimage[k] += am + b, x
            elif a < b:
                for h, c in zip(cartan, coroot):
                    preimage[h] += (am + b, c) if c else ()
        code.append(code_a)
    code += ({b: r[k] for b, r in enumerate(d.roots) if r[k]} for k in range(rank))
    # step 2, and whether omega is an automorphism
    neg = [d.negative_of(i) for i in range(n)] + list(cartan)
    omega = True
    for y, row in enumerate(code):
        row_omega = code[neg[y]]
        for z, v in row.items():
            if code[z].get(y, 0) != -v:
                raise InternalInconsistencyError(
                    f"bracket is not alternating on {keys[y]}, {keys[z]}"
                )
            if row_omega.get(neg[z]) != -v:
                omega = False
    simple = list(d.basis_indices) + [d.negative_of(i) for i in d.basis_indices]
    reached, queue = set(simple), list(simple)
    for t in queue:  # the queue grows while it is read
        for s in simple:
            if (k := sums[s].get(t, -1)) >= 0 and table[s][t] and k not in reached:
                reached.add(k)
                queue.append(k)
    if omega:
        gens = list(d.basis_indices) + [i for i in range(n) if i not in reached and i < neg[i]]
    else:
        gens = simple + [i for i in range(n) if i not in reached]
    for s in gens:
        if pair := _derivation_failure(s, code, preimage, d, sums, table):
            a, b, c = (keys[k] for k in sorted((s, *pair)))
            raise InternalInconsistencyError(f"Jacobi identity fails on {a}, {b}, {c}")
    return True


def rescale(sc: StructureConstants, eps: dict[int, int]) -> StructureConstants:
    """System obtained by X_beta -> eps(beta) X_beta (same sign on -beta).
    An entry N(i, j) changes only when a root among i, j and i + j flips,
    and only the rows holding such an entry are copied; the others are
    shared with ``sc``."""
    d = sc.datum
    full = {}
    for i in sc.eps:
        e = eps.get(i, 1)
        if e not in (1, -1):
            raise DomainError("signs must be +1 or -1")
        full[i] = e
        full[d.negative_of(i)] = e
    sums = d.root_sums()
    new_table = list(sc.table)
    for f in (f for f, e in full.items() if e == -1):
        # f + a = k gives the entries (f, a), (a, f), (k, -a), (-a, k)
        for a, k in sums[f].items():
            if k >= 0:
                for i, j in ((f, a), (a, f), (k, d.negative_of(a)), (d.negative_of(a), k)):
                    if new_table[i] is sc.table[i]:
                        new_table[i] = dict(sc.table[i])
                    new_table[i][j] = full[i] * full[j] * full[sums[i][j]] * sc.table[i][j]
    new_eps = {i: sc.eps[i] * eps.get(i, 1) for i in sc.eps}
    return StructureConstants(
        datum=d,
        table=new_table,
        eps=new_eps,
        xs_pair=sc.xs_pair,
        order_key=sc.order_key,
        special=sc.special,
    )


def automorphism_constants(sc: StructureConstants, act: PinnedAction) -> list[dict[int, int]]:
    """For each group element a, the signs c with a . X_beta = c(beta) X_{a.beta}
    over positive beta, extended from c = +1 on the base.

    Consistency across every special decomposition is asserted; failure
    would mean the element does not extend to a Lie algebra automorphism.
    """
    check_action_of(sc.datum, act)
    out = []
    for perm in act.element_permutations():
        c: dict[int, int] = dict.fromkeys(sc.datum.basis_indices, 1)
        for gamma in sc.xs_pair:  # the nonsimple positive roots, in order
            values = set()
            for a, b in sc.special[gamma]:
                num = sc.table[perm[a]][perm[b]]
                den = sc.table[a][b]
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


def equivariant_signs(sc: StructureConstants, act: PinnedAction):
    """Sign vector making the system equivariant on all nonspecial roots.

    Returns (adjusted system, classes).  Each nonspecial orbit keeps sign
    +1 on its first root rho in height order, and every other member g.rho
    takes the sign that makes g . X'_rho = X'_{g.rho}.  A second pass
    checks g . X'_y = X'_{g.y} for every element g and member y; its case
    g.y = y is the stabilizer obstruction.  Any failure on a nonspecial
    orbit is a genuine inconsistency and raises.
    """
    d = sc.datum
    classes = equivalence_classes(d, act)
    special = {i for cls in classes for i in cls.special}
    simple = set(d.basis_indices)
    elements = list(zip(automorphism_constants(sc, act), act.element_permutations()))

    eps: dict[int, int] = {}
    for rho in sc.order_key:
        if rho in eps or rho in special:
            continue
        assigned = {rho: 1}
        for c, perm in elements:
            assigned.setdefault(perm[rho], c[rho])
        for c, perm in elements:
            for y, v in assigned.items():
                if assigned[perm[y]] != v * c[y]:
                    raise InternalInconsistencyError(
                        "no equivariant signs on a nonspecial orbit"
                    )
        if any(v != 1 for y, v in assigned.items() if y in simple):
            raise InternalInconsistencyError(
                "equivariant signs would break the pinning on the base"
            )
        eps.update(assigned)
    adjusted = rescale(sc, eps)
    return adjusted, classes


class OrbitReport(Record):
    members: tuple[int, ...]
    special: bool
    satisfied: bool
    discrepancies: tuple[int, ...]


class EquivarianceReport(Record):
    orbits: tuple[OrbitReport, ...]

    @property
    def nonspecial_all_satisfied(self) -> bool:
        return all(o.satisfied for o in self.orbits if not o.special)

    @property
    def special_values(self) -> tuple[int, ...]:
        vals = set()
        for o in self.orbits:
            if o.special:
                vals |= set(o.discrepancies)
        return tuple(sorted(vals))


def check_equivariance(sc: StructureConstants, act: PinnedAction, classes) -> EquivarianceReport:
    """Per-orbit equivariance of a system: which positive-root orbits have
    a . X_beta = X_{a.beta} for every element, and the sign discrepancies
    where they do not (always +/-1).  ``classes`` are the fold classes of
    the datum under ``act``, as ``equivariant_signs`` returns them."""
    check_action_of(sc.datum, act)
    c_tables = automorphism_constants(sc, act)
    reports = []
    for cls in classes:
        # a class is one orbit, or its nonspecial orbit then its special one
        for orb in sorted(cls.orbits, key=lambda o: o == cls.special):
            vals = sorted({c[y] for c in c_tables for y in orb})
            reports.append(
                OrbitReport(
                    members=orb,
                    special=orb == cls.special,
                    satisfied=vals == [1],
                    discrepancies=tuple(vals),
                )
            )
    for r in reports:
        for v in r.discrepancies:
            if v not in (1, -1):
                raise InternalInconsistencyError(
                    "equivariance discrepancy outside +/-1"
                )
    return EquivarianceReport(orbits=tuple(reports))
