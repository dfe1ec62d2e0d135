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

from itertools import chain
from math import gcd
from operator import mul

from .errors import DomainError, InternalInconsistencyError
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
    """W-invariant squared lengths L(c) = 2 d(c), with d = 6 on the first
    simple root of each component and d_b = d_a cartan[a][b] / cartan[b][a]
    along each bond; 6 clears every ratio 2^+-1 and 3^+-1 of a Dynkin bond,
    and only within-component ratios are ever used.  A component whose
    simple roots all have d = 6 has one length.  Otherwise the coroot of
    c = sum c_i alpha_i is sum (c_i d_i / d(c)) alpha_i^vee, primitive in
    the coroot lattice like every coroot, so d(c) = gcd_i c_i d_i."""
    cartan = datum.base_cartan()
    position = {g: p for p, g in enumerate(datum.basis_indices)}
    out = [0] * datum.nroots
    for comp in datum.components():
        simple = sorted(position[i] for i in comp if i in position)
        d, stack = {simple[0]: 6}, [simple[0]]
        while stack:
            a = stack.pop()
            for b in simple:
                if cartan[a][b] and b not in d:
                    d[b] = d[a] * cartan[a][b] // cartan[b][a]
                    stack.append(b)
        simply_laced = set(d.values()) == {6}
        for i in comp:
            c = datum.simple_coordinates(i)
            out[i] = 12 if simply_laced else 2 * gcd(*(c[p] * x for p, x in d.items()))
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


def _derivation_failure(s: int, d: RootDatum, table, cocode, cartan_rows, preimage):
    """Step 4 of ``verify_jacobi`` for the root vector s: a pair of roots
    (y, z) with J(s, y, z) != 0, or None.  J(s, y, z) = T(y, z) - T(z, y)
    - sum x w over the terms (i, x) of [X_y, X_z] and (i, w) of [X_s, X_i],
    with T(y, z) = [[X_s, X_y], X_z], summed over y < z keyed y n + z; T
    reads [[X_s, X_-s], X_z] = <z, s^vee> X_z off the Cartan rows."""
    sums = d.root_sums()
    n, constants, minus_s = len(sums), table[s], d.negative_of(s)
    total = {}
    get = total.get

    def spread(y, x, items):  # x v to T(y, z) - T(z, y) for each (z, v)
        yn = y * n
        for z, v in items:
            if y < z:
                total[yn + z] = get(yn + z, 0) + x * v
            elif z < y:
                total[z * n + y] = get(z * n + y, 0) - x * v

    for y, x in constants.items():
        k = sums[s][y]
        spread(y, x, table[k].items())
        spread(y, x, ((d.negative_of(k), cocode[k]),))
    for c, row in zip(d.coroots[s], cartan_rows):
        if c:
            spread(minus_s, c, row.items())
    cartan = ((h, -r) for h, r in enumerate(d.roots[s], n) if r)  # [X_s, h] = -r X_s
    for i, w in (*constants.items(), (minus_s, cocode[s]), *cartan):
        flat = iter(preimage[i])
        for key, x in zip(flat, flat):
            total[key] = get(key, 0) - x * w
    if any(total.values()):
        return next(divmod(key, n) for key, v in total.items() if v)
    return None


def verify_jacobi(sc: StructureConstants) -> bool:
    """Jacobi identity on the whole algebra, checked on generators.

    Once the bracket is alternating, the identity says that every ad x is
    a derivation, and those x form a subalgebra: ad [x, y] = [ad x, ad y]
    when ad x is a derivation, and a commutator of derivations is one (cf.
    Carter, Simple Groups of Lie Type, 4.1).  Every bracket is read in
    place: [X_a, X_b] = N(a, b) X_(a+b) off the rows of constants and of
    ``root_sums()``, [X_a, X_-a] = the coroot of a, and [h_k, X_b] = b_k X_b
    off the Cartan row b -> b_k.  One pass over the rows checks steps 1
    and 2 entry by entry and files each term (i, x) of [X_y, X_z], y < z,
    as y n + z and then x in the flat list preimage[i].  This checks in
    turn:

    1. ad h is a derivation for each Cartan key h: each term of [X_y, X_z]
       has weight wt(y) + wt(z), the root code of a root vector (on pairs
       with a Cartan key, and on y = -z, this holds by construction);
    2. [X_b, X_a] = -[X_a, X_b] for all roots a, b: the bracket is
       alternating ([X_b, h] = -[h, X_b] and [h, h'] = 0 by construction);
    3. the simple root vectors, their negatives and any root vector they
       do not reach by one-term brackets generate the algebra;
    4. ad s is a derivation for each generator s: J(s, y, z) =
       [[s, y], z] + [[y, z], s] + [[z, s], y] vanishes on each pair of
       root vectors where a term can be nonzero.  Pairs with a Cartan key h
       need no check: by step 2, J is alternating, so J(s, h, z) =
       -J(h, s, z), which step 1 shows to vanish.  The Chevalley involution
       omega: X_a -> -X_(-a), h -> -h is an automorphism of every Chevalley
       basis (Humphreys, Introduction to Lie Algebras and Representation
       Theory, 14.3; Carter, 4.2), and then J(omega s, omega y, omega z) =
       omega J(s, y, z).  So when step 2 finds N(-a, -b) = -N(a, b)
       throughout (coroot(-a) = -coroot(a) is part of step 2), only the
       positive simple root vectors and one of +-r for each root r not
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
    sums, table, coroots = d.root_sums(), sc.table, d.coroots
    largest = max(map(abs, chain(*d.roots, *coroots, *map(dict.values, table))), default=0)
    largest_sum = max([largest] + [sum(map(abs, c)) for c in coroots])
    powers = [(6 * largest_sum * largest + 1) ** e for e in range(rank)]
    cocode = [sum(map(mul, c, powers)) for c in coroots]
    wt = (*d.root_codes(), 0)  # wt[-1] = 0 weighs a zero sum
    neg = [d.negative_of(i) for i in range(n)]
    # steps 1 and 2, whether omega is an automorphism, and the preimages
    preimage = [[] for _ in range(n + rank)]
    omega = True
    for a, (row, constants) in enumerate(zip(sums, table)):
        an, wa, minus_a = a * n, wt[a], neg[a]
        if cocode[minus_a] != -cocode[a]:
            raise InternalInconsistencyError(
                f"bracket is not alternating on {('r', a)}, {('r', minus_a)}"
            )
        if a < minus_a:
            for h, c in enumerate(coroots[a], n):
                preimage[h] += (an + minus_a, c) if c else ()
        row_omega = table[minus_a]
        for b, x in constants.items():
            if not x:
                continue
            if wt[k := row[b]] != wa + wt[b]:
                raise InternalInconsistencyError(
                    f"bracket of {('r', a)} and {('r', b)} is not of their weight"
                )
            if table[b].get(a, 0) != -x:
                raise InternalInconsistencyError(
                    f"bracket is not alternating on {('r', a)}, {('r', b)}"
                )
            if row_omega.get(neg[b]) != -x:
                omega = False
            if a < b:
                preimage[k] += an + b, x
    simple = dict.fromkeys([*d.basis_indices, *(neg[i] for i in d.basis_indices)])
    reached, queue = set(simple), list(simple)
    for t in queue:  # the queue grows while it is read
        row = sums[t]
        for s in row.keys() & simple.keys():  # s + t is a root exactly when t + s is
            if (k := row[s]) >= 0 and table[s][t] and k not in reached:
                reached.add(k)
                queue.append(k)
    if omega:
        gens = list(d.basis_indices) + [i for i in range(n) if i not in reached and i < neg[i]]
    else:
        gens = [*simple, *(i for i in range(n) if i not in reached)]
    cartan_rows = [{b: r[k] for b, r in enumerate(d.roots) if r[k]} for k in range(rank)]
    for s in gens:
        if pair := _derivation_failure(s, d, table, cocode, cartan_rows, preimage):
            a, b, c = (("r", k) for k in sorted((s, *pair)))
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
    The identity has c = +1 throughout, where no decomposition can disagree.
    """
    check_action_of(sc.datum, act)
    identity = tuple(range(sc.datum.nroots))
    out = []
    for perm in act.element_permutations():
        c: dict[int, int] = dict.fromkeys((*sc.datum.basis_indices, *sc.xs_pair), 1)
        walk = sc.xs_pair if perm != identity else ()  # the identity keeps +1
        for gamma in walk:  # the nonsimple positive roots, in order
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
