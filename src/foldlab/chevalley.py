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
from .action import PinnedAction
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
    cartan = [
        [datum.pairing(datum.basis_indices[j], datum.basis_indices[i]) for j in range(k)]
        for i in range(k)
    ]
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
    """Full table N(i, j) over ordered root-index pairs with a root sum."""

    datum: RootDatum
    table: dict[tuple[int, int], int]
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
    table: dict[tuple[int, int], int] = {}

    def resolve(i, j) -> int:
        """Constant for an arbitrary valid pair, reducing to the positive table."""
        if (val := table.get((i, j))) is not None:
            return val
        ip, jp = i in place, j in place
        if ip and jp:
            raise InternalInconsistencyError(
                "positive pair requested before its height was processed"
            )
        if not ip and not jp:
            val = -resolve(neg[i], neg[j])
        elif not ip:
            val = -resolve(j, i)
        else:
            # i positive, j negative
            si = sums[i][j]
            if si in place:
                val, rem = divmod(-resolve(neg[j], si) * len2[si], len2[i])
            else:
                val, rem = divmod(resolve(neg[si], i) * len2[si], len2[j])
            if rem:
                raise InternalInconsistencyError("non-integral structure constant")
        table[(i, j)] = val
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
        table[(e, h)] = _chain_length(sums, neg[e], h)
        table[(h, e)] = -table[(e, h)]
        for a, b in pairs[1:]:
            # Jacobi on (X_{-e}, X_a, X_b); only N(a, b) is unknown.
            t = 0
            k = sums[a].get(neg[e])
            if k is not None and k >= 0:
                t += resolve(neg[e], a) * resolve(k, b)
            k = sums[b].get(neg[e])
            if k is not None and k >= 0:
                t += resolve(b, neg[e]) * resolve(k, a)
            n_c_nege = resolve(c, neg[e])
            if n_c_nege == 0:
                raise InternalInconsistencyError("vanishing pivot constant")
            val, rem = divmod(-t, n_c_nege)
            if rem:
                raise InternalInconsistencyError(
                    f"derived constant is not an integer: {-t}/{n_c_nege}"
                )
            table[(a, b)] = val
            table[(b, a)] = -val

    # complete the table over every valid ordered pair, checking magnitudes
    # and antisymmetry
    for i, row in enumerate(sums):
        for j, s in row.items():
            if s >= 0:
                iv, expected = resolve(i, j), _chain_length(sums, neg[i], j)
                if abs(iv) != expected:
                    raise InternalInconsistencyError(
                        f"constant magnitude {abs(iv)} differs from root-string bound {expected}"
                    )
                if resolve(j, i) != -iv:
                    raise InternalInconsistencyError("antisymmetry violated")
    return StructureConstants(
        datum=datum,
        table=table,
        eps={i: 1 for i in pos},
        xs_pair=xs_pair,
        order_key={i: key[i] for i in pos},
        special=special,
    )


def _bracket_table(sc: StructureConstants):
    """Basis keys (the roots, then the Cartan keys) and the rows br[a], each
    a dict b -> the (index, coefficient) pairs with nonzero coefficient of
    the bracket of a and b, over the b where it is nonzero; read off the
    root sums: [h_k, X_b] = b_k X_b, [X_a, X_-a] = the coroot of a in the
    Cartan keys, and [X_a, X_b] = N(a, b) X_(a+b) when a + b is a root."""
    d = sc.datum
    n, rank = d.nroots, d.rank
    keys = [("r", i) for i in range(n)] + [("h", k) for k in range(rank)]
    br = []
    for a, row in enumerate(d.root_sums()):
        entries = {n + k: ((a, -x),) for k, x in enumerate(d.roots[a]) if x}
        for b, s in row.items():
            if s < 0:
                entries[b] = tuple((n + k, x) for k, x in enumerate(d.coroots[a]) if x)
            elif x := sc.table[(a, b)]:
                entries[b] = ((s, x),)
        br.append(entries)
    for k in range(rank):
        br.append({b: ((b, r[k]),) for b, r in enumerate(d.roots) if r[k]})
    return keys, br


def _derivation_failure(s: int, br, code, preimage):
    """Step 4 of ``verify_jacobi`` for the generator s: a pair (y, z) with
    J(s, y, z) != 0, or None.  J(s, y, z) = T(y, z) - T(z, y) - sum x code[s][i]
    over the terms (i, x) of [y, z], with T(y, z) = [[s, y], z] and
    code[i][s] = -code[s][i] by step 2, summed over y < z keyed y m + z."""
    m = len(code)
    total = {}
    for y, entry in br[s].items():
        for i, x in entry:
            for z, v in code[i].items():
                if y < z:
                    total[y * m + z] = total.get(y * m + z, 0) + x * v
                elif z < y:
                    total[z * m + y] = total.get(z * m + y, 0) - x * v
    for i, w in code[s].items():
        for key, x in preimage[i]:
            total[key] = total.get(key, 0) - x * w
    return next((divmod(key, m) for key, v in total.items() if v), None)


def verify_jacobi(sc: StructureConstants) -> bool:
    """Jacobi identity on the whole algebra, checked on generators.

    Once the bracket is alternating, the identity says that every ad x is
    a derivation, and those x form a subalgebra: ad [x, y] = [ad x, ad y]
    when ad x is a derivation, and a commutator of derivations is one (cf.
    Carter, Simple Groups of Lie Type, 4.1).  On the rows br of
    ``_bracket_table``, coded as code[a][b] = sum x P_i over the terms
    (i, x) of br[a][b], this checks in turn:

    1. ad h is a derivation for each Cartan key h: each term of br[y][z]
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
    code them exactly: with L the largest coefficient sum of a bracket and
    Y its largest coefficient, J has coordinates of size at most 3 L Y,
    and B = 6 L Y + 1.
    """
    keys, br = _bracket_table(sc)
    d = sc.datum
    n, m = d.nroots, len(keys)
    terms = [entry for row in br for entry in row.values()]
    largest = max([abs(x) for t in terms for _, x in t], default=0)
    largest_sum = max([sum(abs(x) for _, x in t) for t in terms if len(t) > 1], default=largest)
    powers = [1] * n + [(6 * largest_sum * largest + 1) ** k for k in range(d.rank)]
    wt = d.root_codes() + (0,) * d.rank
    code = [{} for _ in keys]
    for a, row in enumerate(br):
        code_a = code[a]
        for b, entry in row.items():
            total = 0
            for i, x in entry:
                if wt[i] != wt[a] + wt[b]:
                    raise InternalInconsistencyError(
                        f"bracket of {keys[a]} and {keys[b]} is not of their weight"
                    )
                total += x * powers[i]
            code_a[b] = total
    # step 2, and whether omega is an automorphism
    neg = [d.negative_of(i) for i in range(n)] + list(range(n, m))
    omega = True
    preimage = [[] for _ in keys]
    for y, row in enumerate(code):
        row_omega = code[neg[y]]
        for z, v in row.items():
            if code[z].get(y, 0) != -v:
                raise InternalInconsistencyError(
                    f"bracket is not alternating on {keys[y]}, {keys[z]}"
                )
            if row_omega.get(neg[z]) != -v:
                omega = False
            if y < z:
                for i, x in br[y][z]:
                    preimage[i].append((y * m + z, x))
    simple = list(d.basis_indices) + [d.negative_of(i) for i in d.basis_indices]
    reached, queue = set(simple), list(simple)
    for t in queue:  # the queue grows while it is read
        new = {e[0][0] for e in (br[s].get(t, ()) for s in simple) if len(e) == 1} - reached
        reached |= new
        queue.extend(new)
    if omega:
        gens = list(d.basis_indices) + [i for i in range(n) if i not in reached and i < neg[i]]
    else:
        gens = simple + [i for i in range(n) if i not in reached]
    for s in gens:
        if pair := _derivation_failure(s, br, code, preimage):
            a, b, c = (keys[k] for k in sorted((s, *pair)))
            raise InternalInconsistencyError(f"Jacobi identity fails on {a}, {b}, {c}")
    return True


def rescale(sc: StructureConstants, eps: dict[int, int]) -> StructureConstants:
    """System obtained by X_beta -> eps(beta) X_beta (same sign on -beta).
    An entry N(i, j) changes only when a root among i, j and i + j flips."""
    d = sc.datum
    full = {}
    for i in sc.eps:
        e = eps.get(i, 1)
        if e not in (1, -1):
            raise DomainError("signs must be +1 or -1")
        full[i] = e
        full[d.negative_of(i)] = e
    sums = d.root_sums()
    new_table = dict(sc.table)
    for f in (f for f, e in full.items() if e == -1):
        # f + a = k gives the entries (f, a), (a, f), (k, -a), (-a, k)
        for a, k in sums[f].items():
            if k >= 0:
                for i, j in ((f, a), (a, f), (k, d.negative_of(a)), (d.negative_of(a), k)):
                    new_table[i, j] = full[i] * full[j] * full[sums[i][j]] * sc.table[i, j]
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
    out = []
    for perm in act.element_permutations():
        c: dict[int, int] = dict.fromkeys(sc.datum.basis_indices, 1)
        for gamma in sc.xs_pair:  # the nonsimple positive roots, in order
            values = set()
            for a, b in sc.special[gamma]:
                num = sc.table[(perm[a], perm[b])]
                den = sc.table[(a, b)]
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


def _d4_components_with_s3(sc: StructureConstants, act: PinnedAction):
    """Components of type D4 whose stabilizer acts with full image S3."""
    d = sc.datum
    found = []
    for ci, (comp, ctype) in enumerate(zip(d.components(), d.component_types())):
        if ctype != ("D", 4):
            continue
        comp_sorted = tuple(sorted(comp))
        restricted = {
            tuple(perm[i] for i in comp_sorted) for perm in act.component_stabilizer(ci)
        }
        if len(restricted) == 6:
            found.append(ci)
    return found


def _d4_seed(sc: StructureConstants, comp: tuple[int, ...]) -> dict[int, int]:
    """Signs matching the explicit bracket-word system on a D4 component.

    The words pin every nonsimple positive root vector to an iterated
    bracket of simple vectors, anchored at the branch node."""
    d = sc.datum
    comp_set = set(comp)
    base_pos = [p for p, r in enumerate(d.basis_indices) if r in comp_set]
    idx = {p: d.basis_indices[p] for p in base_pos}
    neighbors = {
        p: [
            q
            for q in base_pos
            if q != p and d.pairing(idx[q], idx[p]) != 0
        ]
        for p in base_pos
    }
    hubs = [p for p in base_pos if len(neighbors[p]) == 3]
    if len(hubs) != 1:
        raise InternalInconsistencyError("D4 component without a unique branch node")
    b = idx[hubs[0]]
    o1, o2, o3 = (idx[p] for p in sorted(q for q in base_pos if q != hubs[0]))

    # the word (w0, w1, ..., wn) is [..[[X_w0, X_w1], X_w2].., X_wn], walked
    # one root vector at a time on the root sums and the constants
    words = [(o1, b), (o2, b), (o3, b), (o1, b, o2), (o2, b, o3), (o1, b, o3)]
    words += [(o1, b, o2, o3), (o1, b, o2, o3, b)]
    sums = d.root_sums()
    seed = {}
    for first, *rest in words:
        i, coeff = first, 1
        for j in rest:
            k = sums[i].get(j)
            if k is None or k < 0:
                raise InternalInconsistencyError("bracket word did not land on a root vector")
            i, coeff = k, coeff * sc.table[(i, j)]
        if abs(coeff) != 1:
            raise InternalInconsistencyError("bracket word has non-unit coefficient")
        seed[i] = coeff
    if len(seed) != 8:
        raise InternalInconsistencyError("bracket words hit fewer than 8 distinct roots")
    return seed


def equivariant_signs(sc: StructureConstants, act: PinnedAction):
    """Sign vector making the system equivariant on all nonspecial roots.

    Returns (adjusted system, classes).  Signs stay +1 on the base; on D4
    components carrying a full S3 action the explicit bracket-word seed is
    installed first.  A stabilizer obstruction on a nonspecial orbit is a
    genuine inconsistency and raises.
    """
    d = sc.datum
    classes = equivalence_classes(d, act)
    special = {i for cls in classes for i in cls.special}
    simple = set(d.basis_indices)

    eps: dict[int, int] = {}
    for ci in _d4_components_with_s3(sc, act):
        eps.update(_d4_seed(sc, d.components()[ci]))
    seeded = dict(eps)

    base_c = automorphism_constants(sc, act)
    perms = act.element_permutations()

    orbit_of = {i: orb for orb in act.orbits("roots") for i in orb}
    done = set()
    for rho in sc.order_key:
        if rho in done or rho in special:
            continue
        orb = set(orbit_of[rho])
        done |= orb
        for c, perm in zip(base_c, perms):
            for y in orb:
                if perm[y] == y and c[y] != 1:
                    raise InternalInconsistencyError(
                        "stabilizer obstruction on a nonspecial orbit"
                    )
        start = eps.get(rho, 1)
        if rho in simple and start != 1:
            raise InternalInconsistencyError("seed sign on a simple root")
        assigned = {rho: start}
        changed = True
        while changed:
            changed = False
            for c, perm in zip(base_c, perms):
                for y in list(assigned):
                    t = perm[y]
                    v = assigned[y] * c[y]
                    if t not in assigned:
                        assigned[t] = v
                        changed = True
                    elif assigned[t] != v:
                        raise InternalInconsistencyError(
                            "inconsistent sign propagation across an orbit"
                        )
        if set(assigned) != orb:
            raise InternalInconsistencyError("orbit not exhausted by generators")
        for y, v in assigned.items():
            if y in seeded and seeded[y] != v:
                raise InternalInconsistencyError(
                    "seed disagrees with propagated equivariant signs"
                )
            if y in simple and v != 1:
                raise InternalInconsistencyError(
                    "equivariant signs would break the pinning on the base"
                )
            eps[y] = v
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
    special = {i for cls in classes for i in cls.special}
    c_tables = automorphism_constants(sc, act)
    orbit_of = {i: orb for orb in act.orbits("roots") for i in orb}
    reports = []
    for cls in classes:
        groups = []
        sp = set(cls.special)
        groups.append(tuple(i for i in cls.members if i not in sp))
        if cls.special:
            groups.append(tuple(cls.special))
        for members in groups:
            if not members:
                continue
            rest = set(members)
            while rest:
                i = min(rest)
                orb = set(orbit_of[i])
                rest -= orb
                vals = sorted({c[y] for c in c_tables for y in orb})
                is_special = i in special
                reports.append(
                    OrbitReport(
                        members=tuple(sorted(orb)),
                        special=is_special,
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
