"""Structure constants, Jacobi identity, equivariant sign adjustment."""

import ast
import copy

import pytest

from foldlab import chevalley
from foldlab.chevalley import (
    StructureConstants,
    automorphism_constants,
    base_constants,
    chain_length,
    check_equivariance,
    equivariant_signs,
    rescale,
    verify_jacobi,
)
from foldlab.action import trivial_action
from foldlab.errors import DomainError, InternalInconsistencyError
from foldlab.folding import folded_root_datum
from foldlab.presets import load_preset, preset_names, type_a_flip
from foldlab.rootdata import build_preset, build_torus
from constants_oracle import (
    automorphism_constants_by_tuples,
    base_constants_by_tuples,
    bracket_word_signs,
    chain_length_by_tuples,
    flat_table,
    rescale_by_tuples,
    special_pairs_by_scan,
    table_rows,
)
from jacobi_oracle import (
    bracket,
    is_alternating_on,
    jacobi_sum,
    verify_jacobi_by_brackets,
    verify_jacobi_exhaustive,
)


def root_string_bound(datum, i, j):
    """Independent oracle for the magnitude rule: largest r with
    roots[j] - (r-1)*roots[i] still a root."""
    r = 0
    while True:
        v = tuple(b - (r + 1) * a for a, b in zip(datum.roots[i], datum.roots[j]))
        if not datum.is_root(v):
            return r + 1
        r += 1


def test_chain_length_matches_oracle():
    for ctype in ("A2", "B2", "G2"):
        datum = build_preset(ctype, "sc")
        for i in range(datum.nroots):
            for j in range(datum.nroots):
                s = tuple(a + b for a, b in zip(datum.roots[i], datum.roots[j]))
                if datum.is_root(s):
                    assert chain_length(datum, i, j) == root_string_bound(datum, i, j)


def test_a2_constants_all_unit():
    datum = build_preset("A2", "sc")
    table = flat_table(base_constants(datum).table)
    assert table
    assert {abs(v) for v in table.values()} == {1}
    for (i, j), v in table.items():
        assert table[(j, i)] == -v


def test_b2_attains_two():
    datum = build_preset("B2", "sc")
    table = flat_table(base_constants(datum).table)
    assert {abs(v) for v in table.values()} == {1, 2}


def test_g2_attains_three():
    datum = build_preset("G2", "sc")
    table = flat_table(base_constants(datum).table)
    assert {abs(v) for v in table.values()} == {1, 2, 3}


def test_magnitudes_equal_chain_lengths():
    for ctype in ("A3", "B2", "G2", "D4"):
        datum = build_preset(ctype, "sc")
        sc = base_constants(datum)
        for (i, j), v in flat_table(sc.table).items():
            assert abs(v) == root_string_bound(datum, i, j)


@pytest.mark.parametrize(
    "ctype", ["A2", "A3", "A4", "B2", "D4", "G2", "B3", "C3", "F4", "E6", "E7"]
)
def test_jacobi_exhaustive(ctype):
    sc = base_constants(build_preset(ctype, "sc"))
    assert verify_jacobi(sc) is True
    assert verify_jacobi_exhaustive(sc) is True


def _outcome(check, sc):
    """True, or the message of the InternalInconsistencyError raised."""
    try:
        return check(sc)
    except InternalInconsistencyError as exc:
        return str(exc)


def _assert_same_verdict(sc, oracle=verify_jacobi_exhaustive):
    """verify_jacobi and the oracle agree, and a failure names a triple on
    which the identity really fails or a pair on which the bracket really
    is not alternating."""
    outcome = _outcome(verify_jacobi, sc)
    assert (outcome is True) == (_outcome(oracle, sc) is True)
    if outcome is True:
        return
    head, named = outcome.split(" on ", 1)
    keys = ast.literal_eval(f"({named},)")
    if head == "Jacobi identity fails":
        assert jacobi_sum(sc, *keys), outcome
    else:
        assert head == "bracket is not alternating", outcome
        assert not is_alternating_on(sc, *keys), outcome


def _negated_pair(t, i, j):
    return {(i, j): -t[i, j], (j, i): -t[j, i]}


# changes to a table of constants, seen as {(i, j): N(i, j)}, each keyed by
# what it does to N(i, j), with neg the datum's negative_of: the pair changes keep antisymmetry
# (pair_zero can leave a root vector out of reach of the simple ones, so
# that it joins the generators), x10^6 puts a coefficient far past any code
# base fixed without looking at the table, omega negates only N(-i, -j) and
# N(-j, -i), so that the Chevalley involution is no automorphism, and
# pair_omega negates both pairs, so that it still is one and verify_jacobi
# checks only half of its generators
MUTATIONS = {
    "sign": lambda t, i, j, neg: {(i, j): -t[i, j]},
    "pair": lambda t, i, j, neg: _negated_pair(t, i, j),
    "pair_x2": lambda t, i, j, neg: {(i, j): 2 * t[i, j], (j, i): 2 * t[j, i]},
    "pair_zero": lambda t, i, j, neg: {(i, j): 0, (j, i): 0},
    "x3": lambda t, i, j, neg: {(i, j): 3 * t[i, j]},
    "zero": lambda t, i, j, neg: {(i, j): 0},
    "x1e6": lambda t, i, j, neg: {(i, j): 10**6 * t[i, j]},
    "omega": lambda t, i, j, neg: _negated_pair(t, neg(i), neg(j)),
    "pair_omega": lambda t, i, j, neg: _negated_pair(t, i, j) | _negated_pair(t, neg(i), neg(j)),
}


def _mutated(sc, name, i, j):
    flat = flat_table(sc.table)
    flat |= MUTATIONS[name](flat, i, j, sc.datum.negative_of)
    table = table_rows(flat, sc.datum.nroots)
    return StructureConstants(sc.datum, table, sc.eps, sc.xs_pair, sc.order_key, sc.special)


def _assert_bracket_matches_oracle(sc):
    """``chevalley._bracket`` gives the terms of ``jacobi_oracle.bracket``,
    each basis key once and with a nonzero coefficient, on every ordered
    pair of basis keys."""
    d = sc.datum
    keys = [("r", i) for i in range(d.nroots)] + [("h", k) for k in range(d.rank)]
    sums = d.root_sums()
    for a, key_a in enumerate(keys):
        for b, key_b in enumerate(keys):
            terms = chevalley._bracket(d, sums, sc.table, a, b)
            expected = {k: x for k, x in bracket(sc, key_a, key_b).items() if x}
            assert len(terms) == len(expected), (key_a, key_b)
            assert {keys[i]: x for i, x in terms} == expected, (key_a, key_b)


def _entries_by_root(sc):
    """The (i, j) keys of a table of constants, ordered by the simple
    coordinates of root i, then of root j, not by the rows' key order."""
    d = sc.datum
    return sorted(
        flat_table(sc.table), key=lambda k: (d.simple_coordinates(k[0]), d.simple_coordinates(k[1]))
    )


@pytest.mark.parametrize("ctype", ["A2", "B2", "G2", "A3", "A4", "B3", "C3", "D4", "F4"])
def test_jacobi_matches_bracket_oracle(ctype):
    sc = base_constants(build_preset(ctype, "sc"))
    assert verify_jacobi(sc) is True
    assert verify_jacobi_by_brackets(sc) is True
    entries = _entries_by_root(sc)
    # six entries spread over the table, the first entry among them
    for i, j in entries[:: -(-len(entries) // 6)]:
        for name in MUTATIONS:
            broken = _mutated(sc, name, i, j)
            _assert_bracket_matches_oracle(broken)
            assert _outcome(verify_jacobi, broken) is not True, name
            _assert_same_verdict(broken)
            if (i, j) == entries[0] or name == "omega":
                _assert_same_verdict(broken, oracle=verify_jacobi_by_brackets)


def _generators_checked(sc, monkeypatch):
    """The generators whose rows step 4 of verify_jacobi reads, with the
    check of each one stubbed out."""
    read = []
    with monkeypatch.context() as m:
        m.setattr(chevalley, "_derivation_failure", lambda s, *_: read.append(s))
        assert verify_jacobi(sc) is True
    return read


def test_jacobi_checks_rank_generators_when_omega_holds(monkeypatch):
    e7 = base_constants(build_preset("E7", "sc"))
    systems = [
        base_constants(build_preset(t, isogeny))
        for t in ORACLE_TYPES + ["E8"]
        for isogeny in ("sc", "adjoint")
    ]
    for name in preset_names():
        pre = load_preset(name)
        sc = base_constants(pre.datum)
        systems += [sc, equivariant_signs(sc, pre.action)[0]]
    for sc in systems:
        assert _generators_checked(sc, monkeypatch) == list(sc.datum.basis_indices)
    # with omega broken, the negative simple root vectors are checked too
    base = list(e7.datum.basis_indices)
    for i, j in _entries_by_root(e7)[::500]:
        broken = _mutated(e7, "omega", i, j)
        assert _generators_checked(broken, monkeypatch) == base + [
            e7.datum.negative_of(g) for g in base
        ]


def test_jacobi_rejects_a_bracket_off_its_weight():
    sc = base_constants(build_preset("A2", "sc"))
    i, j = _entries_by_root(sc)[0]
    # a copy of the datum whose root sums send (i, j) and (j, i) to another
    # root, so that [X_i, X_j] and [X_j, X_i] lie off the weight of i + j
    sums = [dict(row) for row in sc.datum.root_sums()]
    sums[i][j] = sums[j][i] = next(k for k in range(sc.datum.nroots) if k != sums[i][j])
    moved = copy.copy(sc.datum)
    moved.root_sums = lambda: tuple(sums)
    broken = StructureConstants(moved, sc.table, sc.eps, sc.xs_pair, sc.order_key, sc.special)
    with pytest.raises(InternalInconsistencyError, match=r"is not of their weight$"):
        verify_jacobi(broken)


@pytest.mark.parametrize("name", preset_names())
def test_jacobi_matches_exhaustive_oracle_on_presets(name):
    pre = load_preset(name)
    sc = base_constants(pre.datum)
    adjusted, _ = equivariant_signs(sc, pre.action)
    for system in (sc, adjusted):
        assert verify_jacobi(system) is True
        assert verify_jacobi_exhaustive(system) is True


@pytest.mark.parametrize(
    "datum",
    [
        pytest.param(load_preset("A1-torus-inversion").datum, id="A1-torus-inversion"),
        pytest.param(build_torus(3), id="torus-3"),
        pytest.param(build_torus(0), id="torus-0"),
        pytest.param(build_preset("A3", "adjoint"), id="A3-adjoint"),
        pytest.param(build_preset("E6", "adjoint"), id="E6-adjoint"),
    ],
)
def test_jacobi_edge_cases(datum):
    sc = base_constants(datum)
    assert verify_jacobi(sc) is True
    assert verify_jacobi_exhaustive(sc) is True


ORACLE_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4",
    "E6", "E7",
]


def _fields(sc):
    return sc.table, sc.eps, sc.xs_pair, sc.order_key, sc.special


@pytest.mark.parametrize("ctype", ORACLE_TYPES + ["E8"])
def test_base_constants_match_tuple_oracle(ctype):
    for isogeny in ("sc", "adjoint"):
        datum = build_preset(ctype, isogeny)
        sc = base_constants(datum)
        assert _fields(sc) == _fields(base_constants_by_tuples(datum)), isogeny
        for i in range(datum.nroots):
            for j in range(datum.nroots):
                assert chain_length(datum, i, j) == chain_length_by_tuples(datum, i, j)


@pytest.mark.parametrize("ctype", ORACLE_TYPES + ["E8"])
def test_special_pairs_match_the_scan(ctype):
    for isogeny in ("sc", "adjoint"):
        sc = base_constants(build_preset(ctype, isogeny))
        assert sc.special == special_pairs_by_scan(sc.datum, list(sc.order_key), sc.order_key)


@pytest.mark.parametrize("name", preset_names())
def test_constants_and_signs_match_tuple_oracle_on_presets(name, monkeypatch):
    pre = load_preset(name)
    sc = base_constants(pre.datum)
    oracle = base_constants_by_tuples(pre.datum)
    assert _fields(sc) == _fields(oracle)
    assert sc.special == special_pairs_by_scan(pre.datum, list(sc.order_key), sc.order_key)
    assert automorphism_constants(sc, pre.action) == automorphism_constants_by_tuples(
        oracle, pre.action
    )
    pos = pre.datum.positive_root_indices()
    alternating = {i: (-1 if k % 2 else 1) for k, i in enumerate(pos)}
    assert _fields(rescale(sc, alternating)) == _fields(rescale_by_tuples(oracle, alternating))
    adjusted, classes = equivariant_signs(sc, pre.action)
    monkeypatch.setattr(chevalley, "automorphism_constants", automorphism_constants_by_tuples)
    monkeypatch.setattr(chevalley, "rescale", rescale_by_tuples)
    by_tuples, tuple_classes = chevalley.equivariant_signs(oracle, pre.action)
    assert _fields(adjusted) == _fields(by_tuples)
    assert classes == tuple_classes


def _assert_row_shape(sc):
    """One row per root, and row i holds exactly the j of root_sums()[i]
    whose sum is a root."""
    assert len(sc.table) == sc.datum.nroots
    for row, sums in zip(sc.table, sc.datum.root_sums()):
        assert set(row) == {j for j, k in sums.items() if k >= 0}


@pytest.mark.parametrize("name", [*ORACLE_TYPES, "E8", *preset_names()])
def test_rows_and_brackets_of_every_system(name):
    """The base, rescaled and equivariant systems keep the row shape, and
    ``_bracket`` agrees with the oracle bracket on each."""
    if name in preset_names():
        pre = load_preset(name)
        datum, act = pre.datum, pre.action
    else:
        datum = build_preset(name, "sc")
        act = trivial_action(datum)
    sc = base_constants(datum)
    alternating = {i: (-1 if k % 2 else 1) for k, i in enumerate(datum.positive_root_indices())}
    scaled = rescale(sc, alternating)
    for system in (sc, scaled, equivariant_signs(sc, act)[0]):
        _assert_row_shape(system)
        _assert_bracket_matches_oracle(system)
    # flipping the same signs twice restores the table
    assert rescale(scaled, alternating).table == sc.table


def test_rescale_copies_only_the_rows_it_changes():
    sc = base_constants(build_preset("E7", "sc"))
    d = sc.datum
    assert all(r is s for r, s in zip(rescale(sc, {}).table, sc.table, strict=True))
    adjusted, _ = equivariant_signs(sc, trivial_action(d))
    assert all(r is s for r, s in zip(adjusted.table, sc.table, strict=True))
    # one flipped pair +-f: in a reduced datum at most one of i, j, i + j is
    # +-f, so an entry changes exactly when it touches +-f
    before = [dict(row) for row in sc.table]
    sums = d.root_sums()
    f = d.positive_root_indices()[10]
    flipped = {f, d.negative_of(f)}
    one = rescale(sc, {f: -1})
    for i, (row, new) in enumerate(zip(sc.table, one.table, strict=True)):
        touched = i in flipped or any({j, sums[i][j]} & flipped for j in row)
        assert (new is not row) == touched == (new != row), i
    assert sc.table == before
    assert rescale(one, {f: -1}).table == sc.table


def test_extraspecial_pairs_start_simple():
    datum = build_preset("D4", "sc")
    sc = base_constants(datum)
    simple = set(datum.basis_indices)
    for gamma, (a, b) in sc.xs_pair.items():
        assert a in simple
        assert sc.table[a][b] > 0  # normalization: extraspecial constants positive
        s = tuple(x + y for x, y in zip(datum.roots[a], datum.roots[b]))
        assert datum.root_index(s) == gamma


def test_bracket_basis_relations():
    datum = build_preset("A2", "sc")
    sc = base_constants(datum)
    i0, i1 = datum.basis_indices
    neg0 = datum.negative_of(i0)
    # [X_a, X_{-a}] = H_{a^vee}
    h = bracket(sc, ("r", i0), ("r", neg0))
    assert h == {("h", k): c for k, c in enumerate(datum.coroots[i0]) if c}
    # [H_u, X_a] = <a, u> X_a
    x = bracket(sc, ("h", 0), ("r", i1))
    assert x == {("r", i1): datum.roots[i1][0]}


def test_rescale_preserves_magnitudes_and_jacobi():
    datum = build_preset("B2", "sc")
    sc = base_constants(datum)
    pos = datum.positive_root_indices()
    eps = {i: (-1 if k % 2 else 1) for k, i in enumerate(pos)}
    scaled = rescale(sc, eps)
    assert verify_jacobi(scaled)
    flat = flat_table(scaled.table)
    for key, v in flat_table(sc.table).items():
        assert abs(flat[key]) == abs(v)
    # flipping the same signs twice restores the base table
    back = rescale(scaled, eps)
    assert back.table == sc.table


def test_base_constants_rejects_nonreduced():
    pre = load_preset("A2-sc-flip")
    nr = folded_root_datum(pre.datum, pre.action, "nonreduced")
    with pytest.raises(DomainError):
        base_constants(nr.datum)


def test_automorphism_constants_are_signs():
    datum, act = type_a_flip(3)
    sc = base_constants(datum)
    tables = automorphism_constants(sc, act)
    assert len(tables) == act.order
    for c in tables:
        assert set(c) == set(datum.positive_root_indices())
        assert set(c.values()) <= {1, -1}
        for i in datum.basis_indices:
            assert c[i] == 1


def test_a2_flip_special_discrepancy():
    datum, act = type_a_flip(2)
    adjusted, classes = equivariant_signs(base_constants(datum), act)
    report = check_equivariance(adjusted, act, classes)
    assert report.nonspecial_all_satisfied
    # the flip sends [X_1, X_2] to [X_2, X_1]: sign flips on the special root
    assert report.special_values == (-1, 1)


def test_equivariant_signs_across_catalog():
    for name in preset_names():
        pre = load_preset(name)
        if pre.datum.nroots == 0:
            continue
        sc = base_constants(pre.datum)
        adjusted, classes = equivariant_signs(sc, pre.action)
        report = check_equivariance(adjusted, pre.action, classes)
        assert report.nonspecial_all_satisfied
        assert set(report.special_values) <= {1, -1}
        flat = flat_table(adjusted.table)
        for key, v in flat_table(sc.table).items():
            assert abs(flat[key]) == abs(v)


@pytest.mark.parametrize(
    "name,flips",
    [
        ("A3-sc-flip", 1),
        ("A4-sc-flip", 1),
        ("A5-sc-flip", 3),
        ("D4-sc-triality", 3),
        ("D4-sc-cyclic3", 3),
        ("E6-sc-flip", 7),
    ],
)
def test_sign_flip_counts_frozen(name, flips):
    pre = load_preset(name)
    adjusted, _ = equivariant_signs(base_constants(pre.datum), pre.action)
    assert sum(1 for v in adjusted.eps.values() if v == -1) == flips
    for i in pre.datum.basis_indices:
        assert adjusted.eps[i] == 1


def test_d4_full_s3_equivariance():
    # order-6 action: orbit propagation alone makes the system equivariant,
    # and the explicit bracket-word system agrees with it orbit by orbit
    pre = load_preset("D4-sc-triality")
    assert pre.action.order == 6
    sc = base_constants(pre.datum)
    adjusted, classes = equivariant_signs(sc, pre.action)
    report = check_equivariance(adjusted, pre.action, classes)
    assert report.nonspecial_all_satisfied
    assert report.special_values == ()  # no type II classes on D4
    assert verify_jacobi(adjusted)

    (comp,) = pre.datum.components()
    words = bracket_word_signs(sc, comp)
    by_words = rescale(sc, words)
    assert verify_jacobi(by_words)
    assert check_equivariance(by_words, pre.action, classes).nonspecial_all_satisfied
    for orbit in pre.action.orbits("positive"):
        ratios = {words.get(y, 1) * adjusted.eps[y] for y in orbit}
        assert len(ratios) == 1, orbit


def test_trivial_action_needs_no_adjustment():
    datum = build_preset("A3", "sc")
    act = trivial_action(datum)
    sc = base_constants(datum)
    adjusted, classes = equivariant_signs(sc, act)
    assert adjusted.table == sc.table
    assert all(v == 1 for v in adjusted.eps.values())
    report = check_equivariance(sc, act, classes)
    assert report.nonspecial_all_satisfied
    assert report.special_values == ()


def test_adjusted_system_still_satisfies_jacobi():
    for name in ("A4-sc-flip", "A2+A2-sc-swap"):
        pre = load_preset(name)
        adjusted, _ = equivariant_signs(base_constants(pre.datum), pre.action)
        assert verify_jacobi(adjusted)
