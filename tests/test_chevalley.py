"""Structure constants, Jacobi identity, equivariant sign adjustment."""

import ast

import pytest

from foldlab import chevalley
from foldlab.chevalley import (
    StructureConstants,
    _bracket_table,
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
    chain_length_by_tuples,
    rescale_by_tuples,
    special_pairs_by_scan,
)
from jacobi_oracle import (
    bracket,
    bracket_table_by_brackets,
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
    sc = base_constants(datum)
    assert sc.table
    assert {abs(v) for v in sc.table.values()} == {1}
    for (i, j), v in sc.table.items():
        assert sc.table[(j, i)] == -v


def test_b2_attains_two():
    datum = build_preset("B2", "sc")
    sc = base_constants(datum)
    assert {abs(v) for v in sc.table.values()} == {1, 2}


def test_g2_attains_three():
    datum = build_preset("G2", "sc")
    sc = base_constants(datum)
    assert {abs(v) for v in sc.table.values()} == {1, 2, 3}


def test_magnitudes_equal_chain_lengths():
    for ctype in ("A3", "B2", "G2", "D4"):
        datum = build_preset(ctype, "sc")
        sc = base_constants(datum)
        for (i, j), v in sc.table.items():
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


# changes to a table of constants, each keyed by what it does to N(i, j),
# with neg the datum's negative_of: the pair changes keep antisymmetry
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
    table = {**sc.table, **MUTATIONS[name](sc.table, i, j, sc.datum.negative_of)}
    return StructureConstants(sc.datum, table, sc.eps, sc.xs_pair, sc.order_key, sc.special)


@pytest.mark.parametrize("ctype", ["A2", "B2", "G2", "A3", "A4", "B3", "C3", "D4", "F4"])
def test_jacobi_matches_bracket_oracle(ctype):
    sc = base_constants(build_preset(ctype, "sc"))
    assert _bracket_table(sc) == bracket_table_by_brackets(sc)
    assert verify_jacobi(sc) is True
    assert verify_jacobi_by_brackets(sc) is True
    entries = list(sc.table)
    # six positions spread over the table, the first entry among them
    for i, j in entries[:: -(-len(entries) // 6)]:
        for name in MUTATIONS:
            broken = _mutated(sc, name, i, j)
            assert _bracket_table(broken) == bracket_table_by_brackets(broken), name
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
    for i, j in list(e7.table)[::500]:
        broken = _mutated(e7, "omega", i, j)
        assert _generators_checked(broken, monkeypatch) == base + [
            e7.datum.negative_of(g) for g in base
        ]


def test_jacobi_rejects_a_bracket_off_its_weight(monkeypatch):
    sc = base_constants(build_preset("A2", "sc"))
    keys, br = _bracket_table(sc)
    i, j = next(iter(sc.table))
    ((s, x),) = br[i][j]
    wrong = next(k for k in range(sc.datum.nroots) if k != s)
    br[i][j], br[j][i] = ((wrong, x),), ((wrong, -x),)
    monkeypatch.setattr(chevalley, "_bracket_table", lambda _: (keys, br))
    with pytest.raises(InternalInconsistencyError, match=r"is not of their weight$"):
        verify_jacobi(sc)


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


@pytest.mark.parametrize("ctype", ORACLE_TYPES)
def test_base_constants_match_tuple_oracle(ctype):
    datum = build_preset(ctype, "sc")
    sc = base_constants(datum)
    assert _fields(sc) == _fields(base_constants_by_tuples(datum))
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


def test_extraspecial_pairs_start_simple():
    datum = build_preset("D4", "sc")
    sc = base_constants(datum)
    simple = set(datum.basis_indices)
    for gamma, (a, b) in sc.xs_pair.items():
        assert a in simple
        assert sc.table[(a, b)] > 0  # normalization: extraspecial constants positive
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
    for key, v in sc.table.items():
        assert abs(scaled.table[key]) == abs(v)
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
        for key, v in sc.table.items():
            assert abs(adjusted.table[key]) == abs(v)


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
    # order-6 action: the bracket-word seed and orbit propagation must agree
    pre = load_preset("D4-sc-triality")
    adjusted, classes = equivariant_signs(base_constants(pre.datum), pre.action)
    report = check_equivariance(adjusted, pre.action, classes)
    assert report.nonspecial_all_satisfied
    assert report.special_values == ()  # no type II classes on D4
    assert verify_jacobi(adjusted)


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
