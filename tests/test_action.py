"""Pinned automorphism groups: validation, closure, orbits."""

import pytest

from foldlab.action import PinnedAction, permutation_matrix, trivial_action
from foldlab.errors import InvalidActionError, ResourceLimitError
from foldlab.intlat import IntMatrix
from foldlab.presets import load_preset, preset_names, type_a_flip
from foldlab.rootdata import build_preset, build_torus


def test_trivial_action():
    datum = build_preset("A2", "sc")
    act = trivial_action(datum)
    assert act.order == 1
    assert act.root_permutation(act.elements[0]) == tuple(range(datum.nroots))


def test_flip_order_and_orbits():
    datum, act = type_a_flip(2)
    assert act.order == 2
    sizes = sorted(len(o) for o in act.orbits("positive") for _ in o)
    assert sizes == [1, 2, 2]  # theta fixed, alpha1 <-> alpha2 counted twice


def test_a4_flip_orbit_sizes():
    datum, act = type_a_flip(4)
    orbits = set(act.orbits("positive"))
    assert sorted(len(o) for o in orbits) == [1, 1, 2, 2, 2, 2]


def test_triality_orders():
    pre = load_preset("D4-sc-triality")
    _, act = pre.datum, pre.action
    assert act.order == 6
    pre = load_preset("D4-sc-cyclic3")
    _, act3 = pre.datum, pre.action
    assert act3.order == 3


def test_element_permutations_are_group():
    pre = load_preset("D4-sc-cyclic3")
    datum, act = pre.datum, pre.action
    perms = act.element_permutations()
    assert len(perms) == 3
    ident = tuple(range(datum.nroots))
    assert ident in perms
    # closed under composition
    vals = set(perms)
    for a in vals:
        for b in vals:
            assert tuple(a[i] for i in b) in vals


def test_wrong_size_rejected():
    datum = build_preset("A2", "sc")
    with pytest.raises(InvalidActionError):
        PinnedAction(datum, [IntMatrix.identity(3)])


def test_non_root_permuting_rejected():
    datum = build_preset("A2", "sc")
    with pytest.raises(InvalidActionError):
        PinnedAction(datum, [IntMatrix([[1, 1], [0, 1]])])


def test_base_not_preserved_rejected():
    # -identity permutes the A2 roots but sends the base to negative roots
    datum = build_preset("A2", "sc")
    with pytest.raises(InvalidActionError):
        PinnedAction(datum, [IntMatrix([[-1, 0], [0, -1]])])


def test_non_unimodular_rejected():
    t = build_torus(1)
    with pytest.raises(InvalidActionError):
        PinnedAction(t, [IntMatrix([[2]])])


@pytest.mark.parametrize(
    "matrix", [[[2]], [[0]], [[1, 2], [2, 4]], [[2, 1], [1, 2]]], ids=["2", "0", "singular", "det3"]
)
def test_non_unimodular_generator_message(matrix):
    # decided by the Smith form behind the inverse, not by a determinant
    with pytest.raises(InvalidActionError, match="^generator is not unimodular$"):
        PinnedAction(build_torus(len(matrix)), [IntMatrix(matrix)])


def test_generator_duals_are_inverse_transposes():
    for name in preset_names():
        act = load_preset(name).action
        assert act.generator_duals == tuple(
            g.inverse_unimodular().transpose() for g in act.generators
        )


def test_closure_limit():
    datum = build_preset("A2", "sc")
    flip = IntMatrix([[0, 1], [1, 0]])
    with pytest.raises(ResourceLimitError):
        PinnedAction(datum, [flip], limit=1)


def test_component_permutations():
    pre = load_preset("A2+A2-sc-swap")
    datum, act = pre.datum, pre.action
    comp_perms = act.component_permutations()
    assert act.component_permutations() is comp_perms  # computed once per action
    swaps = [p for p in comp_perms.values() if p != (0, 1)]
    assert len(swaps) == 1 and swaps[0] == (1, 0)
    # the stabilizer of either factor is trivial, so neither is moved by it
    assert not act.stabilizer_moves_component(0)
    assert not act.stabilizer_moves_component(1)


def test_stabilizer_moves_component_triality():
    pre = load_preset("D4-sc-triality")
    datum, act = pre.datum, pre.action
    assert act.stabilizer_moves_component(0)
    datum2, act2 = type_a_flip(2)
    assert act2.stabilizer_moves_component(0)
    assert not trivial_action(datum2).stabilizer_moves_component(0)


def test_dual_matrices_act_on_coroots():
    datum, act = type_a_flip(2)
    for g in act.elements:
        dual = g.inverse_unimodular().transpose()
        perm = act.root_permutation(g)
        for i in range(datum.nroots):
            assert dual.apply(datum.coroots[i]) == datum.coroots[perm[i]]


def test_permutation_matrix_helper():
    m = permutation_matrix({0: 1, 1: 0, 2: 2}, 3)
    assert m.apply((1, 0, 0)) == (0, 1, 0)
    assert m.apply((0, 0, 1)) == (0, 0, 1)


def test_preset_catalog_loads():
    names = preset_names()
    assert len(names) == 9
    assert list(names) == sorted(names)
    for name in names:
        pre = load_preset(name)
        assert pre.action.order >= 1
        assert pre.name == name


def test_unknown_preset():
    from foldlab.errors import DomainError

    with pytest.raises(DomainError):
        load_preset("Z9-mystery")
