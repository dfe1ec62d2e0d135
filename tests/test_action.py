"""Pinned automorphism groups: validation, closure, orbits."""

import pytest

from foldlab.action import PinnedAction, permutation_matrix, trivial_action
from foldlab.chevalley import automorphism_constants, base_constants, check_equivariance
from foldlab.criteria import BaseSpec, decide
from foldlab.errors import DomainError, InvalidActionError, ResourceLimitError
from foldlab.folding import (
    active_even_a_components,
    center_structure,
    equivalence_classes,
    isogeny_injectivity_check,
)
from foldlab.intlat import IntMatrix
from foldlab.presets import load_preset, preset_names, type_a_flip
from foldlab.rootdata import build_preset, build_torus
from orbit_oracle import orbits_by_generators


def test_trivial_action():
    datum = build_preset("A2", "sc")
    act = trivial_action(datum)
    assert act.order == 1
    assert act.element_permutations() == (tuple(range(datum.nroots)),)


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


def _factor_action(factors, *images):
    """A2^factors with generators permuting its A2 factors as ``images``."""
    datum = build_preset("+".join(["A2"] * factors))
    rank = 2 * factors
    gens = [
        permutation_matrix({i: 2 * img[i // 2] + i % 2 for i in range(rank)}, rank)
        for img in images
    ]
    return datum, PinnedAction(datum, gens)


@pytest.mark.parametrize("name", [*preset_names(), "A2+A2+A2-S3"])
def test_component_permutation_is_multiplicative(name):
    # sigma(ab) = sigma(a) o sigma(b) over all pairs, which holds by
    # construction of the element permutations
    if name in preset_names():
        act = load_preset(name).action
    else:
        _, act = _factor_action(3, (1, 0, 2), (1, 2, 0))
        assert act.order == 6
    sigma = act.component_permutations()
    for a in act.elements:
        for b in act.elements:
            assert sigma[a @ b] == tuple(sigma[a][j] for j in sigma[b])


# the wreath actions of the D4 product digests of test_cli: every D4 factor
# carries the full S3, and the factors are permuted cyclically
D4_PRODUCTS = {
    "D4+D4": "2,1,3,0,4,5,6,7; 0,1,3,2,4,5,6,7; 0,1,2,3,6,5,7,4; 0,1,2,3,4,5,7,6; 4,5,6,7,0,1,2,3",
    "D4+D4+D4": "2,1,3,0,4,5,7,6,10,9,11,8; 4,5,6,7,8,9,10,11,0,1,2,3",
}


@pytest.mark.parametrize("name", [*preset_names(), *D4_PRODUCTS])
def test_orbits_match_generator_search(name):
    if name in D4_PRODUCTS:
        datum = build_preset(name)
        gens = [
            permutation_matrix(dict(enumerate(map(int, chunk.split(",")))), datum.rank)
            for chunk in D4_PRODUCTS[name].split(";")
        ]
        act = PinnedAction(datum, gens)
    else:
        act = load_preset(name).action
    for items in ("roots", "positive", "simple"):
        assert act.orbits(items) == orbits_by_generators(act, items), items
    # the closed group exhausts each orbit from any one of its members
    perms = act.element_permutations()
    for orbit in act.orbits("roots"):
        assert set(orbit) == {perm[orbit[0]] for perm in perms}


def test_component_permutations_multiply_no_elements(monkeypatch):
    # checking multiplicativity here would take 120^2 = 14,400 products
    _, act = _factor_action(5, (1, 0, 2, 3, 4), (1, 2, 3, 4, 0))
    assert act.order == 120
    products = []
    matmul = IntMatrix.__matmul__

    def counting(self, other):
        products.append(other)
        return matmul(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting)
    sigma = act.component_permutations()
    assert len(set(sigma.values())) == 120
    assert not products


def test_stabilizer_moves_component_triality():
    pre = load_preset("D4-sc-triality")
    datum, act = pre.datum, pre.action
    assert act.stabilizer_moves_component(0)
    datum2, act2 = type_a_flip(2)
    assert act2.stabilizer_moves_component(0)
    assert not trivial_action(datum2).stabilizer_moves_component(0)


def test_dual_matrices_act_on_coroots():
    datum, act = type_a_flip(2)
    for g, perm in zip(act.elements, act.element_permutations()):
        dual = g.inverse_unimodular().transpose()
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
    with pytest.raises(DomainError):
        load_preset("Z9-mystery")


_TAKES_AN_ACTION = {
    "active_even_a_components": active_even_a_components,
    "automorphism_constants": lambda d, a: automorphism_constants(base_constants(d), a),
    "center_structure": center_structure,
    "check_equivariance": lambda d, a: check_equivariance(base_constants(d), a, ()),
    "decide": lambda d, a: decide(d, a, BaseSpec.all_primes()),
    "equivalence_classes": equivalence_classes,
    "fibers": lambda d, a: decide(d, a, BaseSpec.all_primes()).fibers((0, 2)),
    "isogeny_injectivity_check": isogeny_injectivity_check,
}


@pytest.mark.parametrize("other", ["A2+A2", "A4-adjoint", "E6"])
@pytest.mark.parametrize("name", list(_TAKES_AN_ACTION))
def test_action_built_for_another_datum_is_refused(name, other):
    call = _TAKES_AN_ACTION[name]
    pre = load_preset("A4-sc-flip")
    datum = build_preset("A4", "adjoint") if other == "A4-adjoint" else build_preset(other)
    with pytest.raises(DomainError, match="^action was built for a different datum$"):
        call(datum, pre.action)
    call(pre.datum, pre.action)  # the datum it was built for
