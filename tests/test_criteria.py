"""Flatness, connectedness, smoothness, and fiber reports."""

import pytest

from foldlab import folding, rootdata
from foldlab.criteria import (
    BaseSpec,
    decide,
    fiber_report,
)
from foldlab.errors import DomainError
from foldlab.folding import active_even_a_components, equivalence_classes
from foldlab.intlat import FinAbGroup
from foldlab.presets import load_preset, preset_names, type_a_flip
from foldlab.action import PinnedAction, permutation_matrix, trivial_action


def test_base_spec_validation():
    assert BaseSpec.all_primes().has_residual(7)
    b = BaseSpec.of_primes([3, 5])
    assert b.has_residual(3) and not b.has_residual(2)
    assert BaseSpec.of_primes([]).describe()
    for bad in ([4], [1], [-3], [2, 2, 0]):
        with pytest.raises(DomainError):
            BaseSpec.of_primes(bad)


def test_flat_always():
    for name in preset_names():
        pre = load_preset(name)
        rep = decide(pre.datum, pre.action, BaseSpec.all_primes())
        assert rep.flat


def test_a2_flip_all_primes():
    datum, act = type_a_flip(2)
    rep = decide(datum, act, BaseSpec.all_primes())
    assert rep.flat
    assert rep.geometrically_connected  # coinvariants torsion-free
    assert not rep.smooth  # active even-A chain and 2 is residual
    assert rep.torsion_free
    assert rep.has_active_even_a
    assert rep.torsion == FinAbGroup(1, ())


def test_a2_flip_odd_residual_primes():
    datum, act = type_a_flip(2)
    rep = decide(datum, act, BaseSpec.of_primes([3, 5]))
    assert rep.smooth
    assert rep.geometrically_connected


def test_a2_flip_at_two_only():
    datum, act = type_a_flip(2)
    rep = decide(datum, act, BaseSpec.of_primes([2]))
    assert not rep.smooth
    assert rep.geometrically_connected


def test_a3_flip_smooth_everywhere():
    # no even-A component is active and coinvariants are torsion-free
    datum, act = type_a_flip(3)
    rep = decide(datum, act, BaseSpec.all_primes())
    assert rep.smooth
    assert rep.geometrically_connected
    assert not rep.has_active_even_a


def test_a4_flip_matches_a2_pattern():
    datum, act = type_a_flip(4)
    assert not decide(datum, act, BaseSpec.all_primes()).smooth
    assert decide(datum, act, BaseSpec.of_primes([3])).smooth
    assert not decide(datum, act, BaseSpec.of_primes([2])).smooth


def test_torus_inversion_decisions():
    pre = load_preset("A1-torus-inversion")
    datum, act = pre.datum, pre.action
    allp = decide(datum, act, BaseSpec.all_primes())
    assert allp.flat
    assert not allp.geometrically_connected  # mu_2 over F_3 has two points
    assert not allp.smooth  # torsion order 2 not coprime to 2
    assert allp.torsion == FinAbGroup(0, (2,))

    at3 = decide(datum, act, BaseSpec.of_primes([3]))
    assert not at3.geometrically_connected
    assert at3.smooth

    at2 = decide(datum, act, BaseSpec.of_primes([2]))
    assert at2.geometrically_connected  # single residual prime 2, torsion a 2-group
    assert not at2.smooth


def test_empty_residual_set():
    # no positive residual characteristic: smooth always, connected iff torsion-free
    datum, act = type_a_flip(2)
    rep = decide(datum, act, BaseSpec.of_primes([]))
    assert rep.smooth and rep.geometrically_connected
    pre = load_preset("A1-torus-inversion")
    rep = decide(pre.datum, pre.action, BaseSpec.of_primes([]))
    assert rep.smooth
    assert not rep.geometrically_connected
    assert rep.geometrically_connected == rep.torsion_free


def test_quasi_reductive_per_prime():
    datum, act = type_a_flip(4)
    rep = decide(datum, act, BaseSpec.of_primes([2, 3]))
    assert rep.quasi_reductive_over_mixed_char_dvr == {2: True, 3: True}
    pre = load_preset("A1-torus-inversion")
    rep = decide(pre.datum, pre.action, BaseSpec.of_primes([2, 3]))
    assert rep.quasi_reductive_over_mixed_char_dvr == {2: False, 3: False}


def test_active_even_a_components():
    datum, act = type_a_flip(4)
    assert active_even_a_components(datum, act) == (0,)
    datum3, act3 = type_a_flip(3)
    assert active_even_a_components(datum3, act3) == ()
    pre = load_preset("A2+A2-sc-swap")
    assert active_even_a_components(pre.datum, pre.action) == ()
    datum2, _ = type_a_flip(2)
    assert active_even_a_components(datum2, trivial_action(datum2)) == ()


def test_component_types_are_recognized_once_per_datum(monkeypatch):
    calls = []
    recognize = rootdata._cartan_components
    monkeypatch.setattr(rootdata, "_cartan_components", lambda a: calls.append(a) or recognize(a))
    flip, pre = type_a_flip(4), load_preset("A2+A2-sc-swap")
    assert len(calls) == 2  # the builder's finite-type check, once per datum
    d = pre.datum
    given = rootdata.RootDatum(d.rank, d.roots, d.coroots, d.basis_indices)
    cases = [flip, (d, pre.action), (given, PinnedAction(given, pre.action.generators))]
    for datum, act in cases:
        decide(datum, act, BaseSpec.all_primes())
        decide(datum, act, BaseSpec.all_primes()).fibers((0, 2, 3))
        assert active_even_a_components(datum, act) == active_even_a_components(datum, act)
        assert datum.component_types() is datum.component_types()
    # a datum given by its roots is recognized while it is validated, by
    # the walk from its base, and not again on use
    assert len(calls) == 3


def _product(ctype, isogeny, *images):
    """The datum of ctype with the diagram automorphisms that send simple
    root j to simple root images[j]."""
    datum = rootdata.build_preset(ctype, isogeny)
    return datum, PinnedAction(datum, [permutation_matrix(img, datum.rank) for img in images])


# (type, generators, #type II classes, active components, dimension): data
# whose type II classes span components, and one whose stabilizers are trivial
PRODUCTS = {
    "A2+A2-swap-flips": (
        "A2+A2", [{0: 2, 1: 3, 2: 0, 3: 1}, {0: 1, 1: 0, 2: 3, 3: 2}], 1, (0, 1), 3
    ),
    "A2+A4-flips": (
        "A2+A4", [{0: 1, 1: 0, 2: 2, 3: 3, 4: 4, 5: 5}, {0: 0, 1: 1, 2: 5, 3: 4, 4: 3, 5: 2}],
        3, (0, 1), 13,
    ),
    "A4+A4-swap-flips": (
        "A4+A4",
        [{j: (j + 4) % 8 for j in range(8)}, {j: 3 - j if j < 4 else 11 - j for j in range(8)}],
        2, (0, 1), 10,
    ),
    "A2+A2+A2-cycle-flips": (
        "A2+A2+A2",
        [{j: (j + 2) % 6 for j in range(6)}, {j: j ^ 1 for j in range(6)}],
        1, (0, 1, 2), 3,
    ),
    "A2+A2-swap-flip": ("A2+A2", [{0: 3, 1: 2, 2: 1, 3: 0}], 0, (), 8),
}


@pytest.mark.parametrize(
    "name,isogeny",
    [
        (name, isogeny)
        for name in [*preset_names(), *PRODUCTS]
        for isogeny in ("sc", "adjoint")
        if (name, isogeny) != ("A1-torus-inversion", "adjoint")  # a torus has one datum
    ],
)
def test_even_a_flag_read_off_the_classes(name, isogeny):
    if name in PRODUCTS:
        ctype, images, type_two, active, dimension = PRODUCTS[name]
        datum, act = _product(ctype, isogeny, *images)
    else:
        pre = load_preset(name)
        datum, act = pre.datum, pre.action
        if isogeny == "adjoint":
            base = datum.basis_indices
            images = [{j: base.index(g[r]) for j, r in enumerate(base)} for g in act.generator_perms]
            datum, act = _product(rootdata.cartan_type_of(datum), isogeny, *images)
    rep = decide(datum, act, BaseSpec.all_primes())
    assert rep.has_active_even_a == bool(active_even_a_components(datum, act))
    if name in PRODUCTS:
        classes = equivalence_classes(datum, act)
        assert sum(cls.kind == "II" for cls in classes) == type_two
        assert active_even_a_components(datum, act) == active
        assert rep.dimension == dimension


@pytest.mark.parametrize("rank", [2, 4])
def test_decide_tests_the_components_once(monkeypatch, rank):
    # one A_rank component: one component test is one stabilizer question
    calls, asked = [], []
    test, moves = folding.active_even_a_components, PinnedAction.stabilizer_moves_component
    monkeypatch.setattr(folding, "active_even_a_components", lambda d, a: calls.append(d) or test(d, a))
    monkeypatch.setattr(PinnedAction, "stabilizer_moves_component", lambda a, c: asked.append(c) or moves(a, c))
    datum, act = type_a_flip(rank)
    assert decide(datum, act, BaseSpec.all_primes()).has_active_even_a
    assert len(calls) == len(asked) == 1


def test_fiber_report_a2_flip():
    datum, act = type_a_flip(2)
    at0 = fiber_report(datum, act, 0)
    assert at0.dimension == 3
    assert at0.reduced
    assert at0.variant == "R1"
    assert at0.component_group.is_trivial

    at2 = fiber_report(datum, act, 2)
    assert at2.dimension == 3
    assert not at2.reduced
    assert at2.variant == "R2"
    assert at2.component_group.is_trivial

    at3 = fiber_report(datum, act, 3)
    assert at3.reduced and at3.variant == "R1"


def test_fiber_report_a4_flip():
    datum, act = type_a_flip(4)
    at2 = fiber_report(datum, act, 2)
    assert at2.dimension == 10
    assert not at2.reduced
    assert at2.variant == "R2"
    at3 = fiber_report(datum, act, 3)
    assert at3.dimension == 10
    assert at3.reduced


def test_fiber_report_torus_inversion():
    pre = load_preset("A1-torus-inversion")
    at3 = fiber_report(pre.datum, pre.action, 3)
    assert at3.dimension == 0
    assert at3.component_group == FinAbGroup(0, (2,))
    at2 = fiber_report(pre.datum, pre.action, 2)
    assert at2.component_group.is_trivial  # 2-part is infinitesimal at p=2
    at0 = fiber_report(pre.datum, pre.action, 0)
    assert at0.component_group == FinAbGroup(0, (2,))


def test_fiber_dimension_constant_in_p():
    for name in preset_names():
        pre = load_preset(name)
        reports = decide(pre.datum, pre.action, BaseSpec.all_primes()).fibers((0, 2, 3, 5))
        assert len({r.dimension for r in reports.values()}) == 1
        # one call for all characteristics equals one call per characteristic
        for p, report in reports.items():
            assert report == fiber_report(pre.datum, pre.action, p)


def test_fiber_dimension_formula():
    # dimension = free rank of coinvariants + 2 * number of classes
    from foldlab.folding import equivalence_classes
    from foldlab.intlat import CoinvariantLattice

    for name in preset_names():
        pre = load_preset(name)
        lat = CoinvariantLattice(pre.datum.rank, pre.action.generators)
        n = len(equivalence_classes(pre.datum, pre.action))
        assert fiber_report(pre.datum, pre.action, 0).dimension == lat.free_rank + 2 * n


def test_fiber_report_invalid_characteristic():
    datum, act = type_a_flip(2)
    for bad in (1, 4, -2, 6):
        with pytest.raises(DomainError):
            fiber_report(datum, act, bad)
        with pytest.raises(DomainError):
            decide(datum, act, BaseSpec.all_primes()).fibers((0, 2, bad))


def test_reasons_are_sentences():
    datum, act = type_a_flip(2)
    rep = decide(datum, act, BaseSpec.all_primes())
    assert rep.flat_reason and rep.connected_reason and rep.smooth_reason
    d = rep.as_dict()
    assert d["smooth"] is False
    assert d["coinvariant_free_rank"] == 1


def test_smooth_decision_consistent_with_fiber_reduced():
    for name in preset_names():
        pre = load_preset(name)
        for p in (2, 3, 5):
            rep = decide(pre.datum, pre.action, BaseSpec.of_primes([p]))
            fib = fiber_report(pre.datum, pre.action, p)
            assert rep.smooth == fib.reduced
