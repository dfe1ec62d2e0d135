"""Acceptance gate: eight end-to-end checks with runtime budgets.

Each criterion is one test; the terminal summary prints one PASS/FAIL
line per criterion (see conftest.py).
"""

import itertools
import time

from foldlab.chevalley import (
    base_constants,
    chain_length,
    check_equivariance,
    equivariant_signs,
    verify_jacobi,
)
from foldlab.criteria import BaseSpec, decide, fiber_report
from foldlab.folding import (
    equivalence_classes,
    fixed_weyl,
    folded_root_datum,
    isogeny_injectivity_check,
)
from foldlab.intlat import FinAbGroup
from foldlab.matrixlab import tangent_dim, u3_fixed_presentation, verify_fixed_count
from foldlab.poly import Poly
from foldlab.presets import load_preset, preset_names, type_a_flip
from foldlab.rootdata import cartan_type_of
from constants_oracle import flat_table


def test_criterion_1_rank_one_folding_golden():
    start = time.monotonic()
    datum, act = type_a_flip(2)
    r1 = folded_root_datum(datum, act, "R1")
    # adjoint rank-1 datum: root has coordinate 1, coroot coordinate 2
    assert sorted(r1.datum.roots) == [(-1,), (1,)]
    assert sorted(r1.datum.coroots) == [(-2,), (2,)]
    r2 = folded_root_datum(datum, act, "R2")
    # simply connected rank-1 datum: the opposite lattice position
    assert sorted(r2.datum.roots) == [(-2,), (2,)]
    assert sorted(r2.datum.coroots) == [(-1,), (1,)]
    assert time.monotonic() - start < 1.0


def test_criterion_2_d4_triality_g2():
    start = time.monotonic()
    pre = load_preset("D4-sc-triality")
    classes = equivalence_classes(pre.datum, pre.action)
    assert len(classes) == 6
    assert all(c.kind == "I" for c in classes)
    folded = folded_root_datum(pre.datum, pre.action, "R1")
    assert cartan_type_of(folded.datum).components == (("G", 2),)
    base = folded.datum.basis_indices
    off = sorted(
        folded.datum.pairing(base[j], base[i]) for i in (0, 1) for j in (0, 1) if i != j
    )
    assert off == [-3, -1]
    fw = fixed_weyl(pre.datum, pre.action)
    assert fw.order == 12
    assert folded.datum.weyl_group().order == 12
    assert time.monotonic() - start < 1.0


def test_criterion_3_point_count_equality():
    start = time.monotonic()
    expected = {(1, 2): 6, (1, 3): 24, (1, 4): 60, (1, 5): 120, (2, 2): 720}
    for (n, q), value in expected.items():
        rep = verify_fixed_count(n, q)
        assert rep.agree, (n, q, rep.brute, rep.predicted)
        assert rep.brute == value
    assert expected[(2, 2)] == 720  # the classical Sp_4(F_2) order
    assert time.monotonic() - start < 120.0


def test_criterion_4_smoothness_tangent_agreement():
    start = time.monotonic()
    datum, act = type_a_flip(2)
    dim = fiber_report(datum, act, 3).dimension
    assert tangent_dim(1, 3) == 3 == dim  # smooth at 3
    assert tangent_dim(1, 2) > 3  # nonsmooth at 2
    assert decide(datum, act, BaseSpec.all_primes()).smooth is False
    assert decide(datum, act, BaseSpec.of_primes([3, 5])).smooth is True
    assert time.monotonic() - start < 10.0


def test_criterion_5_u3_fixed_ideal():
    pres = u3_fixed_presentation()
    assert pres.relation == Poly(2, {(2, 0): 1, (0, 1): -2})  # exactly x^2 - 2y
    assert pres.is_smooth_mod(2) is False
    assert pres.is_smooth_mod(3) is True


def test_criterion_6_chevalley_suite():
    start = time.monotonic()
    names = (
        "A2-sc-flip",
        "A3-sc-flip",
        "A2+A2-sc-swap",
        "D4-sc-triality",
        "D4-sc-cyclic3",
    )
    for name in names:
        pre = load_preset(name)
        sc = base_constants(pre.datum)
        adjusted, classes = equivariant_signs(sc, pre.action)
        for (i, j), v in flat_table(adjusted.table).items():
            assert abs(v) == chain_length(pre.datum, i, j)
        assert verify_jacobi(adjusted)
        report = check_equivariance(adjusted, pre.action, classes)
        assert report.nonspecial_all_satisfied
        assert set(report.special_values) <= {1, -1}
    assert time.monotonic() - start < 30.0


def test_criterion_7_invariant_suite():
    for name in preset_names():
        pre = load_preset(name)
        datum, act = pre.datum, pre.action
        classes = equivalence_classes(datum, act)
        cls_of = {i: k for k, c in enumerate(classes) for i in c.members}

        # closure under positive combinations
        for k, c in enumerate(classes):
            for a, b in itertools.combinations(c.members, 2):
                for i, j in itertools.product((1, 2, 3), repeat=2):
                    v = tuple(
                        i * x + j * y for x, y in zip(datum.roots[a], datum.roots[b])
                    )
                    if datum.is_root(v):
                        assert cls_of[datum.root_index(v)] == k

        # class images nonzero and pairwise non-proportional
        folded = folded_root_datum(datum, act, "R1")
        images = [
            folded.lattice.free_image(datum.roots[c.representative])
            for c in classes
        ]
        for img in images:
            assert any(x != 0 for x in img)
        for u, v in itertools.combinations(images, 2):
            assert any(
                u[i] * v[j] != u[j] * v[i]
                for i in range(len(u))
                for j in range(len(u))
            )

        # <alpha, gamma-vee> = 2 in every variant; doubling bijection
        fw_order = fixed_weyl(datum, act).order
        for variant in ("R1", "R2", "nonreduced"):
            f = folded_root_datum(datum, act, variant)
            for i in range(f.datum.nroots):
                assert f.datum.pairing(i, i) == 2
        for variant in ("R1", "R2"):
            f = folded_root_datum(datum, act, variant)
            if f.datum.nroots:
                assert f.datum.weyl_group().order == fw_order
            else:
                assert fw_order == 1

        nr = folded_root_datum(datum, act, "nonreduced").datum
        multipliable = [
            i for i in range(nr.nroots) if nr.is_root(tuple(2 * x for x in nr.roots[i]))
        ]
        divisible = set()
        for i in multipliable:
            j = nr.root_index(tuple(2 * x for x in nr.roots[i]))
            assert j not in divisible  # doubling is injective
            divisible.add(j)
        assert len(divisible) == len(multipliable)
        assert divisible.isdisjoint(multipliable)

        assert isogeny_injectivity_check(datum, act)


def test_criterion_8_component_groups():
    datum, act = type_a_flip(2)
    for p in (0, 2, 3, 5):
        assert fiber_report(datum, act, p).component_group.is_trivial
    pre = load_preset("A1-torus-inversion")
    for p in (3, 5, 7):
        assert fiber_report(pre.datum, pre.action, p).component_group == FinAbGroup(
            0, (2,)
        )
    assert fiber_report(pre.datum, pre.action, 2).component_group.is_trivial
