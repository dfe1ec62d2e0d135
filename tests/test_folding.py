"""Folding positive roots into equivalence classes and folded root data."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from foldlab import criteria, folding
from foldlab.action import PinnedAction, permutation_matrix, trivial_action
from foldlab.errors import DomainError, InternalInconsistencyError, ResourceLimitError
from foldlab.folding import (
    VARIANTS,
    _direction,
    _vector_sum,
    center_structure,
    equivalence_classes,
    fixed_weyl,
    folded_root_data,
    folded_root_datum,
    isogeny_injectivity_check,
)
from foldlab.intlat import FinAbGroup, IntMatrix
from foldlab.presets import load_preset, preset_names, type_a_flip
from foldlab.rootdata import build_preset, build_torus, cartan_type_of
from folding_oracle import buckets_by_proportional, isogeny_injective_by_lattice, proportional
from weyl_oracle import brute_fixed_weyl, closed_fixed_weyl

CATALOG = [load_preset(name) for name in preset_names()]


def coords_of_members(datum, cls):
    return {datum.simple_coordinates(i) for i in cls.members}


def _oracle_partition(datum, act):
    orbits = act.orbits("positive")
    sums = [_vector_sum([datum.roots[i] for i in orbit]) for orbit in orbits]
    return [[orbits[k] for k in bucket] for bucket in buckets_by_proportional(sums)]


@pytest.mark.parametrize("name", [*preset_names(), "E7", "E8"])
def test_classes_match_pairwise_proportionality_oracle(name):
    if name in ("E7", "E8"):
        datum = build_preset(name, "sc")
        act = trivial_action(datum)
    else:
        pre = load_preset(name)
        datum, act = pre.datum, pre.action
    got = sorted(c.orbits for c in equivalence_classes(datum, act))
    expected = sorted(tuple(sorted(b)) for b in _oracle_partition(datum, act))
    assert got == expected


_vectors = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(-6, 6)] * n), min_size=1, max_size=8
    )
)
_scales = st.lists(st.integers(-3, 3).filter(bool), min_size=8, max_size=8)


@settings(max_examples=200, deadline=None)
@given(_vectors, _scales)
def test_direction_matches_pairwise_proportionality(vectors, scales):
    # scaled copies make proportional pairs common, with both signs; zero
    # vectors stay zero and are proportional to nothing
    vectors = vectors + [tuple(s * x for x in v) for v, s in zip(vectors, scales)]
    for u, v in itertools.product(vectors, repeat=2):
        same = _direction(u) is not None and _direction(u) == _direction(v)
        assert same == proportional(u, v), (u, v)


def test_a2_flip_single_type_two_class():
    datum, act = type_a_flip(2)
    classes = equivalence_classes(datum, act)
    assert len(classes) == 1
    (cls,) = classes
    assert cls.kind == "II"
    assert len(cls.members) == 3
    assert len(cls.special) == 1
    assert datum.simple_coordinates(cls.special[0]) == (1, 1)
    assert sorted(len(o) for o in cls.orbits) == [1, 2]
    assert cls.representative == min(cls.nonspecial)


def test_type_two_check_reads_the_active_components(monkeypatch):
    # the cross-check and the criteria share one even-rank A test
    datum, act = type_a_flip(4)
    monkeypatch.setattr("foldlab.folding.active_even_a_components", lambda d, a: ())
    with pytest.raises(InternalInconsistencyError, match="not an even-rank A moved by"):
        equivalence_classes(datum, act)
    monkeypatch.undo()
    assert equivalence_classes(datum, act)
    # decide takes its even-A flag from the class pass, not from a test of its own
    monkeypatch.setattr("foldlab.criteria.equivalence_classes", lambda d, a: ())
    assert not criteria.decide(datum, act, criteria.BaseSpec.all_primes()).has_active_even_a


def test_every_active_component_carries_a_type_two_class(monkeypatch):
    pre = load_preset("A2+A2-sc-swap")
    assert all(cls.kind == "I" for cls in equivalence_classes(pre.datum, pre.action))
    monkeypatch.setattr("foldlab.folding.active_even_a_components", lambda d, a: (0,))
    with pytest.raises(InternalInconsistencyError, match="carries no type II class$"):
        equivalence_classes(pre.datum, pre.action)


def test_a3_flip_classes_exact():
    datum, act = type_a_flip(3)
    classes = equivalence_classes(datum, act)
    assert [c.kind for c in classes] == ["I", "I", "I", "I"]
    got = [coords_of_members(datum, c) for c in classes]
    expected = [
        {(1, 0, 0), (0, 0, 1)},
        {(0, 1, 0)},
        {(1, 1, 0), (0, 1, 1)},
        {(1, 1, 1)},
    ]
    assert sorted(map(sorted, got)) == sorted(map(sorted, expected))
    for c in classes:
        assert c.special == ()


def test_a4_flip_classes():
    datum, act = type_a_flip(4)
    classes = equivalence_classes(datum, act)
    assert len(classes) == 4
    assert sorted(c.kind for c in classes) == ["I", "I", "II", "II"]
    for c in classes:
        if c.kind == "II":
            assert len(c.members) == 3 and len(c.special) == 1
            # the special root is the sum of the two nonspecial members
            a, b = [datum.simple_coordinates(i) for i in c.nonspecial]
            s = datum.simple_coordinates(c.special[0])
            assert tuple(x + y for x, y in zip(a, b)) == s
        else:
            assert c.special == ()


def test_d4_triality_six_type_one_classes():
    pre = load_preset("D4-sc-triality")
    classes = equivalence_classes(pre.datum, pre.action)
    assert len(classes) == 6
    assert all(c.kind == "I" for c in classes)


def test_e6_flip_class_count():
    pre = load_preset("E6-sc-flip")
    classes = equivalence_classes(pre.datum, pre.action)
    assert len(classes) == 24
    assert all(c.kind == "I" for c in classes)


def test_classes_partition_positives():
    for pre in CATALOG:
        classes = equivalence_classes(pre.datum, pre.action)
        seen = [i for c in classes for i in c.members]
        assert sorted(seen) == sorted(pre.datum.positive_root_indices())


def test_classes_closed_under_positive_combinations():
    for pre in CATALOG:
        datum = pre.datum
        classes = equivalence_classes(datum, pre.action)
        cls_of = {i: k for k, c in enumerate(classes) for i in c.members}
        for k, c in enumerate(classes):
            for a, b in itertools.combinations(c.members, 2):
                for i in range(1, 4):
                    for j in range(1, 4):
                        v = tuple(
                            i * x + j * y for x, y in zip(datum.roots[a], datum.roots[b])
                        )
                        if datum.is_root(v):
                            assert cls_of[datum.root_index(v)] == k


def test_class_images_nonzero_and_nonproportional():
    for pre in CATALOG:
        folded = folded_root_datum(pre.datum, pre.action, "R1")
        images = [
            folded.lattice.free_image(pre.datum.roots[c.representative])
            for c in folded.classes
        ]
        for img in images:
            assert any(x != 0 for x in img)
        for u, v in itertools.combinations(images, 2):
            assert not proportional(u, v)


def test_a2_flip_folded_lattices_exact():
    datum, act = type_a_flip(2)
    r1 = folded_root_datum(datum, act, "R1")
    assert sorted(r1.datum.roots) == [(-1,), (1,)]
    assert sorted(r1.datum.coroots) == [(-2,), (2,)]
    r2 = folded_root_datum(datum, act, "R2")
    assert sorted(r2.datum.roots) == [(-2,), (2,)]
    assert sorted(r2.datum.coroots) == [(-1,), (1,)]
    for f in (r1, r2):
        assert cartan_type_of(f.datum).components == (("A", 1),)


def test_d4_triality_folds_to_g2():
    pre = load_preset("D4-sc-triality")
    folded = folded_root_datum(pre.datum, pre.action, "R1")
    assert cartan_type_of(folded.datum).components == (("G", 2),)
    base = folded.datum.basis_indices
    off = sorted(
        folded.datum.pairing(base[j], base[i])
        for i in range(2)
        for j in range(2)
        if i != j
    )
    assert off == [-3, -1]


@pytest.mark.parametrize(
    "name,expected",
    [
        ("A2-sc-flip", (("A", 1),)),
        ("A3-sc-flip", (("C", 2),)),
        ("A4-sc-flip", (("C", 2),)),
        ("A5-sc-flip", (("C", 3),)),
        ("D4-sc-triality", (("G", 2),)),
        ("D4-sc-cyclic3", (("G", 2),)),
        ("A2+A2-sc-swap", (("A", 2),)),
        ("E6-sc-flip", (("F", 4),)),
        ("A1-torus-inversion", ()),
    ],
)
def test_folded_types_catalog(name, expected):
    pre = load_preset(name)
    folded = folded_root_datum(pre.datum, pre.action, "R1")
    assert cartan_type_of(folded.datum).components == expected


@pytest.mark.parametrize(
    "name,order",
    [
        ("A2-sc-flip", 2),
        ("A3-sc-flip", 8),
        ("A4-sc-flip", 8),
        ("A5-sc-flip", 48),
        ("D4-sc-triality", 12),
        ("D4-sc-cyclic3", 12),
        ("A2+A2-sc-swap", 6),
        ("E6-sc-flip", 1152),
        ("A1-torus-inversion", 1),
    ],
)
def test_fixed_weyl_orders(name, order):
    pre = load_preset(name)
    fw = fixed_weyl(pre.datum, pre.action)
    elements = closed_fixed_weyl(pre.datum, fw)
    assert fw.order == order == len(elements)
    assert len(set(elements)) == fw.order
    for g in fw.coxeter_generators:
        assert g in elements
        assert tuple(g[i] for i in g) == tuple(range(len(g)))  # involutions


def test_fixed_weyl_matches_folded_weyl_order():
    for pre in CATALOG:
        fw = fixed_weyl(pre.datum, pre.action)
        for variant in ("R1", "R2"):
            folded = folded_root_datum(pre.datum, pre.action, variant)
            if folded.datum.nroots == 0:
                assert fw.order == 1
            else:
                assert folded.datum.weyl_group().order == fw.order


def test_fixed_weyl_returns_the_folded_variants():
    for pre in CATALOG:
        variants = fixed_weyl(pre.datum, pre.action).variants
        assert tuple(variants) == VARIANTS
        for v in VARIANTS:
            got = variants[v].datum
            want = folded_root_datum(pre.datum, pre.action, v).datum
            assert (got.roots, got.coroots, got.basis_indices, got.reduced) == (
                want.roots,
                want.coroots,
                want.basis_indices,
                want.reduced,
            ), (pre.name, v)


def test_fixed_weyl_coxeter_generator_count():
    # one generator per class meeting the base
    datum, act = type_a_flip(4)
    fw = fixed_weyl(datum, act)
    assert len(fw.coxeter_generators) == 2
    pre = load_preset("E6-sc-flip")
    assert len(fixed_weyl(pre.datum, pre.action).coxeter_generators) == 4


def test_fixed_weyl_matches_brute_force_oracle(weyl_elements):
    # the closure of fixed_weyl's generators has the product of the folded
    # degrees as its order and equals the full-W filter, with the generators
    # found by closing each orbit parabolic; on every preset, on all of
    # W(E6) under the trivial action and on the A7 and A9 flips, whose
    # W(A9) has 3,628,800 elements and is matched by its order only
    e6 = build_preset("E6")
    cases = [(pre.datum, pre.action, True) for pre in CATALOG]
    cases += [(e6, trivial_action(e6), True), (*type_a_flip(7), True), (*type_a_flip(9), False)]
    for datum, act, filter_w in cases:
        fw = fixed_weyl(datum, act)
        closed = closed_fixed_weyl(datum, fw)
        assert len(closed) == fw.order == cartan_type_of(fw.variants["R1"].datum).weyl_order
        if filter_w:
            elements, coxeter = brute_fixed_weyl(datum, act, weyl_elements(datum))
            assert closed == elements
            assert fw.coxeter_generators == coxeter
    assert [fixed_weyl(d, a).order for d, a, _ in cases[-3:]] == [51840, 384, 3840]


def test_fixed_weyl_limit():
    pre = load_preset("E6-sc-flip")
    with pytest.raises(ResourceLimitError):
        fixed_weyl(pre.datum, pre.action, limit=10)


def test_type_two_pairing_tables():
    for rank in (2, 4):
        datum, act = type_a_flip(rank)
        classes = equivalence_classes(datum, act)
        for c in classes:
            if c.kind != "II":
                continue
            r1_coroot = [
                sum(datum.coroots[i][k] for i in c.members) for k in range(datum.rank)
            ]
            r2_coroot = [
                sum(datum.coroots[i][k] for i in c.special) for k in range(datum.rank)
            ]
            for i in c.nonspecial:
                root = datum.roots[i]
                assert sum(a * b for a, b in zip(root, r1_coroot)) == 2
                assert sum(a * b for a, b in zip(root, r2_coroot)) == 1
            for i in c.special:
                root = datum.roots[i]
                assert sum(a * b for a, b in zip(root, r1_coroot)) == 4
                assert sum(a * b for a, b in zip(root, r2_coroot)) == 2


def test_folded_pairing_diagonal_two_all_variants():
    for pre in CATALOG:
        for variant in VARIANTS:
            folded = folded_root_datum(pre.datum, pre.action, variant)
            d = folded.datum
            for i in range(d.nroots):
                assert d.pairing(i, i) == 2


def test_nonreduced_variant_doubling_bijection():
    for name in ("A2-sc-flip", "A4-sc-flip", "A5-sc-flip"):
        pre = load_preset(name)
        folded = folded_root_datum(pre.datum, pre.action, "nonreduced")
        d = folded.datum
        assert not d.reduced
        divisible = {i for i, flag in folded.doubled.items() if flag}
        n_type_two = sum(
            1 for c in folded.classes if c.kind == "II"
        )
        assert len(divisible) == 2 * n_type_two  # each class: +2gamma and -2gamma
        multipliable = {
            i
            for i in range(d.nroots)
            if d.is_root(tuple(2 * x for x in d.roots[i]))
        }
        assert multipliable.isdisjoint(divisible)
        doubled_images = {
            d.root_index(tuple(2 * x for x in d.roots[i])) for i in multipliable
        }
        assert doubled_images == divisible


def test_nonreduced_root_counts():
    datum, act = type_a_flip(4)
    r1 = folded_root_datum(datum, act, "R1")
    nr = folded_root_datum(datum, act, "nonreduced")
    assert r1.datum.nroots == 8
    assert nr.datum.nroots == 12
    assert folded_root_datum(datum, act, "R2").datum.nroots == 8


def test_r2_shares_the_r1_datum_without_a_type_two_class():
    e7 = build_preset("E7", "sc")
    cases = [(pre.datum, pre.action) for pre in CATALOG] + [(e7, trivial_action(e7))]
    for datum, act in cases:
        data = folded_root_data(datum, act)
        if all(cls.kind == "I" for cls in data["R1"].classes):
            assert data["R2"].datum is data["R1"].datum
            assert data["nonreduced"].datum is not data["R1"].datum
            assert not data["nonreduced"].datum.reduced
    assert any(datum is e7 for datum, _ in cases)
    # the A_{2n} flips have a type II class, so R2 is a datum of its own
    for rank in (2, 4, 6):
        data = folded_root_data(*type_a_flip(rank))
        assert len({id(data[v].datum) for v in VARIANTS}) == 3, rank


def test_reduced_variants_are_reduced():
    for pre in CATALOG:
        for variant in ("R1", "R2"):
            assert folded_root_datum(pre.datum, pre.action, variant).datum.reduced


def test_unknown_variant():
    datum, act = type_a_flip(2)
    with pytest.raises(DomainError):
        folded_root_datum(datum, act, "R3")


@pytest.mark.parametrize(
    "name,group",
    [
        ("A2-sc-flip", FinAbGroup(0, ())),
        ("A3-sc-flip", FinAbGroup(0, (2,))),
        ("A4-sc-flip", FinAbGroup(0, ())),
        ("A5-sc-flip", FinAbGroup(0, (2,))),
        ("D4-sc-triality", FinAbGroup(0, ())),
        ("D4-sc-cyclic3", FinAbGroup(0, ())),
        ("A2+A2-sc-swap", FinAbGroup(0, (3,))),
        ("E6-sc-flip", FinAbGroup(0, ())),
        ("A1-torus-inversion", FinAbGroup(0, (2,))),
    ],
)
def test_center_structure(name, group):
    pre = load_preset(name)
    assert center_structure(pre.datum, pre.action) == group


def test_center_structure_foreign_action():
    datum, act = type_a_flip(2)
    other = build_preset("A2", "sc")
    with pytest.raises(DomainError):
        center_structure(other, act)


def test_isogeny_injectivity_all_presets():
    for pre in CATALOG:
        assert isogeny_injectivity_check(pre.datum, pre.action)


def _permuted(ctype, isogeny, *images):
    """A datum with the action generated by permutations of its base."""
    datum = build_preset(ctype, isogeny)
    gens = [permutation_matrix(dict(enumerate(img)), datum.rank) for img in images]
    return datum, PinnedAction(datum, gens)


_ISOGENY_CASES = [(f"A{n}", tuple(range(n - 1, -1, -1))) for n in range(1, 9)] + [
    ("A2+A2", (2, 3, 0, 1)),
    ("A2+A2", (1, 0, 3, 2)),
    ("A2+A2", (3, 2, 1, 0)),
    ("A2+A2+A2", (2, 3, 4, 5, 0, 1)),
    ("D5", (0, 1, 2, 4, 3)),
    ("D6", (0, 1, 2, 3, 5, 4)),
    ("B2+B2", (2, 3, 0, 1)),
    ("G2+G2+G2", (2, 3, 0, 1, 4, 5)),
    ("G2+G2+G2", (2, 3, 4, 5, 0, 1)),
    ("A1+A1+A1+A1", (1, 0, 2, 3), (1, 2, 3, 0)),
]


@pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
def test_isogeny_orbit_map_matches_lattice_oracle(isogeny):
    pairs = [(pre.datum, pre.action) for pre in CATALOG]
    pairs += [_permuted(ctype, isogeny, *images) for ctype, *images in _ISOGENY_CASES]
    for rank, m in ((0, []), (3, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]), (2, [[0, 1], [1, 0]])):
        torus = build_torus(rank)
        pairs.append((torus, PinnedAction(torus, [IntMatrix(m, cols=rank)])))
    for datum, act in pairs:
        assert isogeny_injectivity_check(datum, act) == isogeny_injective_by_lattice(datum, act)


def test_isogeny_check_refuses_a_base_permutation_off_the_diagram():
    # swapping the two ends of the A3 diagram's first edge moves the Cartan matrix
    datum = build_preset("A3", "sc")
    perm = list(range(datum.nroots))
    a, b = datum.basis_indices[:2]
    perm[a], perm[b] = b, a
    fake = SimpleNamespace(datum=datum, generator_perms=[tuple(perm)])
    with pytest.raises(
        InternalInconsistencyError,
        match="^Cartan matrix does not commute with the base permutation$",
    ):
        isogeny_injectivity_check(datum, fake)


def test_orbit_sums_fixed_by_action():
    for pre in CATALOG:
        datum, act = pre.datum, pre.action
        for cls in equivalence_classes(datum, act):
            for g in act.elements:
                assert g.apply(cls.orbit_sum) == cls.orbit_sum
