"""Root datum construction, type recognition, Weyl group enumeration."""

import functools
import itertools
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from foldlab import intlat, rootdata
from foldlab.errors import DomainError, InternalInconsistencyError, ResourceLimitError
from foldlab.folding import VARIANTS, folded_root_datum
from foldlab.intlat import IntMatrix
from foldlab.presets import load_preset, preset_names, type_a_flip
from foldlab.rootdata import (
    CartanType,
    RootDatum,
    WeylGroup,
    build_preset,
    build_torus,
    cartan_matrix,
    cartan_type_of,
)
from constants_oracle import root_sums_by_tuples
from validate_oracle import (
    bareiss_det,
    coords_by_elimination,
    generate_pairs_by_tuples,
    validate_by_tuples,
)


def test_cartan_type_parse():
    assert CartanType.parse("A2").components == (("A", 2),)
    assert CartanType.parse("A2+A2").components == (("A", 2), ("A", 2))
    assert CartanType.parse("D4").rank == 4
    assert str(CartanType.parse("E6")) == "E6"
    for bad in ("D2", "E9", "H3", "A0", "B1", "F5", ""):
        with pytest.raises(DomainError):
            CartanType.parse(bad)


_PARSE_PIECES = (
    ["A", "B", "D", "E", "G", "a", "H", "2", "4", "6", "10", "0", "\u0663", "\u00b2"]
    + ["+", " ", "\t", "\u3000", "-", "x"]
)


# the regular expression CartanType.parse used to match each summand
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PARSE_PIECES), max_size=8).map("".join))
def test_cartan_type_parse_matches_the_old_pattern(text):
    chunks = [re.fullmatch(r"\s*([A-G])\s*(\d+)\s*", c) for c in text.split("+")]
    try:
        expected = tuple((m.group(1), int(m.group(2))) for m in chunks)
    except AttributeError:  # a summand the pattern refuses
        expected = None
    try:
        got = CartanType.parse(text).components
    except DomainError:
        got = None
    if got is not None or expected is None:
        assert got == expected
    else:  # the pattern matched, but the type does not exist (A0, E4, ...)
        with pytest.raises(DomainError, match="no simple type"):
            CartanType(expected)


def test_cartan_matrices_frozen():
    assert cartan_matrix("A", 2).entries == ((2, -1), (-1, 2))
    g2 = cartan_matrix("G", 2).entries
    assert g2[0][0] == 2 and g2[1][1] == 2
    assert sorted((g2[0][1], g2[1][0])) == [-3, -1]
    # diagonal 2, off-diagonal nonpositive, zero pattern symmetric
    for fam, n in [("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4)]:
        c = cartan_matrix(fam, n).entries
        for i in range(n):
            assert c[i][i] == 2
            for j in range(n):
                if i != j:
                    assert c[i][j] <= 0
                    assert (c[i][j] == 0) == (c[j][i] == 0)


@pytest.mark.parametrize(
    "ctype,count",
    [("A1", 2), ("A2", 6), ("A3", 12), ("B2", 8), ("G2", 12), ("D4", 24), ("A2+A2", 12)],
)
def test_root_counts(ctype, count):
    assert build_preset(ctype, "sc").nroots == count
    assert build_preset(ctype, "adjoint").nroots == count


def test_d4_roots_match_euclidean_oracle():
    # map simple roots to e1-e2, e2-e3, e3-e4, e3+e4 and compare with
    # the independent description of the root set as all +-ei +- ej
    datum = build_preset("D4", "adjoint")
    simple_vectors = [
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 0, 1, -1),
        (0, 0, 1, 1),
    ]
    images = set()
    for i in range(datum.nroots):
        coords = datum.simple_coordinates(i)
        vec = tuple(
            sum(c * s[k] for c, s in zip(coords, simple_vectors)) for k in range(4)
        )
        images.add(vec)
    expected = set()
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0, 0, 0, 0]
            v[i], v[j] = si, sj
            expected.add(tuple(v))
    assert images == expected


@pytest.mark.parametrize(
    "ctype,order",
    [("A2", 6), ("B2", 8), ("A3", 24), ("D4", 192), ("G2", 12), ("A2+A2", 36)],
)
def test_weyl_orders(ctype, order):
    datum = build_preset(ctype, "sc")
    w = datum.weyl_group()
    assert w.order == order
    assert len(set(w.elements)) == w.order


@pytest.mark.parametrize(
    "ctype",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6"],
)
def test_degree_product_is_weyl_order(ctype, weyl_elements):
    ct = CartanType.parse(ctype)
    assert len(ct.degrees) == ct.rank
    assert ct.weyl_order == len(weyl_elements(build_preset(ct)))


def test_degree_product_closed_forms():
    assert CartanType.parse("E7").weyl_order == 2_903_040
    assert CartanType.parse("E8").weyl_order == 696_729_600
    assert CartanType(()).weyl_order == 1
    assert CartanType.parse("A2+A2").weyl_order == 36


def test_weyl_determinism():
    a = build_preset("A3", "sc").weyl_group()
    b = build_preset("A3", "sc").weyl_group()
    assert a.elements == b.elements


def test_weyl_limit():
    with pytest.raises(ResourceLimitError):
        build_preset("D4", "sc").weyl_group(limit=10)


def test_positive_partition():
    datum = build_preset("A3", "sc")
    pos = datum.positive_root_indices()
    assert len(pos) == datum.nroots // 2
    for i in pos:
        assert datum.is_positive(i)
        j = datum.negative_of(i)
        assert not datum.is_positive(j)
        assert datum.roots[j] == tuple(-x for x in datum.roots[i])
    # heights positive exactly on positive roots
    for i in range(datum.nroots):
        assert (datum.height(i) > 0) == datum.is_positive(i)


def test_pairing_diagonal_is_two():
    for ctype in ("A2", "B2", "G2", "D4"):
        for iso in ("sc", "adjoint"):
            datum = build_preset(ctype, iso)
            for i in range(datum.nroots):
                assert datum.pairing(i, i) == 2


def test_sc_and_adjoint_lattices_a1():
    sc = build_preset("A1", "sc")
    assert sc.roots[sc.basis_indices[0]] == (2,)
    assert sc.coroots[sc.basis_indices[0]] == (1,)
    adj = build_preset("A1", "adjoint")
    assert adj.roots[adj.basis_indices[0]] == (1,)
    assert adj.coroots[adj.basis_indices[0]] == (2,)


RECOGNITION_TYPES = [
    "A1", "A2", "A4", "B3", "C3", "D4", "D5", "G2", "F4", "E6", "A2+A2", "A1+C3",
    "B4", "B5", "C4", "C5", "B3+C4",
]


@pytest.mark.parametrize("ctype", RECOGNITION_TYPES)
def test_type_recognition_roundtrip(ctype):
    for isogeny in ("sc", "adjoint"):
        recognized = cartan_type_of(build_preset(ctype, isogeny))
        assert sorted(recognized.components) == sorted(CartanType.parse(ctype).components)


def test_type_recognition_normalizations():
    # D3 is A3 in disguise; rank-2 B and C coincide (normalized to C2)
    assert cartan_type_of(build_preset("D3", "sc")).components == (("A", 3),)
    assert cartan_type_of(build_preset("B2", "sc")).components == (("C", 2),)
    assert cartan_type_of(build_preset("C2", "sc")).components == (("C", 2),)


def test_components():
    datum = build_preset("A2+A2", "sc")
    comps = datum.components()
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [6, 6]
    assert len(build_preset("D4", "sc").components()) == 1


def test_torus():
    t = build_torus(2)
    assert t.rank == 2
    assert t.nroots == 0
    assert t.basis_indices == ()
    assert cartan_type_of(t).components == ()
    with pytest.raises(DomainError):
        build_torus(-1)


def test_invalid_datum_rejected():
    # root set not closed under its own reflections
    with pytest.raises(DomainError):
        RootDatum(1, [(1,)], [(2,)], [0])
    # pairing of a root with its own coroot must be 2
    with pytest.raises(DomainError):
        RootDatum(1, [(1,), (-1,)], [(1,), (-1,)], [0])
    # duplicate roots
    with pytest.raises(DomainError):
        RootDatum(1, [(2,), (2,)], [(1,), (1,)], [0])


def _rebased(cartan_type, isogeny, basis_indices):
    d = build_preset(cartan_type, isogeny)
    return lambda: RootDatum(d.rank, d.roots, d.coroots, basis_indices)


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: RootDatum(1, [(2,), (-2,)], [(1,), (-1,)], [0, 1]),
            "base of simple roots is linearly dependent",
        ),
        # the long roots (2, 1) and (0, 1) of adjoint C2 span an index-2 sublattice
        (
            _rebased("C2", "adjoint", [7, 4]),
            "root (-1, -1) is not an integer combination of the base",
        ),
        # (1, 0) and (1, 1) in adjoint A2: (0, 1) is their difference
        (
            _rebased("A2", "adjoint", [4, 5]),
            "root (0, -1) is not uniformly signed over the base",
        ),
    ],
    ids=["dependent", "non-integer", "mixed-sign"],
)
def test_bad_base_rejected(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: RootDatum(1, [(1,), (-1,)], [(1,), (-1,)], [0]),
            "<alpha, alpha^vee> = 1 != 2 at root (1,)",
        ),
        # A1 x A1 roots with A2 coroots: (0, 1) reflects to (1, 1)
        (
            lambda: RootDatum(
                2,
                [(1, 0), (0, 1), (-1, 0), (0, -1)],
                [(2, -1), (-1, 2), (-2, 1), (1, -2)],
                [0, 1],
            ),
            "reflection of (0, 1) along (1, 0) leaves the root set",
        ),
        # roots are stable, but <(1, 0), (-2, 2)> = -2 sends (-2, 2) to (2, 2)
        (
            lambda: RootDatum(
                2,
                [(1, 0), (0, 1), (-1, 0), (0, -1)],
                [(2, 0), (-2, 2), (-2, 0), (2, -2)],
                [0, 1],
            ),
            "coreflection of (-2, 2) leaves the coroot set",
        ),
        (lambda: RootDatum(2, *_LARGE_IMAGE), "reflection of (0, 1) along (1, 0) leaves the root set"),
        # the base reflection along (1, 0) fails first, but the pair named is
        # the first failing one in index order, along (-1, 0)
        (
            lambda: RootDatum(2, *_BASE_FAILS_LATER),
            "reflection of (0, -1) along (-1, 0) leaves the root set",
        ),
    ],
    ids=["pairing-not-2", "root-reflection", "coroot-reflection", "large-image", "index-order"],
)
def test_validate_rejects(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


# The image (-2, 1) has a coordinate larger than any root's; a code base
# sized by the root coordinates alone (B = 3) would match it to (1, 0).
_LARGE_IMAGE = (
    [(1, 0), (-1, 0), (0, 1), (0, -1)],
    [(2, 2), (-2, -2), (0, 2), (0, -2)],
    [0, 2],
)

# A1 x A1 roots with A2 coroots, negative roots first and the base last
_BASE_FAILS_LATER = (
    [(-1, 0), (0, -1), (1, 0), (0, 1)],
    [(-2, 1), (1, -2), (2, -1), (-1, 2)],
    [2, 3],
)


def _outcome(build):
    try:
        build()
    except DomainError as exc:
        return str(exc)
    return None


def _agree_with_oracle(rank, roots, coroots, basis, reduced=True):
    """The message RootDatum and the tuple oracle both give, or None."""
    new = _outcome(lambda: RootDatum(rank, roots, coroots, basis, reduced))
    old = _outcome(
        lambda: validate_by_tuples(
            RootDatum(rank, roots, coroots, basis, reduced, validate=False)
        )
    )
    assert new == old
    return new


@functools.lru_cache(maxsize=None)
def _catalog_data():
    """(rank, roots, coroots, basis, reduced) of every preset datum and its
    three folded variants."""
    out = []
    for name in preset_names():
        pre = load_preset(name)
        data = [pre.datum] + [
            folded_root_datum(pre.datum, pre.action, v).datum for v in VARIANTS
        ]
        out += map(_catalog_row, data)
    return tuple(out)


def _catalog_row(d):
    return d.rank, d.roots, d.coroots, d.basis_indices, d.reduced


def test_validate_matches_tuple_oracle_on_catalog():
    for data in _catalog_data():
        assert _agree_with_oracle(*data) is None
    for ctype in ("E7", "E8"):
        d = build_preset(ctype, "sc")
        assert _agree_with_oracle(d.rank, d.roots, d.coroots, d.basis_indices) is None
    message = "reflection of (0, 1) along (1, 0) leaves the root set"
    assert _agree_with_oracle(2, *_LARGE_IMAGE) == message
    message = "reflection of (0, -1) along (-1, 0) leaves the root set"
    assert _agree_with_oracle(2, *_BASE_FAILS_LATER) == message


def _walks_and_smith_forms(monkeypatch, build):
    """The _walk calls, as ("walk", simple roots, simple coroots), and the
    smith_normal_form calls, as "smith", made while ``build`` runs, in call
    order."""
    calls = []
    walk, smith = rootdata._walk, intlat.smith_normal_form

    def spy_walk(rank, roots, coroots, *recognized):
        calls.append(("walk", list(roots), list(coroots)))
        return walk(rank, roots, coroots, *recognized)

    with monkeypatch.context() as m:
        m.setattr(rootdata, "_walk", spy_walk)
        m.setattr(intlat, "smith_normal_form", lambda mat: calls.append("smith") or smith(mat))
        build()
    return calls


def test_validation_checks_only_the_base_directly(monkeypatch):
    # E8 given by its roots, and a nonreduced datum with its doubled roots,
    # are each accepted by one walk from their own base and no Smith form
    e8 = build_preset("E8", "sc")
    pre = load_preset("A4-sc-flip")
    folded = folded_root_datum(pre.datum, pre.action, "nonreduced")
    assert any(folded.doubled.values())
    for d in (e8, folded.datum):
        given = lambda: RootDatum(d.rank, d.roots, d.coroots, d.basis_indices, d.reduced)
        base = [d.roots[i] for i in d.basis_indices]
        cobase = [d.coroots[i] for i in d.basis_indices]
        assert _walks_and_smith_forms(monkeypatch, given) == [("walk", base, cobase)]


def test_walk_leaves_no_reduced_root_to_solve(monkeypatch):
    # every root of a given datum is a root of its walk, or, in a nonreduced
    # datum, twice one, so no root is solved: the presets, their folded
    # variants and E8 in both isogenies take no Smith form
    data = list(_catalog_data())
    data += [_catalog_row(build_preset("E8", isogeny)) for isogeny in ("sc", "adjoint")]
    for row in data:
        calls = _walks_and_smith_forms(monkeypatch, lambda: RootDatum(*row))
        assert "smith" not in calls
        assert len(calls) == 1
    # the doubled roots of a nonreduced datum take twice their halves'
    # coordinates from the walk
    pre = load_preset("A2-sc-flip")
    folded = folded_root_datum(pre.datum, pre.action, "nonreduced").datum
    given = RootDatum(*_catalog_row(folded))
    doubled = [
        i for i, r in enumerate(given.roots)
        if not any(x % 2 for x in r) and given.is_root([x // 2 for x in r])
    ]
    assert len(doubled) == 2
    for i in doubled:
        half = given.root_index([x // 2 for x in given.roots[i]])
        assert given.simple_coordinates(i) == tuple(2 * x for x in given.simple_coordinates(half))


def test_given_datum_unlike_its_walk_is_inconsistent(monkeypatch):
    # a valid datum with a valid base is its walk, so a walk that gives
    # other roots is a fault of the program, not of the datum
    e6, other = build_preset("E6", "sc"), build_preset("E6", "adjoint")
    monkeypatch.setattr(rootdata, "_walk", lambda *args: other)
    with pytest.raises(InternalInconsistencyError):
        RootDatum(e6.rank, e6.roots, e6.coroots, e6.basis_indices)


def test_root_count_unlike_the_type_is_refused_before_the_walk(monkeypatch):
    def walks(given):
        def refused():
            with pytest.raises(DomainError) as err:
                given()
            messages.append(str(err.value))

        messages = []
        calls = _walks_and_smith_forms(monkeypatch, refused)
        return [c for c in calls if c != "smith"], messages[0]

    # A100's simple roots and their negatives: 200 of A100's 10100 roots,
    # refused by the first reflection pair without walking the type
    d = build_preset("A100")
    base = [d.roots[i] for i in d.basis_indices]
    cobase = [d.coroots[i] for i in d.basis_indices]
    roots = base + [tuple(-x for x in r) for r in base]
    coroots = cobase + [tuple(-x for x in c) for c in cobase]
    message = f"reflection of {base[1]} along {base[0]} leaves the root set"
    for reduced in (True, False):
        given = functools.partial(RootDatum, d.rank, roots, coroots, range(100), reduced)
        assert walks(given) == ([], message)
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(DomainError):
                given()
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.05, seconds
    # the 12 roots of BC2 marked reduced: C2 has 8
    pre = load_preset("A4-sc-flip")
    bc2 = folded_root_datum(pre.datum, pre.action, "nonreduced").datum
    given = functools.partial(RootDatum, *_catalog_row(bc2)[:4], True)
    assert walks(given) == ([], "datum marked reduced but contains a doubled root")



def test_given_doubled_roots_need_a_kept_set_and_a_nonreduced_mark():
    # the nonreduced variant of A4-sc-flip, of type BC2, whose doubled roots
    # are twice the four short roots
    pre = load_preset("A4-sc-flip")
    folded = folded_root_datum(pre.datum, pre.action, "nonreduced")
    d = folded.datum
    message = "datum marked reduced but contains a doubled root"
    assert _agree_with_oracle(d.rank, d.roots, d.coroots, d.basis_indices, True) == message
    # dropping the doubles of one pair of short roots leaves doubled roots
    # that a base reflection moves out of the set
    doubled = [d.roots[i] for i, flag in folded.doubled.items() if flag]
    drop = {d.root_index(doubled[0]), d.root_index([-x for x in doubled[0]])}
    keep = [i for i in range(d.nroots) if i not in drop]
    roots, coroots = [d.roots[i] for i in keep], [d.coroots[i] for i in keep]
    basis = [keep.index(i) for i in d.basis_indices]
    message = "reflection of (0, 2) along (-1, 2) leaves the root set"
    assert _agree_with_oracle(d.rank, roots, coroots, basis, False) == message

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_matches_tuple_oracle_on_mutations(data):
    catalog = [d for d in _catalog_data() if d[1]]
    rank, roots, coroots, basis, reduced = data.draw(st.sampled_from(catalog))
    side = data.draw(st.sampled_from(["roots", "coroots"]))
    vectors = [list(v) for v in (roots if side == "roots" else coroots)]
    i = data.draw(st.integers(0, len(vectors) - 1))
    k = data.draw(st.integers(0, rank - 1))
    bump = data.draw(st.sampled_from([-2, -1, 1, 2, None]))
    vectors[i][k] = -vectors[i][k] if bump is None else vectors[i][k] + bump
    if side == "roots":
        roots = vectors
    else:
        coroots = vectors
    _agree_with_oracle(rank, roots, coroots, basis, reduced)


_CATALOG_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "B2", "B3", "B4", "B5", "C3", "C4",
    "C5", "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2",
]


def _solved_coords(d):
    """Simple coordinates of every root of d by the tuple oracle's rational
    elimination alone."""
    return coords_by_elimination(d)


@pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
def test_carried_coordinates_match_the_smith_solve(isogeny):
    # the presets, their folded variants (the nonreduced one with its doubled
    # roots), E8 and tori
    data = [RootDatum(*d) for d in _catalog_data()]
    data += [build_preset("E8", isogeny), build_torus(0), build_torus(3)]
    for d in data:
        assert d._simple_coords == _solved_coords(d)


def _from_tuple_generation(ctype, isogeny):
    """The datum of a Cartan type from the tuple oracle's (root, coroot, C
    root) triples, placed in the lattice as build_preset places them and
    validated in full."""
    c = rootdata.cartan_matrix_product(CartanType.parse(ctype))
    triples = generate_pairs_by_tuples(c)
    if isogeny == "sc":
        roots, coroots = [cv for _, _, cv in triples], [w for _, w, _ in triples]
    else:
        roots = [v for v, _, _ in triples]
        coroots = [c.transpose().apply(w) for _, w, _ in triples]
    coords = [v for v, _, _ in triples]
    basis = [coords.index(e) for e in IntMatrix.identity(c.rows).entries]
    return RootDatum(c.rows, roots, coroots, basis)


def _assert_matches_full_validation(d):
    """The builder's datum d equals the datum rebuilt from its roots with
    the full validation, and passes the tuple oracle's checks."""
    full = RootDatum(d.rank, d.roots, d.coroots, d.basis_indices, validate=True)
    assert (full.roots, full.coroots, full.basis) == (d.roots, d.coroots, d.basis)
    assert full._simple_coords == d._simple_coords
    oracle = RootDatum(d.rank, d.roots, d.coroots, d.basis_indices, validate=False)
    validate_by_tuples(oracle)
    assert oracle._simple_coords == d._simple_coords


@pytest.mark.parametrize("ctype", _CATALOG_TYPES)
def test_build_preset_matches_tuple_generation(ctype):
    for isogeny in ("sc", "adjoint"):
        new = build_preset(ctype, isogeny)
        old = _from_tuple_generation(ctype, isogeny)
        assert new.roots == old.roots
        assert new.coroots == old.coroots
        assert new.basis_indices == old.basis_indices
        assert new._simple_coords == old._simple_coords
        _assert_matches_full_validation(new)


def test_builder_matches_full_validation_on_presets_and_tori():
    data = [load_preset(name).datum for name in preset_names()]
    for d in data + [build_torus(0), build_torus(3)]:
        _assert_matches_full_validation(d)


def test_builder_applies_no_matrix_per_root(monkeypatch):
    # each root's coordinates, coroot and pairings are its parent's moved
    # by one sparse column, so no IntMatrix.apply runs
    calls = []
    apply = IntMatrix.apply
    monkeypatch.setattr(IntMatrix, "apply", lambda mat, v: calls.append(v) or apply(mat, v))
    for ctype in ("A4", "E7", "B3+G2"):
        for isogeny in ("sc", "adjoint"):
            build_preset(ctype, isogeny)
    build_torus(3)
    assert calls == []


def _based(rank, roots, coroots):
    return lambda: rootdata._build_based(rank, roots, coroots)


_UNITS2 = [(1, 0), (0, 1)]
_UNITS3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize(
    "build,message",
    [
        # affine A1: <alpha_1, alpha_0^vee> = <alpha_0, alpha_1^vee> = -2
        (
            _based(2, _UNITS2, [(2, -2), (-2, 2)]),
            "Cartan matrix is not of finite type: a bond of weight 4 on simple roots 0, 1",
        ),
        # affine A2: the three simple roots form a cycle
        (
            _based(3, _UNITS3, [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]),
            "Cartan matrix is not of finite type: a cycle on simple roots 0, 1, 2",
        ),
        # the affine A1 Cartan matrix again, from a dependent base
        (
            _based(2, [(1, 0), (-1, 0)], [(2, 0), (-2, 0)]),
            "base of simple roots is linearly dependent",
        ),
        (_based(1, [(1,), (2,)], [(2,), (1,)]), "base of simple roots is linearly dependent"),
        (_based(2, _UNITS2, [(1, 0), (0, 2)]), "<alpha, alpha^vee> = 1 != 2 at root (1, 0)"),
        (_based(2, _UNITS2, [(2, 0)]), "roots and coroots must correspond one to one"),
        (
            _based(2, [(1, 0), (0, 1, 0)], [(2, 0), (0, 2)]),
            "root coordinate length differs from rank",
        ),
        (
            _based(2, _UNITS2, [(2, 0), (0, 2, 0)]),
            "coroot coordinate length differs from rank",
        ),
        (
            _based(2, _UNITS2, [(2, 1), (1, 2)]),
            "Cartan matrix is not of finite type:"
            " <alpha_1, alpha_0^vee> = 1 and <alpha_0, alpha_1^vee> = 1",
        ),
        (
            _based(2, _UNITS2, [(2, -1), (0, 2)]),
            "Cartan matrix is not of finite type:"
            " <alpha_1, alpha_0^vee> = -1 and <alpha_0, alpha_1^vee> = 0",
        ),
    ],
    ids=[
        "affine-A1", "affine-A2", "dependent", "dependent-rank-1", "pairing-not-2",
        "count", "root-length", "coroot-length", "positive", "one-sided",
    ],
)
def test_builder_refuses_before_the_walk(build, message, monkeypatch):
    # the walk moves every root it finds with _minus; a refusal comes first
    monkeypatch.setattr(rootdata, "_minus", lambda *a: pytest.fail("the walk started"))
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def _principal_minors_positive(a):
    n = len(a)
    return all(
        bareiss_det(IntMatrix([[a[i][j] for j in rows] for i in rows])) > 0
        for k in range(1, n + 1)
        for rows in itertools.combinations(range(n), k)
    )


def _check_recognition(a):
    """_cartan_components accepts a generalized Cartan matrix exactly when
    all its principal minors are positive (Kac, Infinite dimensional Lie
    algebras, 4.3), and each component it types is the Cartan matrix of
    that type with its nodes relabelled."""
    try:
        groups, types = rootdata._cartan_components(a)
    except DomainError as exc:
        assert str(exc).startswith("Cartan matrix is not of finite type: "), str(exc)
        assert not _principal_minors_positive(a), a
        return
    assert _principal_minors_positive(a), a
    assert sorted(i for g in groups for i in g) == list(range(len(a)))
    for group, (fam, n) in zip(groups, types):
        c = cartan_matrix(fam, n).entries
        assert any(
            all(a[group[p[i]]][group[p[j]]] == c[i][j] for i in range(n) for j in range(n))
            for p in itertools.permutations(range(n))
        ), (a, group, fam, n)


def _gcm(n, bonds):
    """The n x n generalized Cartan matrix with the pairs (a[i][j], a[j][i])
    of bonds, i < j in lexicographic order."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), (x, y) in zip(itertools.combinations(range(n), 2), bonds):
        a[i][j], a[j][i] = x, y
    return a


def test_recognition_of_every_generalized_cartan_matrix_up_to_rank_3():
    bonds = [(0, 0)] + list(itertools.product(range(-1, -5, -1), repeat=2))
    for n in (1, 2, 3):
        for chosen in itertools.product(bonds, repeat=n * (n - 1) // 2):
            _check_recognition(_gcm(n, chosen))


_SAMPLED_BONDS = [(0, 0)] * 4 + [(-1, -1)] * 4 + [(-1, -2), (-2, -1), (-1, -3), (-2, -2)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_recognition_of_sampled_generalized_cartan_matrices(data):
    n = data.draw(st.integers(4, 6))
    pairs = n * (n - 1) // 2
    bonds = data.draw(st.lists(st.sampled_from(_SAMPLED_BONDS), min_size=pairs, max_size=pairs))
    _check_recognition(_gcm(n, bonds))


def test_weyl_closure_of_degree_at_most_one():
    # a single index would make itemgetter return a scalar, none would fail
    assert build_torus(3).weyl_group().elements == ((),)
    assert WeylGroup.generate(0, []).elements == ((),)
    assert WeylGroup.generate(1, [(0,)]).elements == ((0,),)
    a1 = build_preset("A1", "sc")
    assert a1.weyl_group().elements == ((0, 1), (1, 0))


def test_simple_reflection_permutation():
    datum = build_preset("A2", "sc")
    perm = datum.simple_reflection_permutation(0)
    i0, i1 = datum.basis_indices
    assert perm[i0] == datum.negative_of(i0)  # s_0 negates alpha_0
    assert perm[perm[i1]] == i1  # involution
    # every simple reflection on every root: s_i(a_j) = a_j - <a_j, a_i^vee> a_i
    for ctype in RECOGNITION_TYPES:
        for isogeny in ("sc", "adjoint"):
            datum = build_preset(ctype, isogeny)
            for p, i in enumerate(datum.basis_indices):
                perm = datum.simple_reflection_permutation(p)
                root_i, coroot_i = datum.roots[i], datum.coroots[i]
                for j, root_j in enumerate(datum.roots):
                    n = sum(x * y for x, y in zip(root_j, coroot_i))
                    image = tuple(x - n * y for x, y in zip(root_j, root_i))
                    assert datum.roots[perm[j]] == image, (ctype, isogeny, p, j)


def assert_sparse_root_sums(datum, where=None, stride=1):
    """Row i of root_sums() maps j to the index of roots[i] + roots[j] (-1
    for zero) for every pair the tuple oracle finds a root, and holds no
    other key.  With a stride, every stride-th row is compared with the
    oracle, and every entry of every row is checked by one tuple sum."""
    sums = datum.root_sums()
    assert len(sums) == datum.nroots, where
    picked = range(0, datum.nroots, stride)
    for i, want in zip(picked, root_sums_by_tuples(datum, picked)):
        row = sums[i]
        assert all(row.get(j) == k for j, k in enumerate(want)), (where, i)
        assert all(0 <= j < len(want) and want[j] is not None for j in row), (where, i)
    zero = (0,) * datum.rank
    for i, row in enumerate(sums):
        for j, k in row.items():
            total = tuple(a + b for a, b in zip(datum.roots[i], datum.roots[j]))
            assert total == (zero if k == -1 else datum.roots[k]), (where, i, j)


@pytest.mark.parametrize(
    "ctype",
    [
        "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2",
        "F4", "E6", "E7", "A2+A2",
    ],
)
def test_root_sums_match_tuple_arithmetic(ctype):
    for isogeny in ("sc", "adjoint"):
        datum = build_preset(ctype, isogeny)
        assert_sparse_root_sums(datum, isogeny)
        assert datum.root_sums() is datum.root_sums()  # built once


def test_root_sums_on_e8_folded_variants_and_torus():
    assert_sparse_root_sums(build_preset("E8", "sc"), "E8")
    for name in preset_names():
        pre = load_preset(name)
        for v in VARIANTS:
            datum = folded_root_datum(pre.datum, pre.action, v).datum
            assert_sparse_root_sums(datum, (name, v))
    # the nonreduced A_{2n} folding has doubled roots: some a + a is a root
    pre = load_preset("A2-sc-flip")
    nonreduced = folded_root_datum(pre.datum, pre.action, "nonreduced").datum
    assert any(i in row for i, row in enumerate(nonreduced.root_sums()))
    assert build_torus(40).root_sums() == ()


def test_root_sums_on_the_a40_flip():
    # rows moved along the reflection walk through 40 base roots; the dense
    # oracle takes about 9 s on all 1,640 rows, so it reads every 13th
    assert_sparse_root_sums(type_a_flip(40)[0], "A40", stride=13)


@pytest.mark.parametrize("ctype", ["A1", "B2", "G2", "D4", "E8"])
def test_negative_of_reads_a_table(ctype):
    datum = build_preset(ctype, "sc")
    for i in range(datum.nroots):
        assert datum.roots[datum.negative_of(i)] == tuple(-x for x in datum.roots[i])
    assert datum._root_sums is None  # the negation table does not need all sums


def test_negative_of_a_root_without_negative():
    datum = RootDatum(1, [(1,)], [(2,)], [0], validate=False)
    with pytest.raises(DomainError, match=r"^\(-1,\) is not a root$"):
        datum.negative_of(0)
