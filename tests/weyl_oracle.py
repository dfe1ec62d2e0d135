"""Brute-force oracle for the fixed Weyl group.

``fixed_weyl`` enumerates neither W nor W^A: it finds each orbit's longest
element by descent and reads |W^A| off the degrees of the folded type.
``closed_fixed_weyl`` closes those longest elements into the elements of
W^A, so the tests can match the closure with that order and with
``fixed_by_filter``, which enumerates all of W and keeps the elements
commuting with every action generator.  ``longest_by_closure`` finds each
orbit's longest element by closing the orbit parabolic subgroup and picking
the element that sends all its positive roots to negatives.  The caller
passes the elements of W, so one enumeration can serve many tests.

``bruhat_count_by_elements`` sums q^(length) over the closed elements of
W^A, the lengths counting root classes sent to negatives;
``bruhat_predicted_count`` takes the same sum from Solomon's product over
the degrees of the folded type, so this checks the closed form.
"""

from foldlab.folding import fixed_weyl
from foldlab.intlat import hom_to_units_count, prime_power
from foldlab.rootdata import WeylGroup


def closed_fixed_weyl(datum, fw):
    """The elements of W^A, sorted: the closure of ``fw``'s Coxeter generators."""
    return WeylGroup.generate(
        datum.nroots, fw.coxeter_generators, name="the fixed Weyl group W^A"
    ).elements


def fixed_by_filter(datum, act, weyl_elements):
    """The elements of W (given sorted) commuting with every action generator."""
    n = datum.nroots
    return tuple(
        elt
        for elt in weyl_elements
        if all(elt[g[i]] == g[elt[i]] for g in act.generator_perms for i in range(n))
    )


def longest_by_closure(datum, orbit):
    """Unique element of the orbit parabolic sending its positive roots
    to negatives."""
    support = set(orbit)
    sub_pos = [
        i
        for i in datum.positive_root_indices()
        if {j for j, c in enumerate(datum.simple_coordinates(i)) if c} <= support
    ]
    sub_gens = [datum.simple_reflection_permutation(p) for p in orbit]
    neg = {datum.negative_of(i) for i in sub_pos}
    longest = [
        elt
        for elt in WeylGroup.generate(datum.nroots, sub_gens).elements
        if all(elt[i] in neg for i in sub_pos)
    ]
    assert len(longest) == 1, "orbit parabolic lacks a unique longest element"
    return longest[0]


def brute_fixed_weyl(datum, act, weyl_elements):
    """(fixed elements, orbit longest elements) found by brute force."""
    coxeter = tuple(longest_by_closure(datum, o) for o in act.orbits("simple"))
    return fixed_by_filter(datum, act, weyl_elements), coxeter


def bruhat_count_by_elements(datum, act, q):
    """Torus part times q^N times the sum of q^(length) over the elements of
    W^A from ``fixed_weyl``'s closure."""
    prime_power(q)
    fw = fixed_weyl(datum, act)
    r1 = fw.variants["R1"]
    t_count = hom_to_units_count(r1.lattice.group, q)
    classes = r1.classes
    positives = set(datum.positive_root_indices())
    total = 0
    for w in closed_fixed_weyl(datum, fw):
        drop = sum(
            1
            for cls in classes
            if all(w[i] not in positives for i in cls.members)
        )
        total += q**drop
    return t_count * q ** len(classes) * total
