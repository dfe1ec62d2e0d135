"""Oracle for ``PinnedAction.orbits``.

``orbits`` reads each orbit off the closed group, as the images of its
first point under every element.  ``orbits_by_generators`` instead grows
each orbit breadth first under the generator permutations alone, so it
needs no closure; on the base it acts on positions, as ``orbits`` reports.
"""


def orbits_by_generators(act, items):
    d = act.datum
    if items == "simple":
        position = {r: p for p, r in enumerate(d.basis_indices)}
        universe = range(len(d.basis_indices))
        gens = [tuple(position[g[r]] for r in d.basis_indices) for g in act.generator_perms]
    else:
        universe = range(d.nroots) if items == "roots" else d.positive_root_indices()
        gens = act.generator_perms
    seen, orbits = set(), []
    for x in universe:
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            frontier = [g[y] for y in frontier for g in gens if g[y] not in orbit]
            orbit.update(frontier)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)
