"""Pairwise oracle for the class partition of ``folding``.

``equivalence_classes`` buckets orbit sums by their primitive direction in
one dict, and ``folded_root_datum`` compares class images the same way.
``buckets_by_proportional`` instead compares each vector with the first
member of every bucket so far by its 2x2 minors, which needs no gcd and no
sign convention.
"""


def proportional(u, v) -> bool:
    """Exact test for rational proportionality of nonzero integer vectors."""
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    # a zero vector is proportional to nothing
    return any(u) and any(v)


def buckets_by_proportional(vectors) -> list[list[int]]:
    """Indices of ``vectors`` grouped by proportionality, in order of first
    occurrence."""
    buckets: list[list[int]] = []
    for k, v in enumerate(vectors):
        for bucket in buckets:
            if proportional(vectors[bucket[0]], v):
                bucket.append(k)
                break
        else:
            buckets.append([k])
    return buckets
