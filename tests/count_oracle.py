"""Brute-force oracle for the fixed-point count.

Scans every matrix of size 2n+1 over F_q and keeps those with
g^T J g = J and det g = 1.  ``count_fixed`` instead chooses columns one at
a time through a precomputed pairing table, so this is an independent
cross-check; at q^((2n+1)^2) matrices it is only feasible for n = 1, q <= 3.
"""

import itertools

from foldlab.matrixlab import GF, is_theta_fixed


def count_fixed_by_scan(n, q):
    """Number of theta-fixed matrices in SL_{2n+1}(F_q), by full scan."""
    F = GF(q)
    m = 2 * n + 1
    return sum(
        1
        for flat in itertools.product(range(q), repeat=m * m)
        if is_theta_fixed(F, n, tuple(flat[r * m : (r + 1) * m] for r in range(m)))
    )
