"""Oracles for the fixed-point count.

``count_fixed_by_scan`` scans every matrix of size 2n+1 over F_q and keeps
those with g^T J g = J and det g = 1.  ``count_fixed`` instead chooses
columns one at a time from per-depth candidate lists, so this is an
independent cross-check; at q^((2n+1)^2) matrices it is only feasible for
n = 1, q <= 3.  ``classical_fixed_order`` is the closed-form order of the
fixed group: SO_{2n+1} in odd characteristic, Sp_{2n} in characteristic 2.
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


def classical_fixed_order(n, q):
    """|SO_{2n+1}(F_q)| = |Sp_{2n}(F_q)| = q^(n^2) * prod_{i=1..n} (q^(2i) - 1)."""
    order = q ** (n * n)
    for i in range(1, n + 1):
        order *= q ** (2 * i) - 1
    return order
