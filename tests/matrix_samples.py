"""Sample matrices over a finite field for the matrixlab tests.

``mat_identity`` is the identity as nested tuples, the form every
``matrixlab`` matrix routine takes and returns; ``special_linear_sample``
draws determinant-one matrices for the embedding and section checks.
"""

from foldlab.matrixlab import GF, mat_det


def mat_identity(m: int):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def special_linear_sample(F: GF, size: int, rng):
    """A uniform-ish determinant-one matrix: draw until invertible, then
    scale the first row."""
    while True:
        rows = [[rng.randrange(F.q) for _ in range(size)] for _ in range(size)]
        d = mat_det(F, rows)
        if d:
            inv = F.inv(d)
            rows[0] = [F.mul(inv, x) for x in rows[0]]
            return tuple(tuple(r) for r in rows)
