"""Integer multivariate polynomials used by the symbolic checks, and the
determinant and adjugate that the embedding identity in ``sl_oracle``
builds on."""

import pytest

from foldlab.errors import DomainError
from foldlab.poly import Poly, poly_matrix_mul
from sl_oracle import poly_adjugate, poly_det


def test_arithmetic():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) * (x - 1) == x * x - 1
    assert p - p == 0
    assert 2 * x == x + x
    assert -x == Poly.const(2, -1) * x


def test_mixed_variable_counts_rejected():
    with pytest.raises(DomainError):
        Poly.var(2, 0) + Poly.var(3, 0)


def test_det_and_adjugate_identity():
    n = 9
    m = [[Poly.var(n, 3 * i + j) for j in range(3)] for i in range(3)]
    det = poly_det(m)
    adj = poly_adjugate(m)
    prod = poly_matrix_mul(m, adj)
    for i in range(3):
        for j in range(3):
            expect = det if i == j else Poly.const(n, 0)
            assert prod[i][j] == expect


def test_det_two_by_two():
    a, b, c, d = (Poly.var(4, k) for k in range(4))
    assert poly_det([[a, b], [c, d]]) == a * d - b * c


def test_adjugate_one_by_one():
    p = Poly.var(1, 0)
    assert poly_adjugate([[p]]) == [[Poly.const(1, 1)]]
