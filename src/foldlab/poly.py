"""Sparse integer polynomials in finitely many variables.

Just enough ring arithmetic to state matrix identities exactly: terms are
stored as a map from exponent tuples to nonzero integer coefficients.
"""

from __future__ import annotations

from .errors import DomainError


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != nvars:
                raise DomainError("monomial length differs from variable count")
            if coeff:
                clean[tuple(mono)] = int(coeff)
        self.terms = clean

    @classmethod
    def const(cls, nvars: int, c: int) -> "Poly":
        zero = tuple([0] * nvars)
        return cls(nvars, {zero: c} if c else {})

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        mono = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(nvars, {mono: 1})

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DomainError("mixed variable counts")
            return other
        if isinstance(other, int):
            return Poly.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)


    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))


    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            vs = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            )
            bits.append(f"{coeff}{'*' + vs if vs else ''}")
        return " + ".join(bits)


def poly_matrix_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), start=a[0][0] * 0) for j in range(m)]
        for i in range(n)
    ]
