"""Minimal exact multivariate polynomials.

Just enough ring arithmetic to state determinant factors and invariants
symbolically: sparse {exponent tuple: rational} storage, exact evaluation,
and total degree read off the monomials rather than by interpolation.
"""

from __future__ import annotations


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[mono] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, i):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        return Poly.const(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono, 0) + c
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return Poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not other:
                return Poly(self.nvars)
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(a + b for a, b in zip(ma, mb))
                acc = terms.get(mono, 0) + ca * cb
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return self.terms == Poly.const(self.nvars, other).terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Max total degree over monomials; 0 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=0)

    def evaluate(self, values):
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        acc = 0
        for mono, c in self.terms.items():
            term = c
            for v, e in zip(values, mono):
                if e:
                    term = term * v**e
            acc += term
        return acc

    def __repr__(self):
        return "Poly(%d vars, %d terms, deg %d)" % (
            self.nvars,
            len(self.terms),
            self.total_degree(),
        )


def variables(nvars):
    return [Poly.var(nvars, i) for i in range(nvars)]


def pdot(u, v):
    """Sum of a * b over zip(u, v), on numbers or Polys; 0 when empty."""
    acc = None
    for a, b in zip(u, v):
        acc = a * b if acc is None else acc + a * b
    return acc if acc is not None else 0


def pnorm2(u):
    return pdot(u, u)

