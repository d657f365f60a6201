"""Seeded rational sampling for property tests and CLI runs.

All randomness flows through one Random instance per sampler, so a seed
fully determines every sequence of samples. Numerators and denominators are
bounded (default 100 and 10) to keep exact arithmetic growth in check.
"""

import random
from fractions import Fraction

from conelab import rank3
from conelab.core import cone_element, group_element, identity_element, rho_act
from conelab.errors import StructureError
from conelab.linalg import normalize_rational


class RationalSampler:
    def __init__(self, seed=0, max_numerator=100, max_denominator=10):
        if max_numerator < 1 or max_denominator < 1:
            raise StructureError("sampler bounds must be positive")
        self.seed = seed
        self.max_numerator = max_numerator
        self.max_denominator = max_denominator
        self._rng = random.Random(seed)

    def rational(self, nonzero=False):
        while True:
            num = self._rng.randint(-self.max_numerator, self.max_numerator)
            if nonzero and num == 0:
                continue
            den = self._rng.randint(1, self.max_denominator)
            return normalize_rational(Fraction(num, den))

    def positive_rational(self):
        v = self.rational(nonzero=True)
        return -v if v < 0 else v

    def vector(self, dim, nonzero_entries=False):
        return tuple(self.rational(nonzero=nonzero_entries) for _ in range(dim))

    def cone_element(self, V):
        """Arbitrary element of the ambient space; not a membership claim."""
        off = {key: self.vector(V.dim(*key)) for key in V.spaces()}
        return cone_element(V, self.vector(V.r), off)

    def group_element(self, V, unit=False):
        diag = (1,) * V.r if unit else tuple(
            self.rational(nonzero=True) for _ in range(V.r)
        )
        lower = {key: self.vector(V.dim(*key)) for key in V.spaces()}
        return group_element(V, diag, lower)

    def interior_element(self, V):
        """A guaranteed member: the identity moved by a random group element."""
        return rho_act(self.group_element(V), identity_element(V), V)

    def boundary_element(self, V, zeros=1):
        """A nonzero element of the closed cone with `zeros` vanishing pivots."""
        if not 1 <= zeros < V.r:
            raise StructureError("zeros must be between 1 and rank-1")
        pivots = [self.positive_rational() for _ in range(V.r)]
        for idx in self._rng.sample(range(V.r), zeros):
            pivots[idx] = 0
        seed_elem = cone_element(V, pivots)
        return rho_act(self.group_element(V, unit=True), seed_elem, V)

    # rank-3 conveniences; V arguments avoid rebuilding realizations in loops

    def _rank3_point(self, build, F):
        diag = [self.rational() for _ in range(3)]
        return build(F, *diag, self.vector(F.r), self.vector(F.s), self.vector(F.n))

    def rank3_element(self, F):
        return self._rank3_point(rank3.rank3_element, F)

    def dual_rank3_element(self, F):
        return self._rank3_point(rank3.dual_rank3_element, F)

    def interior_rank3(self, F, V=None):
        V = V if V is not None else rank3.build_rank3_cone(F)
        return rank3.from_cone_element(self.interior_element(V), F)

    def interior_rank3_dual(self, F, Vd=None):
        Vd = Vd if Vd is not None else rank3.build_rank3_dual(F)
        return rank3.dual_from_cone_element(self.interior_element(Vd), F)
