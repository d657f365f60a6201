"""The sparse (V1)-(V3) checks against the dense oracle in dense_oracle.py.

Each realization is mutated in one or two basis entries, which makes most of
them fail a condition or lose linear independence. Both paths must give the
same report (same first counterexample per condition, same orthonormal flag)
or the same StructureError.
"""

import copy
import random
from fractions import Fraction

import pytest

from conelab import rank3
from conelab.core import VCollection, verify_v_conditions
from conelab.doubling import iterate_construction
from conelab.errors import StructureError
from tests.dense_oracle import dense_basis, dense_verify

VALUES = (0, 1, -1, 2, Fraction(1, 3))
MUTANTS = 40


def _source(name):
    if name.startswith("doubled-"):
        return iterate_construction(int(name[-1]))
    family, side = name.split("-")
    if family == "3_5_7":
        F = rank3.bundled_family_3_5_7()
    else:
        F = rank3.composition_family(8, 16)
    build = rank3.build_rank3_cone if side == "cone" else rank3.build_rank3_dual
    return build(F)


def _mutants(V, rng):
    bases = {
        key: [[list(row) for row in E] for E in dense_basis(V, *key)]
        for key in V.spaces()
    }
    keys = sorted(bases)
    for _ in range(MUTANTS):
        mutated = copy.deepcopy(bases)
        for _ in range(rng.randint(1, 2)):
            E = rng.choice(mutated[rng.choice(keys)])
            nonzero = [
                (u, v) for u, row in enumerate(E) for v, e in enumerate(row) if e
            ]
            if nonzero and rng.random() < 0.5:
                u, v = rng.choice(nonzero)
            else:
                u, v = rng.randrange(len(E)), rng.randrange(len(E[0]))
            E[u][v] = rng.choice(VALUES)
        yield VCollection(V.partition, mutated)


def _outcome(verify, V):
    try:
        return verify(V)
    except StructureError as exc:
        return "StructureError: %s" % exc


def _kinds(outcome):
    """The conditions an outcome fails, "dependent", or "passed"."""
    if isinstance(outcome, str):
        return {"dependent"}
    failed = {c for c in ("v1", "v2", "v3") if not getattr(outcome, c).passed}
    return failed or {"passed"}


SOURCES = (
    "doubled-3", "doubled-4", "doubled-5",
    "3_5_7-cone", "3_5_7-dual", "8_16-cone", "8_16-dual",
)


@pytest.mark.parametrize("name", SOURCES)
def test_sparse_verify_matches_dense_oracle(name):
    V = _source(name)
    assert verify_v_conditions(V) == dense_verify(V)
    kinds = set()
    for idx, W in enumerate(_mutants(V, random.Random(name))):
        want = _outcome(dense_verify, W)
        assert _outcome(verify_v_conditions, W) == want, (name, idx)
        kinds |= _kinds(want)
    # the mutations reach failures, not only passing or dependent bases
    assert kinds & {"v1", "v2", "v3"}, kinds


def test_oracle_mutations_cover_every_outcome():
    kinds = set()
    for name in ("doubled-4", "3_5_7-cone"):
        for W in _mutants(_source(name), random.Random(name)):
            kinds |= _kinds(_outcome(dense_verify, W))
    assert kinds == {"passed", "v1", "v2", "v3", "dependent"}
