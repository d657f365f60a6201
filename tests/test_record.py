"""The frozen records: fields, equality, hashing, repr and immutability."""

import pytest

from conelab.core import (
    BlockPartition,
    ConditionReport,
    ConeElement,
    GroupElement,
    LdlResult,
    VerificationReport,
)
from conelab.degrees import SigmaMatrix, SigmaTraceStep
from conelab.errors import StructureError
from conelab.rank3 import (
    Classification,
    CompositionReport,
    CouplingDecomposition,
    DualRank3Element,
    InvarianceReport,
    InvariantList,
    LRReport,
    Rank3Element,
)

REPORTS = [
    ConditionReport(True),
    CompositionReport(False, (1, 2)),
    LRReport(True),
    InvarianceReport(True, 3),
    CouplingDecomposition(True, 1, 1, True, True),
    InvariantList("primal", (), ()),
    Classification(1, (1, 2, 3), (3, 2, 1), (1, 1, 1), (1, 1, 1), False),
    LdlResult((1,), None, "indefinite"),
]


def test_fields_defaults_and_keywords():
    assert ConditionReport._fields == ("passed", "counterexample")
    assert Rank3Element._fields == ("x11", "x22", "x33", "x", "y", "z")
    assert DualRank3Element._fields[3:] == ("xi", "eta", "zeta")
    assert ConditionReport(True).counterexample is None
    assert ConditionReport(True) == ConditionReport(passed=True, counterexample=None)
    assert ConditionReport(False, (1, 2)) == ConditionReport(False, counterexample=(1, 2))
    with pytest.raises(TypeError):
        ConditionReport()
    with pytest.raises(TypeError):
        ConditionReport(True, None, 3)
    with pytest.raises(TypeError):
        ConditionReport(True, passed=False)
    with pytest.raises(TypeError):
        ConditionReport(True, witness=None)


def test_ldl_membership_is_derived_from_status():
    assert LdlResult._fields == ("pivots", "unit", "status")
    for status, member in (("positive", True), ("boundary", False), ("indefinite", False)):
        assert LdlResult((1,), None, status).is_member is member
    with pytest.raises(AttributeError):
        LdlResult((1,), None, "positive").is_member = False


def test_post_init_runs():
    assert BlockPartition([2, 1]).sizes == (2, 1)
    with pytest.raises(StructureError):
        BlockPartition(())
    with pytest.raises(ValueError):
        SigmaMatrix(((1, 1), (0, 1)))


def test_frozen_fields_reject_assignment():
    part = BlockPartition((2, 1))
    x = ConeElement((1, 1), {})
    for record, name in ((part, "sizes"), (x, "diag"), (REPORTS[0], "passed")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert part.sizes == (2, 1) and x.diag == (1, 1)


def test_equality_is_per_class():
    x = ConeElement((1, 2), {(2, 1): (3,)})
    h = GroupElement((1, 2), {(2, 1): (3,)})
    assert x != h and h != x
    assert x == ConeElement((1, 2), {(2, 1): (3,)})
    assert x != ConeElement((1, 2), {(2, 1): (4,)})
    assert Rank3Element(1, 1, 1, (), (), ()) != DualRank3Element(1, 1, 1, (), (), ())
    for report in REPORTS:
        as_tuple = tuple(getattr(report, n) for n in report._fields)
        assert report != as_tuple and as_tuple != report
        assert report == type(report)(*as_tuple)


def test_sigma_equality_ignores_trace():
    step = SigmaTraceStep(1, ((1, (1,)),), (0,))
    plain = SigmaMatrix(((1, 0), (1, 1)))
    traced = SigmaMatrix(((1, 0), (1, 1)), trace=(step,))
    assert plain == traced and hash(plain) == hash(traced)
    assert plain != SigmaMatrix(((1, 0), (0, 1)))
    assert "trace=" in repr(traced)


def test_hashing():
    with pytest.raises(TypeError):
        hash(ConeElement((1,), {}))
    with pytest.raises(TypeError):
        hash(GroupElement((1,), {}))
    assert hash(BlockPartition((2, 1))) == hash(BlockPartition([2, 1]))
    assert len({ConditionReport(True), ConditionReport(True)}) == 1


def test_repr_names_every_field():
    report = VerificationReport(
        True, ConditionReport(True), ConditionReport(True), ConditionReport(True),
        None, True,
    )
    assert repr(ConditionReport(False, (1, 2))) == (
        "ConditionReport(passed=False, counterexample=(1, 2))"
    )
    assert repr(report).startswith(
        "VerificationReport(passed=True, v1=ConditionReport(passed=True, "
    )

