"""Degree bookkeeping: the sigma algorithm and its published values."""

import pytest

from conelab.degrees import (
    DimTable,
    SigmaMatrix,
    character_exponents,
    degrees_from_sigma,
    dual_degrees_rank3,
    dual_table,
    rank3_table,
    sigma_from_dims,
)
from conelab.errors import InconsistentDimsError


def extremal_table(r):
    return DimTable(
        r, {(k, j): 2 ** (k - j) for k in range(2, r + 1) for j in range(1, k)}
    )


def test_dim_table_validation():
    with pytest.raises(ValueError, match="positive integer"):
        DimTable(0, {})
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        DimTable(True, {})  # a bool is not a rank
    with pytest.raises(ValueError, match="bad index"):
        DimTable(2, {(1, 2): 1})
    with pytest.raises(ValueError, match="nonnegative"):
        DimTable(2, {(2, 1): -1})
    with pytest.raises(ValueError, match="nonnegative"):
        DimTable(2, {(2, 1): True})
    with pytest.raises(ValueError, match="partial"):
        DimTable(3, {(2, 1): 1})


def test_rank3_table_order():
    t = rank3_table(2, 4, 2)
    assert t.d(2, 1) == 2 and t.d(3, 1) == 4 and t.d(3, 2) == 2


def test_sigma_matrix_validation():
    with pytest.raises(ValueError, match="unit lower"):
        SigmaMatrix(rows=((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="unit lower"):
        SigmaMatrix(rows=((2, 0), (0, 1)))
    with pytest.raises(ValueError, match="nonnegative"):
        SigmaMatrix(rows=((1, 0), (-1, 1)))
    s = SigmaMatrix(rows=((1, 0), (3, 1)))
    assert s.entry(2, 1) == 3 and s.r == 2


def test_sigma_rank1():
    s = sigma_from_dims(DimTable(1, {}))
    assert s.rows == ((1,),)
    assert degrees_from_sigma(s) == (1,)


def test_sigma_omega3_published_value():
    s = sigma_from_dims(rank3_table(2, 4, 2))
    assert s.rows == ((1, 0, 0), (1, 1, 0), (2, 1, 1))
    assert degrees_from_sigma(s) == (1, 2, 4)


def test_sigma_vinberg_cone():
    # d21 = d31 = 1, d32 = 0: the rank-3 Vinberg cone
    s = sigma_from_dims(rank3_table(1, 1, 0))
    assert s.rows == ((1, 0, 0), (1, 1, 0), (1, 0, 1))
    assert degrees_from_sigma(s) == (1, 2, 2)


def test_sigma_block_free_column():
    # d32 = 0 with d21 = s, d31 = n: sigma stays sparse in column 2
    for s_dim, n_dim in [(2, 3), (5, 7), (1, 4)]:
        sig = sigma_from_dims(rank3_table(s_dim, n_dim, 0))
        assert sig.rows == ((1, 0, 0), (1, 1, 0), (1, 0, 1))


def test_sigma_closed_form_through_rank_12():
    for r in range(2, 13):
        s = sigma_from_dims(extremal_table(r))
        for i in range(1, r + 1):
            for j in range(1, i):
                assert s.entry(i, j) == 2 ** (i - j - 1)
        degs = degrees_from_sigma(s)
        assert degs == tuple(2 ** (i - 1) for i in range(1, r + 1))


def test_sigma_inconsistent_table():
    with pytest.raises(InconsistentDimsError) as err:
        sigma_from_dims(rank3_table(1, 1, 5))
    assert err.value.detail is not None


_NOT_CONSISTENT = "dimension table not consistent with a homogeneous cone: "


@pytest.mark.parametrize(
    "table, where, detail",
    [
        (rank3_table(1, 1, 5), "column 1 goes negative in slot 3 at stage 2",
         (1, 2, (0, 1, -4))),
        (rank3_table(1, 1, 2), "column 1 goes negative in slot 3 at stage 2",
         (1, 2, (0, 1, -1))),
        # two slots go negative at once: the first is named
        (DimTable(4, {(2, 1): 1, (3, 1): 0, (4, 1): 0, (3, 2): 2, (4, 2): 3, (4, 3): 1}),
         "column 1 goes negative in slot 3 at stage 2", (1, 2, (0, 1, -2, -3))),
        (DimTable(6, {**{(k, j): 2 ** (k - j) for k in range(2, 7) for j in range(1, k)},
                      (6, 2): 1}),
         "column 2 goes negative in slot 6 at stage 3", (2, 3, (0, 0, 2, 2, 4, -7))),
    ],
)
def test_sigma_inconsistent_message_and_detail(table, where, detail):
    with pytest.raises(InconsistentDimsError) as err:
        sigma_from_dims(table)
    assert str(err.value) == _NOT_CONSISTENT + where
    assert err.value.detail == detail


def test_sigma_trace_records_stages():
    s = sigma_from_dims(rank3_table(2, 4, 2))
    assert len(s.trace) == 2
    step = s.trace[0]
    assert step.i == 1
    assert step.stages[0][1] == (0, 2, 4)
    assert step.epsilon == (1, 1)


def test_degrees_from_sigma_examples():
    assert degrees_from_sigma(SigmaMatrix(rows=((1, 0), (0, 1)))) == (1, 1)
    assert degrees_from_sigma(
        SigmaMatrix(rows=((1, 0, 0), (1, 1, 0), (2, 1, 1)))
    ) == (1, 2, 4)


def test_character_exponents():
    s = sigma_from_dims(rank3_table(2, 4, 2))
    assert character_exponents(s, 1) == (2, 0, 0)
    assert character_exponents(s, 3) == (4, 2, 2)
    s4 = sigma_from_dims(rank3_table(3, 4, 0))
    assert character_exponents(s4, 3) == (2, 0, 2)


def test_dual_degrees_rank3_published_cases():
    assert dual_degrees_rank3(1, 1, 1) == (3, 2, 1)
    assert dual_degrees_rank3(1, 2, 2) == (3, 2, 1)
    assert dual_degrees_rank3(3, 5, 7) == (4, 2, 1)
    assert dual_degrees_rank3(0, 4, 9) == (3, 1, 1)
    assert dual_degrees_rank3(0, 1, 2) == (3, 1, 1)


@pytest.mark.parametrize("args, name", [((True, 2, 3), "r"), ((0, True, 3), "s"),
                                        ((1, 2, False), "n")])
def test_dual_degrees_rank3_refuses_bool_naming_it(args, name):
    # (r, s, n) is the table (d21, d31, d32) = (s, n, r), which names the entry
    entry = {"r": "d_32", "s": "d_21", "n": "d_31"}[name]
    with pytest.raises(ValueError, match="^%s must be a nonnegative integer" % entry):
        dual_degrees_rank3(*args)


def test_dual_table_is_an_involution_fixing_the_extremal_tables():
    T = DimTable(4, {(2, 1): 1, (3, 1): 2, (3, 2): 3, (4, 1): 4, (4, 2): 5, (4, 3): 6})
    D = dual_table(T)
    assert (D.d(2, 1), D.d(3, 2), D.d(4, 3), D.d(4, 1)) == (6, 3, 1, 4)
    assert dual_table(D) == T
    for r in range(2, 41):
        for shift in (0, 1):
            table = DimTable(r, {(k, j): 2 ** (k - j - shift)
                                 for k in range(2, r + 1) for j in range(1, k)})
            assert dual_table(table) == table
            degrees = degrees_from_sigma(sigma_from_dims(dual_table(table)))
            assert degrees[-1] == 2 ** (r - 1)


def test_dual_degrees_self_dual_cases():
    for n in (1, 2, 4, 8):
        assert dual_degrees_rank3(n, n, n) == (3, 2, 1)


@pytest.mark.parametrize("shift", [0, 1])
def test_sigma_stage_states_of_the_extremal_tables(shift):
    # after stage k of step i slot m holds 0 for m <= i, otherwise
    # 2^max(1, m - k) on the doubled table 2^(k-j) (shift 0) and
    # 2^max(0, m - k - 1) on the one-slab table 2^(k-j-1) (shift 1), and
    # every epsilon is 1
    for r in range(2, 41):
        table = DimTable(r, {(k, j): 2 ** (k - j - shift)
                             for k in range(2, r + 1) for j in range(1, k)})
        sigma = sigma_from_dims(table)
        assert [step.i for step in sigma.trace] == list(range(1, r))
        for step in sigma.trace:
            i = step.i
            assert [k for k, _ in step.stages] == list(range(i, r))
            for k, l_vec in step.stages:
                assert l_vec == tuple(
                    0 if m <= i else 2 ** max(1 - shift, m - k - shift)
                    for m in range(1, r + 1)
                )
            assert step.epsilon == (1,) * (r - i)
