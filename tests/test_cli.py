import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conelab
from conelab import cli, core, degrees, doubling, rank3, serialize
from conelab.core import BlockPartition, LdlResult, VCollection, group_element
from conelab.degrees import DimTable, sigma_from_dims
from conelab.doubling import iterate_construction
from conelab.errors import ClosureViolationError
from conelab.rank3 import bundled_family_3_5_7
from conelab.sampling import RationalSampler
from tests.dense_oracle import dense_ldl_decompose


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_omega2(tmp_path):
    V = VCollection(BlockPartition((2, 1)), {(2, 1): [[[1, 0]], [[0, 1]]]})
    path = tmp_path / "omega2.json"
    serialize.dump_file(str(path), serialize.realization_to_dict(V))
    return V, str(path)


def write_family(tmp_path):
    F = bundled_family_3_5_7()
    path = tmp_path / "f357.json"
    serialize.dump_file(str(path), serialize.family_to_dict(F))
    return F, str(path)


def test_sigma_family_dims(capsys):
    d = run_json(capsys, "sigma", "--family-dims", "4")
    assert d["degrees"] == [1, 2, 4, 8]
    assert d["sigma"][3] == [4, 2, 1, 1]
    assert [s["i"] for s in d["trace"]["steps"]] == [1, 2, 3]


def _write_dims(tmp_path, r):
    """A --dims file holding the doubled table d_kj = 2^(k-j) of rank r."""
    path = tmp_path / ("dims%d.json" % r)
    serialize.dump_file(str(path), serialize.dims_to_dict(cli._extremal_dims(r)))
    return str(path)


def test_sigma_family_dims_limit(capsys, monkeypatch, tmp_path):
    # --family-dims R and a --dims table of rank R share the limit
    limit = cli.MAX_FAMILY_DIMS
    dims_file = lambda r: _write_dims(tmp_path, r)
    for flag, arg in (("--family-dims", str), ("--dims", dims_file)):
        code, out, err = run(capsys, "sigma", flag, arg(limit + 1))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and str(limit) in err
        assert "Traceback" not in err
        with monkeypatch.context() as m:
            m.setattr(cli, "MAX_FAMILY_DIMS", 4)
            assert run_json(capsys, "sigma", flag, arg(4))["degrees"] == [1, 2, 4, 8]
            assert run(capsys, "sigma", flag, arg(5))[0] == 1


def test_sigma_dims_file(capsys, tmp_path):
    path = tmp_path / "dims.json"
    path.write_text(
        json.dumps({"r": 3, "dims": {"d21": 2, "d31": 4, "d32": 2}}),
        encoding="utf-8",
    )
    d = run_json(capsys, "sigma", "--dims", str(path))
    assert d["degrees"] == [1, 2, 4]


def test_sigma_inconsistent_dims_exit_2(capsys, tmp_path):
    path = tmp_path / "dims.json"
    path.write_text(
        json.dumps({"r": 3, "dims": {"d21": 1, "d31": 1, "d32": 5}}),
        encoding="utf-8",
    )
    assert run(capsys, "sigma", "--dims", str(path)) == (
        2,
        "",
        "error: dimension table not consistent with a homogeneous cone: "
        "column 1 goes negative in slot 3 at stage 2\n",
    )


def test_sigma_requires_exactly_one_source(capsys, tmp_path):
    code, _, _ = run(capsys, "sigma")
    assert code == 1
    path = tmp_path / "dims.json"
    path.write_text("{}", encoding="utf-8")
    code, _, _ = run(capsys, "sigma", "--dims", str(path), "--family-dims", "3")
    assert code == 1


def test_theorem_rank3(capsys):
    d = run_json(capsys, "theorem", "--rank", "3")
    assert d["N"] == 7
    assert d["dims"] == {"d21": 2, "d31": 4, "d32": 2}
    assert d["degrees"] == [1, 2, 4]
    assert d["sigma"] == [[1, 0, 0], [1, 1, 0], [2, 1, 1]]
    assert d["verified"] is True


def test_theorem_rank1(capsys):
    d = run_json(capsys, "theorem", "--rank", "1")
    assert d["N"] == 1 and d["degrees"] == [1] and d["dims"] == {}


def test_theorem_bad_rank(capsys):
    assert run(capsys, "theorem", "--rank", "0")[0] == 1
    assert run(capsys, "theorem", "--rank", "x")[0] == 1


def test_theorem_rank_cap(capsys, monkeypatch):
    code, out, err = run(capsys, "theorem", "--rank", "14")
    assert (code, out) == (2, "")
    assert err == "error: rank 14 exceeds the cap 13\n"
    monkeypatch.setattr(doubling, "DEFAULT_RANK_CAP", 3)
    code, _, err = run(capsys, "theorem", "--rank", "4")
    assert code == 2
    assert "cap" in err


def test_member_spec_points(capsys, tmp_path):
    V, cone = write_omega2(tmp_path)
    inside = tmp_path / "in.json"
    inside.write_text(
        json.dumps({"diag": [2, 1], "off": [{"k": 2, "j": 1, "coords": [1, 0]}]}),
        encoding="utf-8",
    )
    d = run_json(capsys, "member", "--cone", cone, "--point", str(inside))
    assert d["member"] is True and d["pivots"] == ["2", "1/2"]
    outside = tmp_path / "out.json"
    outside.write_text(
        json.dumps({"diag": [1, 1], "off": [{"k": 2, "j": 1, "coords": [2, 0]}]}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "member", "--cone", cone, "--point", str(outside))
    assert code == 2
    d = json.loads(out)
    assert d["member"] is False and d["pivots"] == ["1", "-3"]
    assert "pivots_approx" not in d


def test_member_rebuild_mismatch_exit_3(capsys, tmp_path, monkeypatch):
    V, cone = write_omega2(tmp_path)
    point = tmp_path / "p.json"
    point.write_text(
        json.dumps({"diag": [2, 1], "off": [{"k": 2, "j": 1, "coords": [1, 0]}]}),
        encoding="utf-8",
    )
    true_ldl = core.ldl_decompose

    def wrong_unit(x, V):
        res = true_ldl(x, V)
        unit = group_element(V, (1, 1), {(2, 1): (0, 1)})
        return LdlResult(
            pivots=res.pivots,
            unit=unit,
            status=res.status,
        )

    monkeypatch.setattr(core, "ldl_decompose", wrong_unit)
    code, out, err = run(capsys, "member", "--cone", cone, "--point", str(point))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "rebuild" in err
    assert "Traceback" not in err


def _fault(module, name, make):
    """A setup that replaces module.name by make(the original)."""
    return lambda m: m.setattr(module, name, make(getattr(module, name)))


def _raising(exc):
    def fail(*args):
        raise exc

    return lambda original: fail


def _coupling_with(**fields):
    def make(check):
        return lambda X, Xi, F: rank3.CouplingDecomposition(
            **dict(vars(check(X, Xi, F)), **fields)
        )

    return make


def _wrong_dims_cone(r):
    # passes (V1)-(V3) with d_21 = 1, not the extremal 2
    return VCollection(BlockPartition((1, 1)), {(2, 1): [[[1]]]})


def _sigma_of_zero_table(sigma):
    # the half-lines' sigma: every degree is 1, not 2^(i-1)
    return lambda t: sigma(DimTable(t.r, dict.fromkeys((key for key, _ in t.items()), 0)))


INTERNAL_FAULTS = {
    "det-oracle": (
        _fault(rank3, "det_rank3_closed", lambda det: lambda X, F: det(X, F) + 1),
        ("rank3", "det", "--family", "{fam}", "--point", "{point}"),
        "disagrees with elimination oracle",
    ),
    "coupling-failed": (
        _fault(rank3, "coupling_decomposition_check", _coupling_with(passed=False)),
        ("rank3", "duality", "--family", "{fam}", "--samples", "1"),
        "identity failed",
    ),
    "coupling-not-positive": (
        _fault(rank3, "coupling_decomposition_check", _coupling_with(lhs=0)),
        ("rank3", "duality", "--family", "{fam}", "--samples", "1"),
        "not positive",
    ),
    "member-rebuild": (
        _fault(core, "rho_act", _raising(ClosureViolationError("left V_21", (2, 1)))),
        ("member", "--cone", "{cone}", "--point", "{member}"),
        "internal error: left V_21",
    ),
    "verify-runtime": (
        _fault(core, "verify_v_conditions", _raising(RuntimeError("lost a pivot"))),
        ("verify", "--in", "{cone}"),
        "internal error: lost a pivot",
    ),
    "theorem-table": (
        _fault(doubling, "iterate_construction", lambda it: _wrong_dims_cone),
        ("theorem", "--rank", "2"),
        "dimension table",
    ),
    "theorem-degree": (
        _fault(degrees, "sigma_from_dims", _sigma_of_zero_table),
        ("theorem", "--rank", "3"),
        "last degree",
    ),
}


@pytest.mark.parametrize("fault", sorted(INTERNAL_FAULTS))
def test_internal_faults_exit_3(capsys, monkeypatch, tmp_path, fault):
    setup, argv, message = INTERNAL_FAULTS[fault]
    _, cone = write_omega2(tmp_path)
    _, fam = write_family(tmp_path)
    files = {"cone": cone, "fam": fam}
    for name, data in (
        ("member", {"diag": [2, 1], "off": [{"k": 2, "j": 1, "coords": [1, 0]}]}),
        ("point", {"x11": 2, "x22": 3, "x33": 5, "y": [1, 0, 0, 0, 0]}),
    ):
        files[name] = str(tmp_path / (name + ".json"))
        serialize.dump_file(files[name], data)
    setup(monkeypatch)
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, removed",
    [
        (("member", "--cone", "{cone}", "--point", "{cone}"), ("--approx",)),
        (("rank3", "det", "--family", "{fam}", "--point", "{fam}"), ("--approx",)),
        (("rank3", "duality", "--family", "{fam}"), ("--max-numerator", "100")),
        (("rank3", "duality", "--family", "{fam}"), ("--max-denominator", "10")),
    ],
    ids=["member-approx", "det-approx", "max-numerator", "max-denominator"],
)
def test_removed_flags_are_unknown(capsys, tmp_path, argv, removed):
    files = {"cone": write_omega2(tmp_path)[1], "fam": write_family(tmp_path)[1]}
    code, out, err = run(capsys, *(a.format(**files) for a in argv), *removed)
    assert (code, out) == (1, "")
    assert "unrecognized arguments: %s\n" % " ".join(removed) in err


def _zero_pivot_point(name):
    """A point whose first pivot is 0 over a nonzero column, with its cone."""
    if name == "omega2":
        V = VCollection(BlockPartition((2, 1)), {(2, 1): [[[1, 0]], [[0, 1]]]})
        return V, core.cone_element(V, (0, 1), {(2, 1): (1, 0)})
    if name == "doubled-7":
        V = iterate_construction(7)
    else:
        V = rank3.build_rank3_cone(rank3.composition_family(8, 16))
    x = RationalSampler(seed=18).interior_element(V)
    return V, core.cone_element(V, (0,) + x.diag[1:], x.off)


@pytest.mark.parametrize("name", ["omega2", "doubled-7", "8_16"])
def test_member_zero_pivot_over_nonzero_column_is_indefinite(capsys, tmp_path, name):
    # the minor [[0, a], [a, x_kk]] has determinant -a^2 < 0: both signs
    V, x = _zero_pivot_point(name)
    assert any(any(x.off.get((k, 1), ())) for k in range(2, V.r + 1))
    res = core.ldl_decompose(x, V)
    assert (res.status, res.unit, res.pivots) == ("indefinite", None, (0,))
    assert res == dense_ldl_decompose(x, V)
    cone, point = tmp_path / "cone.json", tmp_path / "point.json"
    serialize.dump_file(str(cone), serialize.realization_to_dict(V))
    serialize.dump_file(str(point), serialize.element_to_dict(x))
    code, out, err = run(capsys, "member", "--cone", str(cone), "--point", str(point))
    assert (code, err) == (2, "")
    assert json.loads(out) == {"member": False, "pivots": ["0"], "status": "indefinite"}


def test_member_v2_failure_names_the_block(capsys, tmp_path):
    # V_32 = 0, but eliminating x_21 = x_31 = 1/2 leaves -1/4 in block (3, 2)
    cone, point = tmp_path / "cone.json", tmp_path / "point.json"
    cone.write_text(
        json.dumps(
            {
                "partition": [1, 1, 1],
                "spaces": [
                    {"k": 2, "j": 1, "basis": [["1"]]},
                    {"k": 3, "j": 1, "basis": [["1"]]},
                ],
            }
        ),
        encoding="utf-8",
    )
    point.write_text(
        json.dumps(
            {
                "diag": [1, 1, 1],
                "off": [
                    {"k": 2, "j": 1, "coords": ["1/2"]},
                    {"k": 3, "j": 1, "coords": ["1/2"]},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "member", "--cone", str(cone), "--point", str(point))
    assert (code, out) == (2, "")
    assert err == (
        "error: block (3, 2) must vanish (zero-dimensional space) (block (3, 2))\n"
    )


_DEPENDENT_CONE = {
    "partition": [1, 1],
    "spaces": [{"k": 2, "j": 1, "basis": [["1"], ["2"]]}],
}


@pytest.mark.parametrize(
    "cone, point, err",
    [
        # (V3): X tX = diag(1, 0), so step 1 leaves block 2 not scalar
        (
            {
                "partition": [2, 2],
                "spaces": [{"k": 2, "j": 1, "basis": [["1", "0", "0", "0"]]}],
            },
            {"diag": [1, 1], "off": [{"k": 2, "j": 1, "coords": [1]}]},
            "diagonal block 2 is not a scalar matrix (block ('diag', 2))",
        ),
        # a dependent basis: the first step's span solve names it
        (
            _DEPENDENT_CONE,
            {"diag": [1, 1], "off": [{"k": 2, "j": 1, "coords": [1, 0]}]},
            "linearly dependent basis in V_21 (vector 2)",
        ),
        # no step runs on a diagonal point: the rebuild certificate names it
        (
            _DEPENDENT_CONE,
            {"diag": [1, 1]},
            "linearly dependent basis in V_21 (vector 2)",
        ),
    ],
    ids=["v3", "dependent", "dependent-diagonal"],
)
def test_member_on_a_broken_cone_exit_2(capsys, tmp_path, cone, point, err):
    # a step forms only (V2) and (V3) products; for a (V2) failure see
    # test_member_v2_failure_names_the_block
    cone_path, point_path = tmp_path / "cone.json", tmp_path / "point.json"
    cone_path.write_text(json.dumps(cone), encoding="utf-8")
    point_path.write_text(json.dumps(point), encoding="utf-8")
    got = run(capsys, "member", "--cone", str(cone_path), "--point", str(point_path))
    assert got == (2, "", "error: %s\n" % err)


@pytest.mark.parametrize(
    "d, message",
    [
        *(
            pytest.param(
                {"r": 2, "dims": {"d21": value}},
                "d_21 must be a nonnegative integer",
                id=str(value),
            )
            for value in (True, -1, 2.0, "2")
        ),
        # one entry under two spellings, and a zero-padded spelling
        pytest.param(
            {"r": 3, "dims": {"d21": 1, "d31": 1, "d32": 5, "d3_2": 0}},
            "bad dimension key 'd3_2'",
            id="two-spellings",
        ),
        pytest.param(
            {"r": 3, "dims": {"d21": 1, "d31": 1, "d03_02": 0}},
            "bad dimension key 'd03_02'",
            id="zero-padded",
        ),
    ],
)
def test_sigma_dims_bad_value_exit_1(capsys, tmp_path, d, message):
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = run(capsys, "sigma", "--dims", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and message in err


def test_verify_pass_and_fail(capsys, tmp_path):
    _, cone = write_omega2(tmp_path)
    d = run_json(capsys, "verify", "--in", cone)
    assert d["passed"] and d["dims"] == {"d21": 2}
    bad = tmp_path / "bad.json"
    # lone row violates the polarized pairing against itself being scalar: take
    # two rows whose symmetric product is not a multiple of the identity
    bad.write_text(
        json.dumps(
            {
                "partition": [2, 2],
                "spaces": [{"k": 2, "j": 1, "basis": [["1", "0", "0", "0"]]}],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "verify", "--in", str(bad))
    assert code == 2
    d = json.loads(out)
    assert d["passed"] is False
    assert d["v3"]["counterexample"] == [2, 1, 1, 1]


def test_double_iterate_round_trip(capsys, tmp_path):
    _, cone = write_omega2(tmp_path)
    doubled = tmp_path / "omega3.json"
    code, out, _ = run(capsys, "double", "--in", cone, "--out", str(doubled))
    assert code == 0 and out == ""  # --out redirects the JSON to the file
    direct = tmp_path / "iter3.json"
    code, out, _ = run(capsys, "iterate", "--rank", "3", "--out", str(direct))
    assert code == 0 and out == ""
    assert serialize.load_file(str(doubled)) == serialize.load_file(str(direct))
    V = serialize.realization_from_dict(serialize.load_file(str(doubled)))
    assert V == iterate_construction(3)


def test_double_rank_cap_exit_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "r3.json"
    serialize.dump_file(str(path), serialize.realization_to_dict(iterate_construction(3)))
    monkeypatch.setattr(doubling, "DEFAULT_RANK_CAP", 3)
    out_path = tmp_path / "r4.json"
    code, out, err = run(capsys, "double", "--in", str(path), "--out", str(out_path))
    assert code == 2 and out == ""
    assert "rank 4 exceeds the cap 3" in err
    assert not out_path.exists()


def test_iterate_verifies_before_writing(capsys, monkeypatch, tmp_path):
    broken = VCollection(BlockPartition((1, 1, 1)), {(2, 1): [[[1]]], (3, 1): [[[1]]]})
    monkeypatch.setattr(doubling, "iterate_construction", lambda r: broken)
    out_path = tmp_path / "r3.json"
    code, out, err = run(capsys, "iterate", "--rank", "3", "--out", str(out_path))
    assert code == 3 and out == ""
    assert "fails (V1)-(V3)" in err
    assert not out_path.exists()


def test_iterate_stdout_without_out_flag(capsys):
    d = run_json(capsys, "iterate", "--rank", "2")
    assert d["partition"] == [2, 1]
    assert d["spaces"][0]["basis"] == [["1", "0"], ["0", "1"]]


def test_rank3_family_generate(capsys, tmp_path):
    out = tmp_path / "fam.json"
    code, text, _ = run(
        capsys, "rank3", "family", "--r", "9", "--n", "16", "--out", str(out)
    )
    assert code == 0 and text == ""
    saved = serialize.family_from_dict(serialize.load_file(str(out)))
    assert saved.r == 9 and saved.s == 16 and saved.n == 16
    d = run_json(capsys, "rank3", "family", "--r", "1", "--n", "2")
    assert d["A"] == [[["1", "0"], ["0", "1"]]]


def test_rank3_family_bound_exit_2(capsys):
    code, _, err = run(capsys, "rank3", "family", "--r", "10", "--n", "16")
    assert code == 2
    assert "9" in err  # reports the bound that was exceeded


@pytest.mark.parametrize(
    "flag, value", [("--r", "0"), ("--r", "-2"), ("--n", "0"), ("--n", "-4")]
)
def test_rank3_family_rejects_non_positive_flags(capsys, flag, value):
    flags = {"--r": "1", "--n": "2", flag: value}
    code, out, err = run(
        capsys, "rank3", "family", "--r", flags["--r"], "--n", flags["--n"]
    )
    assert code == 1
    assert out == ""
    assert flag in err


def test_rank3_family_n_limit(capsys, monkeypatch):
    from conelab import rank3

    def never(*args):
        raise AssertionError("family built past the limit")

    monkeypatch.setattr(rank3, "composition_family", never)
    limit = cli.MAX_FAMILY_N
    code, out, err = run(capsys, "rank3", "family", "--r", "1", "--n", str(limit + 1))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and str(limit) in err and "--n" in err
    assert "Traceback" not in err


def test_rank3_verify(capsys, tmp_path, monkeypatch):
    # the relations are decided once: one Gram kernel call for both keys
    from conelab import _kernels

    calls = []
    original = _kernels.gram_violation
    monkeypatch.setattr(
        _kernels, "gram_violation", lambda *args: calls.append(1) or original(*args)
    )
    _, fam = write_family(tmp_path)
    d = run_json(capsys, "rank3", "verify", "--family", fam)
    assert d["composition"] == {"passed": True, "pair": None}
    assert d["lr"] == {"passed": True, "mismatch": None}
    assert calls == [1]


def test_rank3_verify_broken_family_exit_2(capsys, tmp_path):
    F, _ = write_family(tmp_path)
    d = serialize.family_to_dict(F)
    d["A"][1][0][0] = "7"  # breaks the pairwise composition relation
    bad = tmp_path / "broken.json"
    serialize.dump_file(str(bad), d)
    code, out, _ = run(capsys, "rank3", "verify", "--family", str(bad))
    assert code == 2
    report = json.loads(out)
    assert report["composition"]["passed"] is False
    assert report["composition"]["pair"] is not None


def test_rank3_build_primal_and_dual(capsys, tmp_path):
    _, fam = write_family(tmp_path)
    d = run_json(capsys, "rank3", "build", "--family", fam)
    assert d["partition"] == [7, 3, 1]
    dd = run_json(capsys, "rank3", "build", "--family", fam, "--dual")
    assert dd["partition"] == [7, 5, 1]
    V = serialize.realization_from_dict(dd)
    assert V.dim(2, 1) == 3  # transposed generators span the (2,1) slot


def test_rank3_classify(capsys):
    d = run_json(capsys, "rank3", "classify", "--triple", "3", "5", "7")
    assert d["case"] == 3
    assert d["triple"] == [3, 5, 7]
    d = run_json(capsys, "rank3", "classify", "--triple", "5", "3", "7")
    assert d["swapped"] is True and d["normalized"] == [3, 5, 7]
    assert run(capsys, "rank3", "classify", "--triple", "3", "6", "6") == (
        2,
        "",
        "error: no composition family of shape (3, 6, 6): "
        "r = 3 exceeds the Hurwitz-Radon bound rho(6) = 2\n",
    )
    assert run(capsys, "rank3", "classify", "--triple", "-1", "2", "2")[0] == 1


def test_rank3_det(capsys, tmp_path):
    F, fam = write_family(tmp_path)
    point = tmp_path / "pt.json"
    point.write_text(
        json.dumps({"x11": 2, "x22": 3, "x33": 5, "y": [1, 0, 0, 0, 0]}),
        encoding="utf-8",
    )
    # x11=2, x22=3, x33=5, y=e1: q2 = 2*3 - 1 = 5, q3 = 2*5 = 10, and the
    # mixed term vanishes, so det = 2^(n-r-1) * q2^(r-1) * q2*q3.
    d = run_json(capsys, "rank3", "det", "--family", fam, "--point", str(point))
    assert d["det"] == str(2 ** 3 * 5 ** 2 * (5 * 10))
    dual_point = tmp_path / "dpt.json"
    dual_point.write_text(
        json.dumps({"xi11": 1, "xi22": 1, "xi33": 1}), encoding="utf-8"
    )
    dd = run_json(
        capsys, "rank3", "det", "--family", fam, "--point", str(dual_point), "--dual"
    )
    assert dd["det"] == "1"


@pytest.mark.parametrize(
    "point, flags",
    [
        ({"x11": 3, "x22": 5, "x33": 7, "x": ["1"], "y": ["2"], "z": ["1"]}, ()),
        (
            {"xi11": 3, "xi22": 5, "xi33": 7, "xi": ["1"], "eta": ["2"], "zeta": ["1"]},
            ("--dual",),
        ),
    ],
    ids=["primal", "dual"],
)
def test_rank3_det_broken_family_exit_2(capsys, tmp_path, point, flags):
    # A_1 = [[2]] breaks tA_1 A_1 = I, so no closed form applies to it
    fam = tmp_path / "broken.json"
    fam.write_text(json.dumps({"r": 1, "s": 1, "n": 1, "A": [[["2"]]]}), encoding="utf-8")
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps(point), encoding="utf-8")
    code, out, err = run(capsys, "rank3", "det", "--family", str(fam), "--point", str(pt), *flags)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "pair (1, 1)" in err


def test_rank3_det_rejects_mismatched_point(capsys, tmp_path):
    _, fam = write_family(tmp_path)
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x11": 1, "x22": 1, "x33": 1, "y": [1]}), encoding="utf-8")
    assert run(capsys, "rank3", "det", "--family", fam, "--point", str(point))[0] == 1


def test_rank3_duality(capsys, tmp_path):
    _, fam = write_family(tmp_path)
    d = run_json(
        capsys,
        "rank3", "duality", "--family", fam, "--samples", "5", "--seed", "3",
    )
    assert d == {"samples": 5, "seed": 3, "passed": True}


def test_rank3_duality_samples_limit(capsys, tmp_path):
    # refused before the family file is read: it does not exist
    limit = cli.MAX_DUALITY_SAMPLES
    missing = str(tmp_path / "missing.json")
    code, out, err = run(
        capsys, "rank3", "duality", "--family", missing, "--samples", str(limit + 1)
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and str(limit) in err and "--samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--samples", "0"),
        ("--samples", "-3"),
    ],
)
def test_rank3_duality_rejects_non_positive_flags(capsys, tmp_path, flag, value):
    # zero samples would otherwise report a pass after no checks at all
    _, fam = write_family(tmp_path)
    code, out, err = run(capsys, "rank3", "duality", "--family", fam, flag, value)
    assert code == 1
    assert out == ""
    assert flag in err


def test_malformed_json_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 1
    assert "invalid JSON" in err


def test_missing_file_exit_1(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", "--in", str(tmp_path / "nope.json"))
    assert code == 1


def test_negative_partition_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"partition": [-2, 1], "spaces": []}), encoding="utf-8")
    assert run(capsys, "verify", "--in", str(bad))[0] == 1


def test_unknown_flag_exit_1(capsys):
    assert run(capsys, "theorem", "--rank", "3", "--bogus")[0] == 1


def test_unknown_command_exit_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_output_is_canonical(capsys):
    code, out, _ = run(capsys, "theorem", "--rank", "2")
    assert code == 0
    assert out == serialize.dumps_canonical(json.loads(out))


def test_point_on_wrong_schema_exit_1(capsys, tmp_path):
    _, cone = write_omega2(tmp_path)
    point = tmp_path / "p.json"
    point.write_text(json.dumps({"x11": 1}), encoding="utf-8")
    assert run(capsys, "member", "--cone", cone, "--point", str(point))[0] == 1


def run_child(*argv):
    """conelab.cli in a fresh interpreter, importing this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conelab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "conelab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("utf16.json", b"\xff\xfe{\x00}\x00", "not UTF-8"),
        ("deep.json", b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    ],
    ids=["non-utf8", "deeply-nested"],
)
def test_unreadable_json_exit_1_without_traceback(tmp_path, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    child = run_child("verify", "--in", str(path))
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr.count("\n") == 1 and message in child.stderr
    assert "Traceback" not in child.stderr


_LONG = "7" * 5000  # over Python's default 4300-digit int/str limit
_LIMIT = "more than 4300 digits"


@pytest.mark.parametrize(
    "entry, message",
    [(_LONG, "integer with " + _LIMIT), ('"%s"' % _LONG, "rational with " + _LIMIT)],
    ids=["json-int", "rational-string"],
)
def test_over_long_integer_input_exit_1(tmp_path, entry, message):
    path = tmp_path / "long.json"
    path.write_text(
        '{"partition": [1, 1], "spaces": [{"k": 2, "j": 1, "basis": [[%s]]}]}'
        % entry,
        encoding="utf-8",
    )
    child = run_child("verify", "--in", str(path))
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr.count("\n") == 1 and message in child.stderr
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("digits", [1000], ids=["exact"])
def test_rank3_det_too_large_to_write_exit_1(tmp_path, digits):
    # det is a product of 11 diagonal entries: over 4300 digits
    _, fam = write_family(tmp_path)
    point = tmp_path / "pt.json"
    big = "9" * digits
    point.write_text(json.dumps({"x11": big, "x22": big, "x33": big}), encoding="utf-8")
    child = run_child("rank3", "det", "--family", fam, "--point", str(point))
    assert child.returncode == 1
    assert child.stdout == ""
    message = "cannot write a value of " + _LIMIT
    assert child.stderr.count("\n") == 1 and message in child.stderr
    assert "Traceback" not in child.stderr


def test_rank3_build_dual_refuses_broken_family(capsys, tmp_path):
    F, _ = write_family(tmp_path)
    d = serialize.family_to_dict(F)
    d["A"][1][0][0] = "1"  # the pair (1, 2) relation of F no longer holds
    fam = tmp_path / "broken.json"
    serialize.dump_file(str(fam), d)
    for side in ((), ("--dual",)):
        code, out, err = run(capsys, "rank3", "build", "--family", str(fam), *side)
        assert code == 2 and out == ""
        assert "pair (1, 2)" in err


def run_child_peak(*argv):
    """run_child from a small launcher that reads the child's peak RSS.

    The launcher is a bare interpreter, so the peak that a forked child
    inherits from its parent is the launcher's, not the test process's.
    Returns (exit code, stdout, peak RSS in MB).
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(conelab.__file__)))
    launcher = (
        "import json, resource, subprocess, sys\n"
        "child = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "json.dump([child.returncode, child.stdout, peak], sys.stdout)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-m", "conelab.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    code, out, peak = json.loads(done.stdout)
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS
    return code, out, peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def test_member_memory_does_not_grow_with_block_size(tmp_path):
    # the scalar part of a diagonal block stays a number: a one-block cone
    # of size 10^6 and one of size 1 give the same answer at a small peak
    point = tmp_path / "point.json"
    point.write_text('{"diag": ["1"]}', encoding="utf-8")
    runs = []
    for n in (1, 10**6):
        cone = tmp_path / ("cone_%d.json" % n)
        cone.write_text('{"partition": [%d], "spaces": []}' % n, encoding="utf-8")
        runs.append(run_child_peak("member", "--cone", str(cone), "--point", str(point)))
    (code_1, out_1, _), (code, out, peak) = runs
    assert code == code_1 == 0 and out == out_1
    assert json.loads(out)["member"] is True
    assert peak < 50


@pytest.mark.parametrize(
    "triple, code",
    [(("16385", "16385", "24576"), 2), (("16383", "16383", "16384"), 0)],
    ids=["refused", "accepted"],
)
def test_rank3_classify_large_triples_finish(capsys, triple, code):
    # the first odd C(n, k) is found from the bits of n (Lucas), and a
    # binomial past the int/str digit limit is not printed
    start = time.perf_counter()
    got, _, err = run(capsys, "rank3", "classify", "--triple", *triple)
    assert time.perf_counter() - start < 1
    assert got == code
    child = run_child("rank3", "classify", "--triple", *triple)
    assert child.returncode == code and "Traceback" not in child.stderr
    if code:
        assert "C(24576, 8192) is odd" in child.stderr and child.stdout == ""


def test_sigma_dims_refuted_by_v1_product(capsys, tmp_path):
    # d_32 = 2 and d_43 = 1 would make V_43 x V_32 -> V_42 a nonsingular
    # bilinear map R^1 x R^2 -> R^1; the layering alone accepts the table
    dims = {"d21": 0, "d31": 0, "d41": 0, "d32": 2, "d42": 1, "d43": 1}
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"r": 4, "dims": dims}), encoding="utf-8")
    table = serialize.dims_from_dict(json.loads(path.read_text()))
    assert sigma_from_dims(table).rows
    code, out, err = run(capsys, "sigma", "--dims", str(path))
    assert (code, out) == (2, "")
    assert "(i, j, k) = (2, 3, 4)" in err
    assert "R^1 x R^2 -> R^1" in err and "n = 1 is below max(r, s) = 2" in err


def test_dense_writers_refuse_over_the_entry_limit(capsys, monkeypatch, tmp_path):
    # iterate, double and rank3 build count the dense entries before they
    # build any JSON, and iterate and double before they verify anything;
    # rank 3 has 4*2*2 + 4*4*1 + 2*2*1 = 36
    _, cone = write_omega2(tmp_path)
    _, fam = write_family(tmp_path)
    monkeypatch.setattr(cli, "MAX_DENSE_ENTRIES", 35)
    monkeypatch.setattr(
        serialize, "realization_to_dict", lambda V: pytest.fail("JSON was built")
    )
    for module in (core, doubling):
        monkeypatch.setattr(
            module, "verify_v_conditions", lambda V: pytest.fail("verified")
        )
    out_path = tmp_path / "out.json"
    for argv in (
        ("iterate", "--rank", "3"),
        ("double", "--in", cone),
        ("rank3", "build", "--family", fam),
        ("rank3", "build", "--family", fam, "--dual"),
    ):
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (1, "")
        assert "exceeds the limit of 35" in err
        assert not out_path.exists()


def test_iterate_rank_11_refused_at_a_small_peak():
    code, out, peak = run_child_peak("iterate", "--rank", "11")
    assert (code, out) == (1, "")
    assert peak < 80


# Fuzzing the CLI in process: whatever the files hold, every command exits
# 0, 1 or 2 through cli.main, and no exception escapes it.

_WIRE_KEYS = (
    "partition", "spaces", "k", "j", "basis", "diag", "off", "coords",
    "r", "s", "n", "A", "dims", "d21", "d31", "d32",
    "x11", "x22", "x33", "x", "y", "z", "xi11", "xi22", "xi33", "xi", "eta", "zeta",
)
_wire_json = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.floats(-2, 2),
        st.sampled_from(["0", "1", "-1", "1/2", "2/0", "4/6", "x", ""]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(_WIRE_KEYS), inner, max_size=5),
    ),
    max_leaves=16,
)
_rationals = st.one_of(
    st.sampled_from(["0", "1", "-1"]),
    st.fractions(-3, 3, max_denominator=3).map(serialize.rational_to_str),
)


def _rational_list(size):
    return st.lists(_rationals, min_size=size, max_size=size)


@st.composite
def _realization_files(draw):
    """A well-shaped realization, a point on it and a dims table of its rank."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    r = len(sizes)
    spaces, off, dims = [], [], {}
    for k in range(2, r + 1):
        for j in range(1, k):
            dim = draw(st.integers(0, 2))
            entries = _rational_list(sizes[k - 1] * sizes[j - 1])
            basis = draw(st.lists(entries, min_size=dim, max_size=dim))
            spaces.append({"k": k, "j": j, "basis": basis})
            off.append({"k": k, "j": j, "coords": draw(_rational_list(dim))})
            dims["d%d%d" % (k, j)] = draw(st.integers(0, 4))
    return {
        "cone": {"partition": sizes, "spaces": spaces},
        "element": {"diag": draw(_rational_list(r)), "off": off},
        "dims": {"r": r, "dims": dims},
    }


@st.composite
def _family_files(draw):
    """A well-shaped family of shape (r, s, n) and a point of each side."""
    r, s = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    n = draw(st.integers(max(r, s), 3))
    matrix = st.lists(_rational_list(s), min_size=n, max_size=n)
    A = draw(st.lists(matrix, min_size=r, max_size=r))
    files = {"family": {"r": r, "s": s, "n": n, "A": A}}
    for name, fields in (
        ("point", ("x11", "x22", "x33", "x", "y", "z")),
        ("dual", ("xi11", "xi22", "xi33", "xi", "eta", "zeta")),
    ):
        point = {f: draw(_rationals) for f in fields[:3]}
        for f, size in zip(fields[3:], (r, s, n)):
            point[f] = draw(_rational_list(size))
        files[name] = point
    return files


_FUZZ_COMMANDS = (
    ("verify", "--in", "{cone}"),
    ("member", "--cone", "{cone}", "--point", "{element}"),
    ("double", "--in", "{cone}"),
    ("sigma", "--dims", "{dims}"),
    ("rank3", "det", "--family", "{family}", "--point", "{point}"),
    ("rank3", "det", "--family", "{family}", "--point", "{dual}", "--dual"),
    ("rank3", "build", "--family", "{family}"),
    ("rank3", "build", "--family", "{family}", "--dual"),
    ("rank3", "duality", "--family", "{family}", "--samples", "1"),
)
_ALL_INPUTS = ("cone", "element", "dims", "family", "point", "dual")


@settings(max_examples=90, deadline=None)
@given(
    st.one_of(
        _wire_json.map(lambda d: dict.fromkeys(_ALL_INPUTS, d)),
        _realization_files(),
        _family_files(),
    )
)
def test_cli_fuzz_exits_0_1_or_2(inputs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in inputs.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        for argv in _FUZZ_COMMANDS:
            try:
                argv = [a.format(**paths) for a in argv]
            except KeyError:  # an input this example does not hold
                continue
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
