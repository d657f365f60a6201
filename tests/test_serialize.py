import copy
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelab import serialize
from conelab.core import (
    BlockPartition,
    VCollection,
    cone_element,
    group_element,
    ldl_decompose,
    verify_v_conditions,
)
from conelab.degrees import DimTable, rank3_table, sigma_from_dims
from conelab.errors import SerializationError
from conelab.rank3 import classify_degrees
from conelab.sampling import RationalSampler
from tests.dense_oracle import dense_basis, dense_realization_from_dict


@pytest.fixture(scope="module")
def omega2():
    return VCollection(BlockPartition((2, 1)), {(2, 1): [[[1, 0]], [[0, 1]]]})


def test_parse_rational_values():
    assert serialize.parse_rational(5) == 5
    assert serialize.parse_rational("-3") == -3
    assert serialize.parse_rational("3/4") == Fraction(3, 4)
    assert serialize.parse_rational("4/6") == Fraction(2, 3)
    assert serialize.parse_rational("6/3") == 2
    assert isinstance(serialize.parse_rational("6/3"), int)


@pytest.mark.parametrize(
    "bad", [1.5, True, None, "1.5", "1/0", "3/-2", "/2", "a", "", [1]]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(SerializationError):
        serialize.parse_rational(bad)


def test_rational_to_str():
    assert serialize.rational_to_str(5) == "5"
    assert serialize.rational_to_str(Fraction(-1, 3)) == "-1/3"
    assert serialize.rational_to_str(Fraction(4, 2)) == "2"


def test_realization_round_trip(omega2):
    d = serialize.realization_to_dict(omega2)
    assert d["partition"] == [2, 1]
    assert d["spaces"][0]["basis"] == [["1", "0"], ["0", "1"]]
    assert serialize.realization_from_dict(d) == omega2


def test_realization_from_dict_errors():
    with pytest.raises(SerializationError, match="missing key"):
        serialize.realization_from_dict({"partition": [2, 1]})
    with pytest.raises(SerializationError, match="duplicate"):
        serialize.realization_from_dict(
            {
                "partition": [2, 1],
                "spaces": [
                    {"k": 2, "j": 1, "basis": [["1", "0"]]},
                    {"k": 2, "j": 1, "basis": [["0", "1"]]},
                ],
            }
        )
    with pytest.raises(SerializationError, match="expected 2"):
        serialize.realization_from_dict(
            {"partition": [2, 1], "spaces": [{"k": 2, "j": 1, "basis": [["1"]]}]}
        )
    with pytest.raises(SerializationError, match="bad space index"):
        serialize.realization_from_dict(
            {"partition": [2, 1], "spaces": [{"k": 1, "j": 2, "basis": []}]}
        )
    with pytest.raises(SerializationError, match="unknown key"):
        serialize.realization_from_dict(
            {"partition": [1], "spaces": [], "extra": 1}
        )


def test_element_round_trip(omega2):
    x = cone_element(omega2, (Fraction(1, 2), 3), {(2, 1): (1, Fraction(-2, 5))})
    d = serialize.element_to_dict(x)
    assert d["diag"] == ["1/2", "3"]
    assert serialize.element_from_dict(d, omega2) == x
    # zero blocks are dropped from the wire form
    y = cone_element(omega2, (1, 1))
    assert serialize.element_to_dict(y)["off"] == []
    assert serialize.element_from_dict({"diag": [1, 1]}, omega2) == y


def test_group_round_trip(omega2):
    h = group_element(omega2, (2, Fraction(-1, 3)), {(2, 1): (0, 7)})
    assert serialize.group_to_dict(h) == {
        "diag": ["2", "-1/3"],
        "lower": [{"k": 2, "j": 1, "coords": ["0", "7"]}],
    }


def test_family_round_trip(fixture_family):
    d = serialize.family_to_dict(fixture_family)
    assert d["r"] == 3 and d["s"] == 5 and d["n"] == 7
    assert serialize.family_from_dict(d) == fixture_family


def test_point_round_trips(fixture_family):
    sampler = RationalSampler(seed=50)
    X = sampler.rank3_element(fixture_family)
    d = serialize.point_to_dict(X)
    assert serialize.point_from_dict(d, fixture_family) == X
    Xi = sampler.dual_rank3_element(fixture_family)
    dd = serialize.dual_point_to_dict(Xi)
    assert serialize.dual_point_from_dict(dd, fixture_family) == Xi
    # absent coordinate vectors mean zero
    X0 = serialize.point_from_dict(
        {"x11": 1, "x22": 2, "x33": 3}, fixture_family
    )
    assert X0.y == (0,) * 5 and X0.z == (0,) * 7


def test_dims_round_trip():
    t = rank3_table(2, 4, 2)
    d = serialize.dims_to_dict(t)
    assert d == {"r": 3, "dims": {"d21": 2, "d31": 4, "d32": 2}}
    assert serialize.dims_from_dict(d) == t


def test_dims_wide_rank_keys():
    dims = {(k, j): 1 for k in range(2, 12) for j in range(1, k)}
    t = DimTable(11, dims)
    d = serialize.dims_to_dict(t)
    assert "d10_9" in d["dims"] and "d11_10" in d["dims"]
    assert "d21" in d["dims"]
    assert serialize.dims_from_dict(d) == t


def test_dims_from_dict_errors():
    with pytest.raises(SerializationError, match="bad dimension key"):
        serialize.dims_from_dict({"r": 2, "dims": {"q21": 1}})
    with pytest.raises(SerializationError, match="nonnegative"):
        serialize.dims_from_dict({"r": 2, "dims": {"d21": -1}})
    with pytest.raises(SerializationError, match="partial"):
        serialize.dims_from_dict({"r": 3, "dims": {"d21": 1}})
    with pytest.raises(SerializationError):
        serialize.dims_from_dict({"r": 2, "dims": {"d21": "2"}})


def test_sigma_to_dict_structure():
    s = sigma_from_dims(rank3_table(2, 4, 2))
    d = serialize.sigma_to_dict(s)
    assert d["sigma"] == [[1, 0, 0], [1, 1, 0], [2, 1, 1]]
    assert d["degrees"] == [1, 2, 4]
    steps = d["trace"]["steps"]
    assert steps[0]["i"] == 1
    assert steps[0]["epsilon"] == [1, 1]
    assert all("k" in st and "l" in st for st in steps[0]["stages"])


def test_verification_report_to_dict(omega2):
    d = serialize.verification_report_to_dict(verify_v_conditions(omega2))
    assert d["passed"] and d["orthonormal"]
    assert d["v1"] == {"passed": True}
    assert d["dims"] == {"d21": 2}


def test_ldl_to_dict(omega2):
    res = ldl_decompose(cone_element(omega2, (2, 1), {(2, 1): (1, 0)}), omega2)
    d = serialize.ldl_to_dict(res)
    assert d["member"] is True
    assert d["pivots"] == ["2", "1/2"]
    assert "pivots_approx" not in d
    d = serialize.ldl_to_dict(res, approx=True)
    assert d["pivots_approx"] == [2.0, 0.5]


def test_classification_to_dict():
    d = serialize.classification_to_dict(classify_degrees(3, 5, 7))
    assert d["case"] == 3
    assert d["primal_degrees"] == [1, 2, 4]
    assert d["dual_degrees"] == [4, 2, 1]


def test_dumps_canonical_stable():
    obj = {"b": [Fraction(1, 2)], "a": 1}
    with pytest.raises(TypeError):
        json.dumps(obj)  # Fractions never leak to json directly
    text = serialize.dumps_canonical({"b": ["1/2"], "a": 1})
    assert text == '{\n  "a": 1,\n  "b": [\n    "1/2"\n  ]\n}\n'
    assert text == serialize.dumps_canonical(json.loads(text))


def test_bundled_fixture_file_is_canonical():
    from importlib import resources

    raw = resources.files("conelab").joinpath("data/family_3_5_7.json").read_text()
    assert raw == serialize.dumps_canonical(json.loads(raw))


def test_load_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(SerializationError, match="line 1"):
        serialize.load_file(str(bad))
    with pytest.raises(SerializationError):
        serialize.load_file(str(tmp_path / "missing.json"))


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF)),
    st.lists(st.text(), max_size=6),
    st.lists(st.integers(), max_size=6),
)
_json_trees = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
@example({"a": {}, "b": [], "c": [[], {}], "d": [{}, [[]]]})
@example(["\x00\x1f\x7f", "é", " ", "\U0001f600", "\ud800", 2**200, -(2**70)])
@example([1, True, None, 0.5, "x", [1, "1"], {"k": False}])
@example((1, (2, "3"), []))
def test_dumps_canonical_matches_json(obj):
    assert serialize.dumps_canonical(obj) == (
        json.dumps(obj, sort_keys=True, indent=2) + "\n"
    )


_plain_trees = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.text(max_size=6),
        st.lists(st.integers(), max_size=6).map(tuple),
        st.lists(st.text(max_size=3), max_size=6).map(tuple),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_plain_trees)
@example(((), [()], {"t": (1, "1")}, (True, 1), ("a", None), [[1], (2,)]))
def test_dumps_canonical_matches_json_on_tuples(obj):
    """Nested dict/list/tuple/int/str/bool/None, the one-pass writer's input."""
    assert serialize.dumps_canonical(obj) == (
        json.dumps(obj, sort_keys=True, indent=2) + "\n"
    )


def test_dumps_canonical_matches_json_on_extremal_sigma():
    for r in range(1, 61):
        table = DimTable(
            r, {(k, j): 2 ** (k - j) for k in range(2, r + 1) for j in range(1, k)}
        )
        d = serialize.sigma_to_dict(sigma_from_dims(table))
        assert serialize.dumps_canonical(d) == (
            json.dumps(d, sort_keys=True, indent=2) + "\n"
        )


@pytest.mark.parametrize(
    "obj", [{1: "x"}, {None: 1}, {"a": [{"b": 1, 2: 3}]}, [{(1,): 0}]]
)
def test_dumps_canonical_refuses_non_str_keys(obj):
    with pytest.raises(TypeError):
        serialize.dumps_canonical(obj)


def test_dumps_canonical_rejects_what_json_cannot_write():
    with pytest.raises(TypeError):
        serialize.dumps_canonical({"b": [Fraction(1, 2)]})
    with pytest.raises(TypeError):
        serialize.dumps_canonical({(2, 1): "x"})


def _reader_sources():
    from conelab.doubling import iterate_construction
    from conelab.rank3 import (
        CompositionFamily,
        build_rank3_cone,
        build_rank3_dual,
        bundled_family_3_5_7,
        composition_family,
    )

    sources = {
        "doubled-%d" % r: lambda r=r: iterate_construction(r) for r in range(2, 8)
    }
    families = {
        "3_5_7": bundled_family_3_5_7,
        "8_16": lambda: composition_family(8, 16),
        "r0_2_3": lambda: CompositionFamily(0, 2, 3, []),
    }
    for name, family in families.items():
        sources[name + "-cone"] = lambda f=family: build_rank3_cone(f())
        sources[name + "-dual"] = lambda f=family: build_rank3_dual(f())
    return sources


_READER_SOURCES = _reader_sources()


def _snapshot(V):
    return V.partition, {key: V.entries(*key) for key in V.spaces()}


@pytest.mark.parametrize("name", sorted(_READER_SOURCES))
def test_realization_wire_matches_dense_oracle(name):
    V = _READER_SOURCES[name]()
    d = serialize.realization_to_dict(V)
    # the writer fills from entries what the dense basis spells out in full
    assert d["spaces"] == [
        {
            "k": k,
            "j": j,
            "basis": [
                [serialize.rational_to_str(e) for row in M for e in row]
                for M in dense_basis(V, k, j)
            ],
        }
        for k, j in V.spaces()
    ]
    d = json.loads(serialize.dumps_canonical(d))
    W = serialize.realization_from_dict(d)
    assert _snapshot(W) == _snapshot(dense_realization_from_dict(d)) == _snapshot(V)


def _read_outcome(reader, d):
    try:
        return "ok", _snapshot(reader(d))
    except SerializationError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("name", ["doubled-4", "3_5_7-cone", "r0_2_3-dual"])
def test_realization_reader_errors_match_dense_oracle(name):
    good = serialize.realization_to_dict(_READER_SOURCES[name]())
    flat = good["spaces"][-1]["basis"][0]
    positions = [flat.index("0"), next(i for i, e in enumerate(flat) if e != "0")]
    cases = []
    for idx in positions:
        for must_fail, values in ((False, ["00", "-0", "0/5", 0]),
                                  (True, [False, 0.0, "+0", "1/0"])):
            for value in values:
                cases.append((must_fail, lambda f, i=idx, v=value: f.__setitem__(i, v)))
    cases.append((True, lambda f: f.append("0")))
    cases.append((True, lambda f: f.append("1")))
    cases.append((True, lambda f: f.pop()))
    for must_fail, mutate in cases:
        d = copy.deepcopy(good)
        mutate(d["spaces"][-1]["basis"][0])
        outcome = _read_outcome(serialize.realization_from_dict, d)
        assert outcome == _read_outcome(dense_realization_from_dict, d)
        assert (outcome[0] == "error") == must_fail
