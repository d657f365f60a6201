"""JSON round-tripping for realizations, elements, families, and reports.

Wire conventions: rationals travel as canonical strings ("5", "-3/7"); plain
ints are accepted on input but floats never are. Output dicts are plain JSON
types only, so dumps_canonical (sorted keys) yields stable golden files.

A realization travels densely: each basis element is its flat row-major
matrix. Both directions work from the nonzero entries. The writer fills a
list of "0" strings and sets the nonzeros of VCollection.entries; the reader
skips every exact "0" string, parses the other values and hands the nonzeros
to VCollection.from_entries, so no dense matrix is built either way.

dumps_canonical writes the same bytes as json.dumps(obj, sort_keys=True,
indent=2) plus a newline, but it is a small recursive writer that appends
to one list of parts and joins it once, so each output byte is copied once:
strings go through the C string encoder of the json module, ints through
int.__repr__, and a flat list of strings or ints is joined in one call.
json.dumps encodes with indent in pure Python, which is several times
slower.
"""

import json
import re
import sys
from fractions import Fraction

from conelab import degrees as degrees_mod
from conelab.errors import SerializationError

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _too_long(what):
    # Python refuses int/str conversions beyond this many digits (ValueError)
    return SerializationError(
        "%s more than %d digits, Python's int/str conversion limit"
        " (set by PYTHONINTMAXSTRDIGITS)" % (what, sys.get_int_max_str_digits())
    )


def parse_rational(value):
    """Read one rational off the wire.

    Accepts ints and "p" / "p/q" strings; "4/6" style non-canonical input is
    normalized. Floats and bools are rejected: exactness is the whole point.
    """
    if isinstance(value, bool):
        raise SerializationError("booleans are not rational values: %r" % (value,))
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if not _RAT_RE.match(value):
            raise SerializationError("malformed rational %r" % (value,))
        try:
            if "/" in value:
                num, den = value.split("/")
                q = Fraction(int(num), int(den))
                return q.numerator if q.denominator == 1 else q
            return int(value)
        except ValueError as exc:
            raise _too_long("rational with") from exc
    raise SerializationError("expected a rational string or int, got %r" % (value,))


def rational_to_str(value):
    try:
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return str(value.numerator)
            return "%d/%d" % (value.numerator, value.denominator)
        return str(value)
    except ValueError as exc:
        raise _too_long("cannot write a value of") from exc


def approx_float(value):
    """float(value), refused when value is beyond the float range."""
    try:
        return float(Fraction(value))
    except OverflowError as exc:
        raise SerializationError(
            "cannot approximate a value beyond the float range"
        ) from exc


def _rat_list(values):
    return [rational_to_str(v) for v in values]


def _parse_list(values, where):
    if not isinstance(values, list):
        raise SerializationError("%s must be a list" % where)
    return tuple(parse_rational(v) for v in values)


def _require_keys(d, required, optional, where):
    if not isinstance(d, dict):
        raise SerializationError("%s must be an object" % where)
    missing = [k for k in required if k not in d]
    if missing:
        raise SerializationError("%s missing key %s" % (where, missing[0]))
    extra = [k for k in d if k not in required and k not in optional]
    if extra:
        raise SerializationError("%s has unknown key %r" % (where, extra[0]))


def _parse_index(value, name):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SerializationError("%s must be a positive integer" % name)
    return value


# realizations


def realization_to_dict(V):
    spaces = []
    for k, j in V.spaces():
        nk, nj = V.partition.size(k), V.partition.size(j)
        basis = []
        for element in V.entries(k, j):
            flat = ["0"] * (nk * nj)
            for u, v, e in element:
                flat[u * nj + v] = rational_to_str(e)
            basis.append(flat)
        spaces.append({"k": k, "j": j, "basis": basis})
    return {"partition": list(V.partition.sizes), "spaces": spaces}


def realization_from_dict(d):
    from conelab.core import BlockPartition, VCollection

    _require_keys(d, ("partition", "spaces"), (), "realization")
    if not isinstance(d["partition"], list) or not d["partition"]:
        raise SerializationError("partition must be a nonempty list")
    sizes = tuple(_parse_index(n, "partition entry") for n in d["partition"])
    partition = BlockPartition(sizes)
    r = partition.r
    entries = {}
    if not isinstance(d["spaces"], list):
        raise SerializationError("spaces must be a list")
    for entry in d["spaces"]:
        _require_keys(entry, ("k", "j", "basis"), (), "space entry")
        k = _parse_index(entry["k"], "k")
        j = _parse_index(entry["j"], "j")
        if not (1 <= j < k <= r):
            raise SerializationError("bad space index (%d, %d)" % (k, j))
        if (k, j) in entries:
            raise SerializationError("duplicate space entry (%d, %d)" % (k, j))
        nk, nj = partition.size(k), partition.size(j)
        elements = []
        if not isinstance(entry["basis"], list):
            raise SerializationError("basis of V_%d%d must be a list" % (k, j))
        for flat in entry["basis"]:
            if not isinstance(flat, list):
                raise SerializationError(
                    "basis element of V_%d%d must be a list" % (k, j)
                )
            nonzero = []
            # the exact string "0" is the one zero the writer emits; any
            # other spelling of zero is parsed (and checked) like a nonzero
            for idx, e in enumerate(flat):
                if e != "0":
                    value = parse_rational(e)
                    if value:
                        nonzero.append((*divmod(idx, nj), value))
            if len(flat) != nk * nj:
                raise SerializationError(
                    "basis element of V_%d%d has %d entries, expected %d"
                    % (k, j, len(flat), nk * nj)
                )
            elements.append(nonzero)
        entries[(k, j)] = elements
    return VCollection.from_entries(partition, entries)


# elements

def _coords_to_list(mapping):
    out = []
    for (k, j), coords in sorted(mapping.items()):
        if any(coords):
            out.append({"k": k, "j": j, "coords": _rat_list(coords)})
    return out


def _coords_from_list(entries, where):
    if not isinstance(entries, list):
        raise SerializationError("%s must be a list" % where)
    out = {}
    for entry in entries:
        _require_keys(entry, ("k", "j", "coords"), (), where)
        k = _parse_index(entry["k"], "k")
        j = _parse_index(entry["j"], "j")
        if (k, j) in out:
            raise SerializationError("duplicate %s entry (%d, %d)" % (where, k, j))
        out[(k, j)] = _parse_list(entry["coords"], where)
    return out


def element_to_dict(x):
    return {"diag": _rat_list(x.diag), "off": _coords_to_list(x.off)}


def element_from_dict(d, V):
    from conelab.core import cone_element

    _require_keys(d, ("diag",), ("off",), "element")
    diag = _parse_list(d["diag"], "diag")
    off = _coords_from_list(d.get("off", []), "off")
    return cone_element(V, diag, off)


def group_to_dict(h):
    return {"diag": _rat_list(h.diag), "lower": _coords_to_list(h.lower)}


# composition families


def family_to_dict(F):
    return {
        "r": F.r,
        "s": F.s,
        "n": F.n,
        "A": [[_rat_list(row) for row in mat] for mat in F.mats],
    }


def family_from_dict(d):
    _require_keys(d, ("r", "s", "n", "A"), (), "family")
    for key in ("r", "s", "n"):
        if not isinstance(d[key], int) or isinstance(d[key], bool) or d[key] < 0:
            raise SerializationError("%s must be a nonnegative integer" % key)
    if not isinstance(d["A"], list):
        raise SerializationError("A must be a list of matrices")
    mats = []
    for idx, mat in enumerate(d["A"]):
        if not isinstance(mat, list):
            raise SerializationError("A[%d] must be a list of rows" % idx)
        mats.append(tuple(_parse_list(row, "A[%d] row" % idx) for row in mat))
    from conelab.rank3 import CompositionFamily

    return CompositionFamily(d["r"], d["s"], d["n"], mats)


# rank-3 points


def point_to_dict(X):
    """The named coordinates of a Rank3Element or a DualRank3Element."""
    names = X._fields
    out = {k: rational_to_str(getattr(X, k)) for k in names[:3]}
    out.update((k, _rat_list(getattr(X, k))) for k in names[3:])
    return out


dual_point_to_dict = point_to_dict


def _point_from_dict(d, F, cls, build, where):
    names = cls._fields
    _require_keys(d, names[:3], names[3:], where)
    diag = [parse_rational(d[k]) for k in names[:3]]
    dims = (F.r, F.s, F.n)
    vecs = [_parse_list(d.get(k, [0] * m), k) for k, m in zip(names[3:], dims)]
    return build(F, *diag, *vecs)


def point_from_dict(d, F):
    from conelab.rank3 import Rank3Element, rank3_element

    return _point_from_dict(d, F, Rank3Element, rank3_element, "point")


def dual_point_from_dict(d, F):
    from conelab.rank3 import DualRank3Element, dual_rank3_element

    return _point_from_dict(d, F, DualRank3Element, dual_rank3_element, "dual point")


# dimension tables and sigma output


def _dim_key(k, j):
    # two-digit block indices need the separator to stay unambiguous
    return "d%d_%d" % (k, j) if k >= 10 or j >= 10 else "d%d%d" % (k, j)


_DIM_KEY_RE = re.compile(r"^d(\d+)_(\d+)$|^d(\d)(\d)$")


def dims_to_dict(table):
    return {
        "r": table.r,
        "dims": {_dim_key(k, j): v for (k, j), v in table.items()},
    }


def dims_from_dict(d):
    _require_keys(d, ("r", "dims"), (), "dims")
    r = _parse_index(d["r"], "r")
    if not isinstance(d["dims"], dict):
        raise SerializationError("dims must be an object")
    entries = {}
    for key, value in d["dims"].items():
        m = _DIM_KEY_RE.match(key)
        if not m:
            raise SerializationError("bad dimension key %r" % key)
        k, j = (m.group(1), m.group(2)) if m.group(1) else (m.group(3), m.group(4))
        entries[(int(k), int(j))] = value
    # DimTable checks each value; its ValueError is a malformed file here
    try:
        return degrees_mod.DimTable(r, entries)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def sigma_to_dict(sigma):
    steps = []
    for step in sigma.trace:
        steps.append(
            {
                "i": step.i,
                "stages": [
                    {"k": k, "l": list(vec)} for k, vec in step.stages
                ],
                "epsilon": list(step.epsilon),
            }
        )
    return {
        "sigma": [list(row) for row in sigma.rows],
        "degrees": list(degrees_mod.degrees_from_sigma(sigma)),
        "trace": {"steps": steps},
    }


# reports


def verification_report_to_dict(report):
    def cond(c):
        d = {"passed": c.passed}
        if c.counterexample is not None:
            d["counterexample"] = list(c.counterexample)
        return d

    return {
        "passed": report.passed,
        "v1": cond(report.v1),
        "v2": cond(report.v2),
        "v3": cond(report.v3),
        "dims": dims_to_dict(report.dims)["dims"],
        "orthonormal": report.orthonormal,
    }


def ldl_to_dict(result, approx=False):
    out = {
        "member": result.is_member,
        "status": result.status,
        "pivots": _rat_list(result.pivots),
    }
    if result.unit is not None:
        out["unit"] = group_to_dict(result.unit)
    if approx:
        out["pivots_approx"] = [approx_float(p) for p in result.pivots]
    return out


def classification_to_dict(c):
    return {
        "case": c.case,
        "triple": list(c.triple),
        "normalized": list(c.normalized),
        "swapped": c.swapped,
        "primal_degrees": list(c.primal),
        "dual_degrees": list(c.dual),
    }


_quote = json.encoder.encode_basestring_ascii


def _write(obj, nl, out):
    """Append the canonical JSON text of obj to out; nl is its line's indent."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out.append(int.__repr__(obj))
    elif not isinstance(obj, (list, tuple, dict)) or not obj:
        # empty containers, bool, None and float; TypeError on anything else
        out.append(json.dumps(obj))
    else:
        inner = nl + "  "
        sep = "," + inner
        if isinstance(obj, dict):
            head = "{" + inner
            for key in sorted(obj):
                out += (head, _quote(key), ": ")
                head = sep
                _write(obj[key], inner, out)
            out += (nl, "}")
        elif set(map(type, obj)) in ({str}, {int}):
            body = map(_quote if type(obj[0]) is str else int.__repr__, obj)
            out += ("[", inner, sep.join(body), nl, "]")
        else:
            head = "[" + inner
            for e in obj:
                out.append(head)
                head = sep
                _write(e, inner, out)
            out += (nl, "]")


def dumps_canonical(obj):
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline, byte for byte.

    Dict keys must be strings (TypeError otherwise); the wire formats use no
    other kind.
    """
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def load_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SerializationError("%s: invalid JSON at line %d column %d"
                                 % (path, exc.lineno, exc.colno)) from exc
    except UnicodeDecodeError as exc:
        raise SerializationError("%s: not UTF-8 text (byte %d)"
                                 % (path, exc.start)) from exc
    except RecursionError as exc:
        raise SerializationError("%s: JSON nested too deeply" % path) from exc
    except ValueError as exc:
        # after its subclasses above: what is left is an over-long integer
        raise _too_long("%s: integer with" % path) from exc
    except OSError as exc:
        raise SerializationError("%s: %s" % (path, exc.strerror)) from exc


def dump_file(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
