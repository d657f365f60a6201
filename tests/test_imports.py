"""The import graph: each entry point loads only the modules it runs.

Each check runs in a fresh interpreter, since this test process has long
since imported every module.
"""

import ast
import glob
import os
import subprocess
import sys

import pytest

import conelab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(conelab.__file__)))


def _modules_after(statement):
    """Names of every module loaded by running statement in a child."""
    code = "import sys\n%s\nprint(' '.join(sorted(sys.modules)))" % statement
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())


def _loaded_after(statement):
    """Names of the conelab modules loaded by running statement in a child."""
    return {m for m in _modules_after(statement) if m.startswith("conelab")}


def test_import_package_loads_no_module():
    assert _loaded_after("import conelab") == {"conelab"}


def test_import_cli_skips_rank3_sampling_and_poly():
    loaded = _loaded_after("import conelab.cli")
    assert "conelab.cli" in loaded
    assert not loaded & {"conelab.rank3", "conelab.sampling", "conelab.poly"}


@pytest.mark.parametrize(
    "statement", ["import conelab.cli", "import conelab.rank3, conelab.sampling"]
)
def test_records_load_neither_dataclasses_nor_inspect(statement):
    # conelab.cli loads core lazily; import it so its records are built too
    loaded = _modules_after(statement + "\nimport conelab.core")
    assert "conelab.core" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, code", [(["sigma", "--family-dims", "5"], 0), (["verify", "--in", "{malformed}"], 1)]
)
def test_sigma_and_malformed_verify_skip_core_and_doubling(argv, code, tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"partition": [1, ', encoding="utf-8")
    argv = [a.replace("{malformed}", str(malformed)) for a in argv]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from conelab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(%r) == %d" % (argv, code)
    )
    assert "conelab.cli" in loaded
    assert not loaded & {"conelab.core", "conelab.doubling", "conelab.linalg"}


def test_every_public_name_resolves():
    loaded = _loaded_after(
        "import conelab\n"
        "assert conelab.__all__ == "
        "['backend_name', 'build_rank3_cone', 'bundled_family_3_5_7']\n"
        "for name in conelab.__all__:\n"
        "    getattr(conelab, name)\n"
        "from conelab import bundled_family_3_5_7, build_rank3_cone\n"
        "assert build_rank3_cone(bundled_family_3_5_7()).partition.sizes == (7, 3, 1)\n"
        "try:\n"
        "    conelab.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('unknown name resolved')"
    )
    assert {"conelab.backend", "conelab.rank3"} <= loaded


def test_every_benchmark_traced_name_resolves(monkeypatch):
    # the benchmark's tracer wraps these names, so deleting one breaks it;
    # perfbench/ is only read: no bytecode is written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(SRC), "perfbench"))
    import tracer

    try:
        missing = [
            span for owner, attribute, span, _ in tracer.targets()
            if not hasattr(owner, attribute)
        ]
    finally:
        del sys.modules["tracer"]
    assert missing == []


_ENVIRONMENT = {"environ", "getenv"}


def _environment_reads_and_float_calls(tree):
    """What in tree reads os.environ/os.getenv or calls the builtin float."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in _ENVIRONMENT:
                found.append("os.%s" % node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += ["from os import %s" % a.name for a in node.names if a.name in _ENVIRONMENT]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                found.append("float(...)")
    return found


def test_no_module_reads_the_environment_or_calls_float():
    # every setting is a flag or a constant, and every answer is exact
    offenders = {}
    for path in sorted(glob.glob(os.path.join(SRC, "conelab", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found = _environment_reads_and_float_calls(ast.parse(fh.read(), path))
        if found:
            offenders[os.path.basename(path)] = found
    assert offenders == {}
