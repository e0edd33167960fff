"""The library's shape: every function is on the production path, every
field of the config, the schedule, the manifest and the result records is
read, no import is left unused, and the documented API runs as written.

Cross-check oracles that only tests call live in `tests/reference.py`, so a
function in `src/hexmimo` that no run reaches is either public API or dead.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexmimo
from hexmimo.cli import RunManifest
from hexmimo.config import NetworkConfig, Schedule
from hexmimo.linklevel import MeasuredSinr
from hexmimo.moments import MomentEntry, MomentTable
from hexmimo.spectral import CopilotSums, SeResult
from hexmimo.sweep import SweepResult

PACKAGE = Path(hexmimo.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

# (module, function) -> why no CLI run reaches it
UNREACHED = {
    ("config", "load_config"): "library API: load and validate a config file",
    ("spectral", "se_per_cell"): "library API: SE of one validated operating point",
    ("spectral", "asymptotic_se"): "library API: large-N SE of K users at reuse beta",
    ("sweep", "optimal_schedule"): "library API: look up an optimum of a sweep",
    ("moments", "max_tier"): "perfbench/child.py reads MomentTable.max_tier; no "
                             "table file records it",
    ("__init__", "__getattr__"): "library API: `hexmimo.<name>` loads its module on "
                                 "first use; the CLI imports its modules directly",
}

# the functions whose reads of a field do not count as uses: the checks of
# field values (the manifest's serializer reads every field too, but through
# `dataclasses.asdict`, whose reads are not the library's)
NOT_USES = {("config", "__post_init__"), ("config", "check"), ("cli", "__post_init__")}

# the records whose fields a run must read
RECORDS = (NetworkConfig, Schedule, RunManifest, MeasuredSinr, SeResult, SweepResult,
           CopilotSums, MomentTable, MomentEntry)

# "Class.field" -> why no run reads it
UNREAD_FIELDS = {
    "SeResult.prelog": "README's library snippet prints it",
    "SeResult.sinr": "a public result record's SINR; README's library snippet prints it",
    "SweepResult.n_skipped": "perfbench/child.py reads it",
}

# (module, name) -> why the import stays bound although the module never uses it
UNUSED_IMPORTS = {
    ("moments", "sample_ue_positions"): "perfbench/child.py hooks a counter on it",
}

# Three runs: a cold paper run, a warm rerun that loads both cached tables,
# and a rerun from the manifest.  The profiler is set before `hexmimo.cli` is
# imported, because `_floatrepr` builds its layout table at import.  Each
# record class gets a `__getattribute__` that logs "Class.field" when a
# library frame reads a field, unless the frame is, or is nested in, a
# NOT_USES function.
_PROFILED_RUNS = r'''
import dataclasses, importlib, json, os, sys

out, report = sys.argv[1], sys.argv[2]
records, not_uses = json.loads(sys.argv[3]), {tuple(pair) for pair in json.loads(sys.argv[4])}
reached, read = set(), set()


def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


def log_reads(cls, package):
    fields = {f.name for f in dataclasses.fields(cls)}
    get = cls.__getattribute__

    def __getattribute__(self, name):
        if name in fields:
            code = sys._getframe(1).f_code
            module = os.path.splitext(os.path.basename(code.co_filename))[0]
            scopes = getattr(code, "co_qualname", code.co_name).split(".")
            if (os.path.dirname(code.co_filename) == package
                    and not any((module, scope) in not_uses for scope in scopes)):
                read.add(f"{cls.__name__}.{name}")
        return get(self, name)

    cls.__getattribute__ = __getattribute__


sys.setprofile(profile)
from hexmimo.cli import main

for record in records:
    module, name = record.rsplit(".", 1)
    log_reads(getattr(importlib.import_module(module), name),
              os.path.dirname(sys.modules["hexmimo"].__file__))
small = ["--n-points", "3", "--k-cap", "20", "--realizations", "400"]
codes = [main(["--out", out, "--asymptotic", "--validate", *small]) for _ in range(2)]
codes.append(main(["--from-manifest", os.path.join(out, "manifest.json"),
                   "--out", out + "_manifest"]))
sys.setprofile(None)
with open(report, "w", encoding="utf-8") as fh:
    json.dump({"codes": codes, "reached": sorted(reached), "read": sorted(read)}, fh)
'''


def _modules():
    """(module name, path, syntax tree) of every module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, path, ast.parse(path.read_text(encoding="utf-8"))


def _functions():
    """(module, name, first line) of every function definition, nested ones
    included; the first line is a decorator's where there is one, as in the
    function's code object."""
    for module, path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield module, node.name, (os.path.realpath(path), first)


@pytest.fixture(scope="module")
def profiled_runs(tmp_path_factory):
    """(functions reached, "Class.field" reads) of the `_PROFILED_RUNS` child."""
    tmp_path = tmp_path_factory.mktemp("profiled")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    report = tmp_path / "reached.json"
    records = [f"{cls.__module__}.{cls.__qualname__}" for cls in RECORDS]
    subprocess.run([sys.executable, "-c", _PROFILED_RUNS, str(tmp_path / "out"),
                    str(report), json.dumps(records), json.dumps(sorted(NOT_USES))],
                   env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["codes"] == [0, 0, 0]
    return ({(os.path.realpath(name), line) for name, line in data["reached"]},
            set(data["read"]))


def test_every_library_function_is_on_the_production_path(profiled_runs):
    reached, _ = profiled_runs
    unreached = {(module, name) for module, name, key in _functions()
                 if key not in reached}
    assert unreached == set(UNREACHED), (
        "functions no run reaches belong in tests/reference.py or in UNREACHED "
        f"with a reason; unlisted: {sorted(unreached - set(UNREACHED))}, "
        f"listed but reached or gone: {sorted(set(UNREACHED) - unreached)}")
    # an unreached public function is in `hexmimo.__all__`, an unreached
    # public method a member of a class there
    api = {name for module, name in UNREACHED if not name.startswith("_")}
    values = [getattr(hexmimo, name) for name in hexmimo.__all__]
    public = set(hexmimo.__all__).union(*(vars(v) for v in values if isinstance(v, type)))
    assert api <= public


def test_every_config_and_schedule_field_is_read(profiled_runs):
    # a field no run reads is a value a run records, or a result holds, but
    # never uses; reads are counted per record, so a field is not read
    # because another record's field of that name is
    network = {f.name for f in dataclasses.fields(NetworkConfig)}
    schedule = {f.name for f in dataclasses.fields(Schedule)}
    assert not network & schedule, "a value has two homes"
    _, read = profiled_runs
    fields = {f"{record.__name__}.{f.name}" for record in RECORDS
              for f in dataclasses.fields(record)}
    assert fields - read == set(UNREAD_FIELDS)


def _unused_imports(tree) -> set:
    """Names a module imports but never reads; `__all__` counts as a read."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return bound - used


def test_no_library_module_imports_a_name_it_does_not_use():
    unused = {(module, name) for module, _, tree in _modules()
              for name in _unused_imports(tree)}
    assert unused == set(UNUSED_IMPORTS)


def test_unused_import_check_sees_stale_and_used_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\nimport os.path\n"
                     "from .config import Schedule, inner_product\n"
                     "from .spectral import sinr\n"
                     "__all__ = ['sinr']\n"
                     "def f(schedule: Schedule):\n    return os.path.join\n")
    assert _unused_imports(tree) == {"np", "inner_product"}


# the numpy names that reach BLAS or LAPACK, whose kernel, and so whose
# rounding, OpenBLAS picks by the host's CPU
_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def _blas_uses(tree) -> list[int]:
    """Lines of `tree` that reach BLAS: a `@`, an attribute or an imported
    name in `_BLAS_NAMES`, or an `einsum` told to optimize (an optimized
    contraction may run through `tensordot`)."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Attribute):
            hit = node.attr in _BLAS_NAMES
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            hit = any(_BLAS_NAMES.intersection(name.split(".")) for name in names)
        elif isinstance(node, ast.Call):
            func = node.func
            hit = (getattr(func, "attr", getattr(func, "id", None)) == "einsum"
                   and any(kw.arg == "optimize" for kw in node.keywords))
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def test_no_library_arithmetic_goes_through_blas():
    # the outputs are pinned to the bit, so no sum may take the rounding of
    # whichever BLAS kernel the host selects
    uses = [f"{path.name}:{line}" for _, path, tree in _modules()
            for line in _blas_uses(tree)]
    assert not uses, f"BLAS in deterministic arithmetic: {uses}"


def test_blas_check_sees_every_route():
    tree = ast.parse("import numpy as np\nimport numpy.linalg\n"
                     "from numpy import dot, vdot\nfrom numpy.linalg import norm\n"
                     "a = b @ c\na @= b\nnp.inner(a, b)\na.matmul(b)\n"
                     "np.tensordot(a, b)\nnp.einsum('i,i', a, b, optimize=True)\n"
                     "np.einsum('i,i', a, b)\ndot = a * b\n")
    assert _blas_uses(tree) == [2, 3, 4, 5, 6, 7, 8, 9, 10]


# the submodules a bare `import hexmimo` bound as attributes when the
# package imported them eagerly; library code written then still reaches them
_SUBMODULES = ("_floatrepr", "config", "errors", "hexgrid", "linklevel", "moments",
               "spectral", "sweep")

_IMPORT_ONLY = r'''
import json, os, sys, types

before = dict(os.environ)
import hexmimo

state = {"numpy": "numpy" in sys.modules, "env_changed": dict(os.environ) != before}
state["submodules"] = sorted(name for name in sys.argv[1:]
                             if isinstance(getattr(hexmimo, name), types.ModuleType)
                             and getattr(hexmimo, name).__name__ == "hexmimo." + name)
state["public"] = sorted(name for name in hexmimo.__all__
                         if getattr(hexmimo, name).__module__.startswith("hexmimo."))
state["unknown"] = hasattr(hexmimo, "no_such_name")
print(json.dumps(state))
'''


def test_import_hexmimo_loads_no_numpy_and_sets_nothing():
    # the CLI sets the environment numpy's BLAS reads before numpy loads;
    # the package must not load numpy first, nor set anything itself
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ONLY, *_SUBMODULES],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)
    assert not state["numpy"] and not state["env_changed"]
    assert state["submodules"] == sorted(_SUBMODULES)
    assert state["public"] == sorted(hexmimo.__all__)
    assert not state["unknown"]


def test_readme_library_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("SeResult(sinr=") and "prelog=0.85" in printed
