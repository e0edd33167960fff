"""The benchmark's hold on the program, checked without running it.

perfbench/child.py wraps public names of the program from outside and
perfbench/run.py drives the CLI with fixed argument lists.  Both are read
here, never changed: a rename or a removed flag then fails this suite, not
only `python3 -m pytest perfbench`.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

import hexmimo.cli
import hexmimo.linklevel
import hexmimo.moments
from hexmimo.cli import _build_parser, _validation_fixtures
from hexmimo.config import InterferenceMode, NetworkConfig
from hexmimo.spectral import Scheme
from hexmimo.sweep import sweep, write_sweep_csv

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling check.py
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


child = _load("child")
run = _load("run")


@pytest.mark.parametrize("module_name,path",
                         [(m, p) for m, p, _, _ in child.SPANS + child.COUNTERS],
                         ids=lambda v: v)
def test_hooked_name_is_defined_by_its_owner(module_name, path):
    # the rule Tracer.install applies: the owner's own __dict__ holds a callable
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert owner.__dict__.get(attr) is not None, f"{module_name}.{path}"
    assert callable(getattr(owner, attr)), f"{module_name}.{path}"


@pytest.mark.parametrize("smoke", [False, True])
def test_benchmark_argv_parses(smoke):
    parser = _build_parser()
    for wl in run.workloads(smoke).values():
        out = run.ROOT / "out"
        for extra in (wl.args, run.PREP_ARGS):
            argv = run.cli_argv(wl, 1, out, extra)
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{wl.name}: the CLI rejects {argv}")


def test_bench_fixtures_are_the_validation_fixtures():
    # the traced run reports linklevel.<name>_s for each name in FIXTURES; a
    # renamed or reordered fixture must fail here, not read 0 there
    template = NetworkConfig(n_antennas=100, n_users=10, coherence_block=200,
                             reuse_factor=1, snr_linear=10.0)
    assert run.FIXTURES == tuple(f[0] for f in _validation_fixtures(template))


def test_sweep_attrs_read_a_real_sweep(tmp_path, avg_table, worst_table):
    # the traced run reports sweep.rows, sweep.skipped and
    # sweep.feasible_ratio from these attributes of the sweep's result
    tables = {InterferenceMode.AVERAGE: avg_table,
              InterferenceMode.WORST_CASE: worst_table}
    args = (NetworkConfig(n_antennas=100, n_users=10, coherence_block=200,
                          reuse_factor=1, snr_linear=10.0),
            [8, 64], range(1, 41), [1, 3], [Scheme.MRC, Scheme.PZFC],
            list(tables), tables)
    result = sweep(*args)
    attrs = child._sweep_attrs(args, {}, result)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    assert attrs["rows"] == len(path.read_text().splitlines()) - 1
    assert attrs["skipped"] == sum(result.n_skipped.values()) > 0


def test_average_build_draws_no_samples(monkeypatch):
    # the traced run's hexgrid.sample_* counters on hexmimo.moments must read
    # 0: the average table is integrated, not sampled
    calls = []
    sampler = hexmimo.moments.sample_ue_positions

    def counting(*args, **kwargs):
        calls.append(child._arg(args, kwargs, 4, "n"))
        return sampler(*args, **kwargs)

    monkeypatch.setattr(hexmimo.moments, "sample_ue_positions", counting)
    hexmimo.moments.build_table(3.5, InterferenceMode.AVERAGE)
    hexmimo.moments.build_table(3.5, InterferenceMode.WORST_CASE)
    assert calls == []


def test_hook_attrs_read_real_calls(tmp_path, monkeypatch):
    # the traced run reads moments.build's mode, linklevel.measure's
    # realizations and hexgrid.sample's point count from argument positions:
    # a reordered parameter must fail here, not mislabel a traced metric
    calls = {}
    for module, name in ((hexmimo.cli, "build_table"), (hexmimo.cli, "measure_sinr"),
                         (hexmimo.linklevel, "sample_ue_positions")):
        def recording(*args, _fn=getattr(module, name),
                      _calls=calls.setdefault(name, []), **kwargs):
            result = _fn(*args, **kwargs)
            _calls.append((args, kwargs, result))
            return result
        monkeypatch.setattr(module, name, recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # oracle in process
    hexmimo.cli.main(["--out", str(tmp_path / "out"), "--n-points", "1", "--k-cap", "1",
                      "--validate", "--realizations", "400"])
    hooks = {(m, p): f for m, p, _, f in child.SPANS + child.COUNTERS}

    build = hooks["hexmimo.cli", "build_table"]
    assert [build(*call)["mode"] for call in calls["build_table"]] == ["avg", "worst"]
    measure = hooks["hexmimo.cli", "measure_sinr"]
    assert [measure(*call) for call in calls["measure_sinr"]] == \
        [{"realizations": 400}] * len(run.FIXTURES)
    assert calls["sample_ue_positions"]
    for owner in ("hexmimo.moments", "hexmimo.linklevel"):
        units = hooks[owner, "sample_ue_positions"]
        for args, kwargs, points in calls["sample_ue_positions"]:
            assert units(args, kwargs) == len(points)
