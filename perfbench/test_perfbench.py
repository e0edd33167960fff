"""Tests of the benchmark itself, at smoke sizes: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
from check import check_run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def smoke_results():
    return {name: run.run_workload(wl, seed=1, seconds=1, trace=True, smoke=True)
            for name, wl in run.workloads(smoke=True).items()}


def test_smoke_workloads_pass_their_checks(smoke_results):
    assert set(smoke_results) == {w["name"] for w in SPEC["workloads"]}
    for res in smoke_results.values():
        assert res["failed"] == 0, res["problems"]
        assert res["attempted"] >= 2
        assert set(res["end_to_end"]) == END_TO_END
        assert set(res["per_layer"]) == PER_LAYER
        assert all(v > 0 for v in res["end_to_end"].values())
        assert res["trace_absent"] == [] and res["trace_errors"] == []


def test_cache_hits_and_misses_per_workload(smoke_results):
    layers = {name: res["per_layer"] for name, res in smoke_results.items()}
    assert layers["paper_cold"]["moments.cache_misses"] == 2
    assert layers["paper_cold"]["moments.cache_hits"] == 0
    for warm in ("sweep_warm", "oracle_warm"):
        assert layers[warm]["moments.cache_misses"] == 0
        assert layers[warm]["moments.cache_hits"] == 2
        assert layers[warm]["moments.build_avg_s"] == 0


def test_paper_cold_spans_cover_the_run(smoke_results):
    layer = smoke_results["paper_cold"]["per_layer"]
    assert layer["linklevel.gated_passed"] == 5
    assert all(layer[f"linklevel.{f}_s"] > 0 for f in run.FIXTURES)
    reference = run.reference_path(run.workloads(smoke=True)["paper_cold"], smoke=True)
    assert layer["sweep.rows"] == json.loads(reference.read_text())["rows"]
    assert 0 <= layer["cli.self_s"] < layer["cli.run_s"]


def test_driver_command_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_warm",
         "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == END_TO_END


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tracer_reports_missing_hooks_as_absent():
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        tracer = child.Tracer()
        tracer.install("hexmimo.cli", "no_such_function", lambda fn: fn)
        tracer.install("hexmimo.no_such_module", "run", lambda fn: fn)
        tracer.install("hexmimo.moments", "NoSuchClass.load", lambda fn: fn)
    finally:
        sys.path.remove(str(run.ROOT / "src"))
    assert tracer.absent == ["hexmimo.cli.no_such_function",
                             "hexmimo.no_such_module.run",
                             "hexmimo.moments.NoSuchClass.load"]


def test_a_saved_table_is_a_miss_even_without_the_build_hook():
    def span(name, mode):
        return {"name": name, "start": 0.0, "end": 1.0, "parent": 0,
                "attrs": {"mode": mode}}
    trace = {"import_s": 0.1, "counters": {},
             "spans": [{"name": "cli.run", "start": 0.0, "end": 2.0,
                        "parent": None, "attrs": {}},
                       span("moments.load", "avg"), span("moments.save", "avg"),
                       span("moments.load", "worst")]}
    layer = run.layer_metrics(trace, {"csv_bytes": 1, "optima_changed": 0,
                                      "wall_s": 2.5}, untraced_wall=2.0)
    assert layer["moments.cache_hits"] == 1
    assert layer["moments.cache_misses"] == 1


def _write_outputs(out: Path, sweep_rows: list[str], optima_rows: list[str]) -> None:
    out.mkdir()
    (out / "sweep.csv").write_text(
        "N,K,beta,scheme,mode,sinr,se\n" + "".join(r + "\n" for r in sweep_rows))
    (out / "optima.csv").write_text(
        "N,scheme,mode,K_star,beta_star,sinr,se\n" + "".join(r + "\n" for r in optima_rows))


def test_checker_applies_the_tie_break_and_the_reference(tmp_path):
    sweep_rows = ["10,1,1,mrc,avg,0.5,2.0", "10,2,1,mrc,avg,0.5,3.0",
                  "10,3,1,mrc,avg,0.5,3.0", "10,2,3,mrc,avg,0.5,3.0"]
    reference = {"rows": 4, "optima": {"10,mrc,avg": [2, 1, 3.0]}}
    kwargs = dict(coherence_block=1000, asymptotic=False, validated=False)

    _write_outputs(tmp_path / "good", sweep_rows, ["10,mrc,avg,2,1,0.5,3.0"])
    assert check_run(tmp_path / "good", reference, **kwargs) == ([], 0)

    # a tie resolved toward more users is not the argmax
    _write_outputs(tmp_path / "tie", sweep_rows, ["10,mrc,avg,3,1,0.5,3.0"])
    problems, changed = check_run(tmp_path / "tie", reference, **kwargs)
    assert problems and changed == 1

    # SE* more than 1 % from the reference fails; a moved optimum only counts
    moved = {"rows": 4, "optima": {"10,mrc,avg": [1, 1, 3.1]}}
    problems, changed = check_run(tmp_path / "good", moved, **kwargs)
    assert len(problems) == 1 and "1 %" in problems[0] and changed == 1
