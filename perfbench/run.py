"""hexmimo benchmark: end-to-end runs of the CLI, checked and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed S --seconds R --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, traced, as a table
    python3 perfbench/run.py ... --smoke         # reduced sizes, a few seconds

Each timed run is one `python3 -m hexmimo.cli` child process started from
the checkout's `src/`; wall time runs from spawn to exit and CPU time and
peak RSS come from the child's rusage.  Children are repeated while the
next one is expected to finish within R seconds (at least one), and the
medians are reported.  `setup_s` is the median time to start an interpreter
that imports `hexmimo.cli` and exits.  With `--trace 1` one more child runs
under perfbench/child.py, which wraps the program's public functions from
outside; its spans give the per-layer metrics, and its wall time minus the
untraced median is `trace.overhead_s`.

Workloads (the benchmark seed is the CLI's --seed):
  paper_cold   the paper run, `--asymptotic --validate`, into an empty
               directory: every layer, moment tables built from scratch.
  sweep_warm   T=2000 and 60 antenna counts, tables already cached: the
               large-grid sweep and CSV writing, moment-table load path.
  oracle_warm  `--validate` on a 3x20 grid, tables already cached: the
               link-level oracle alone.
Warm tables are made in untimed preparation by the program under test,
and each warm run must leave them untouched.

Every child's outputs are checked (perfbench/check.py) against a reference
in perfbench/reference/ made by perfbench/make_reference.py.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import check_run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 165.0           # every child is killed by then, so a run ends in time
PREP_ARGS = ("--n-points", "1", "--k-cap", "1")
FIXTURES = ("single_cell_mrc", "seven_cell_mrc_avg", "seven_cell_mrc_worst",
            "seven_cell_pzfc_worst", "seven_cell_pzfc_avg_large_n",
            "seven_cell_pzfc_avg")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]        # CLI arguments besides --seed/--out/--config
    table_args: tuple[str, ...]  # arguments that enter the moment-cache key
    config: dict | None          # written to config.json and passed as --config
    warm: bool                   # tables prepared before the timed children

    @property
    def coherence_block(self) -> int:
        return (self.config or {}).get("coherence_block", 1000)  # the CLI default T

    @property
    def validated(self) -> bool:
        return "--validate" in self.args

    @property
    def asymptotic(self) -> bool:
        return "--asymptotic" in self.args


def workloads(smoke: bool) -> dict[str, Workload]:
    if smoke:
        table = ("--samples", "20000")
        specs = [
            ("paper_cold", ("--asymptotic", "--validate", "--realizations", "400",
                            "--n-points", "4", "--k-cap", "60"), None, False),
            ("sweep_warm", ("--n-points", "6", "--asymptotic"),
             {"coherence_block": 2000}, True),
            ("oracle_warm", ("--validate", "--realizations", "400",
                             "--n-points", "2", "--k-cap", "10"), None, True),
        ]
    else:
        table = ()
        specs = [
            ("paper_cold", ("--asymptotic", "--validate"), None, False),
            ("sweep_warm", ("--n-points", "60", "--asymptotic"),
             {"coherence_block": 2000}, True),
            ("oracle_warm", ("--validate", "--n-points", "3", "--k-cap", "20"),
             None, True),
        ]
    return {name: Workload(name, args, table, config, warm)
            for name, args, config, warm in specs}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """A fixed environment: with the inherited one, peak RSS moved by 8 %
    between two checkouts of the same commit."""
    return {"PYTHONPATH": "src", "PYTHONHASHSEED": "0",
            **{var: str(nproc()) for var in BLAS_VARS}}


def rel(path: Path) -> str:
    """Children run in ROOT and get relative paths, so their argv is the
    same in every checkout."""
    return os.path.relpath(path, ROOT)


def spawn(argv: list[str], log: Path, timeout: float = 60.0) -> dict:
    """Run one child to completion (killed after `timeout` s): wall, CPU,
    peak RSS, exit code, stdout."""
    with open(log, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "output": log.read_text(encoding="utf-8", errors="replace")}


def cli_argv(wl: Workload, seed: int, out_dir: Path, extra=()) -> list[str]:
    argv = ["--seed", str(seed), "--out", rel(out_dir), *wl.table_args, *extra]
    if wl.config is not None:
        argv[:0] = ["--config", rel(WORK / wl.name / "config.json")]
    return argv


def fingerprint(paths: list[Path]) -> dict[str, list | None]:
    return {p.name: [p.stat().st_mtime_ns, hashlib.sha256(p.read_bytes()).hexdigest()]
            if p.exists() else None for p in paths}


class Runner:
    """Prepared state and collected children for one workload run."""

    def __init__(self, wl: Workload, seed: int, reference: dict):
        self.wl, self.seed, self.reference = wl, seed, reference
        self.dir = WORK / wl.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if wl.config is not None:
            (self.dir / "config.json").write_text(json.dumps(wl.config),
                                                  encoding="utf-8")
        self.tables: list[Path] = []
        self.children: list[dict] = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def prepare(self) -> None:
        """Fill the moment cache with the program under test (untimed)."""
        prep = self.dir / "prep"
        argv = cli_argv(self.wl, self.seed, prep, PREP_ARGS)
        res = spawn([sys.executable, "-m", "hexmimo.cli", *argv],
                    self.dir / "prep.log", self.deadline - time.perf_counter())
        self.tables = sorted(prep.glob("moments_*.json"))
        if res["code"] != 0 or not self.tables:
            raise RuntimeError(f"warm-cache preparation failed:\n{res['output']}")

    def child(self, traced: bool) -> dict:
        i = len(self.children)
        out = self.dir / f"run{i}"
        out.mkdir()
        for table in self.tables:
            shutil.copy2(table, out / table.name)
        before = fingerprint([out / t.name for t in self.tables])
        argv = cli_argv(self.wl, self.seed, out, self.wl.args)
        if traced:
            trace_path = self.dir / f"trace{i}.json"
            cmd = [sys.executable, rel(BENCH / "child.py"), rel(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "hexmimo.cli", *argv]
        res = spawn(cmd, self.dir / f"run{i}.log", self.deadline - time.perf_counter())
        res.update(traced=traced, problems=[], optima_changed=0, csv_bytes=0)
        if res["code"] != 0:
            res["problems"].append(f"exit code {res['code']}")
        else:
            try:
                res["problems"], res["optima_changed"] = check_run(
                    out, self.reference, coherence_block=self.wl.coherence_block,
                    asymptotic=self.wl.asymptotic, validated=self.wl.validated)
            except (OSError, ValueError, KeyError) as exc:
                res["problems"].append(f"unreadable output: {exc!r}")
            res["csv_bytes"] = sum((out / f).stat().st_size
                                   for f in ("sweep.csv", "optima.csv")
                                   if (out / f).exists())
            if self.tables and fingerprint([out / t.name for t in self.tables]) != before:
                res["problems"].append("warm run changed its cached moment tables")
        if traced:
            res["trace"] = (json.loads(trace_path.read_text(encoding="utf-8"))
                            if trace_path.exists() else None)
        shutil.rmtree(out)
        self.children.append(res)
        return res


def measure_setup(repeats: int) -> list[float]:
    """Interpreter start plus `import hexmimo.cli`; the first, untimed spawn
    also checks that the package comes from this checkout's src/."""
    probe = WORK / "setup.log"
    res = spawn([sys.executable, "-c",
                 "import hexmimo.cli; print(hexmimo.cli.__file__)"], probe)
    expected = (ROOT / "src" / "hexmimo" / "cli.py").resolve()
    if res["code"] != 0 or (ROOT / res["output"].strip()).resolve() != expected:
        raise RuntimeError(f"hexmimo.cli does not import from {expected}:\n"
                           f"{res['output']}")
    return [spawn([sys.executable, "-c", "import hexmimo.cli"], probe)["wall_s"]
            for _ in range(repeats)]


def layer_metrics(trace: dict, traced: dict, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced child's spans and counters."""
    spans = [s for s in trace["spans"] if s["end"] is not None]

    def dur(items):
        return sum(s["end"] - s["start"] for s in items)

    def named(name, parent=None):
        return [s for s in spans if s["name"] == name
                and (parent is None or s["parent"] in parent)]

    def counter(name, parent_name=None):
        calls = seconds = units = 0
        for key, c in trace["counters"].items():
            cname, _, pname = key.partition("@")
            if cname == name and parent_name in (None, pname):
                calls += c["calls"]
                seconds += c["seconds"]
                units += c["units"]
        return calls, seconds, units

    run_ids = {i for i, s in enumerate(trace["spans"]) if s["name"] == "cli.run"}
    val_ids = {i for i, s in enumerate(trace["spans"]) if s["name"] == "cli.validate"}
    builds = named("moments.build")
    # a table that was built or saved did not come from the cache
    built_modes = {s["attrs"].get("mode") for s in builds + named("moments.save")}
    loads = named("moments.load")
    sweeps = named("sweep.eval")
    rows = sum(s["attrs"].get("rows", 0) for s in sweeps)
    skipped = sum(s["attrs"].get("skipped", 0) for s in sweeps)
    measures = named("linklevel.measure")
    measure_s = dur(measures)
    realizations = sum(s["attrs"].get("realizations", 0) for s in measures)
    fixtures = [f for s in named("cli.validate") for f in s["attrs"].get("fixtures", [])]
    in_validation = named("linklevel.measure", val_ids)
    fixture_s = dict.fromkeys(FIXTURES, 0.0)
    if len(fixtures) == len(in_validation):
        for f, s in zip(fixtures, in_validation):
            if f["name"] in fixture_s:
                fixture_s[f["name"]] += s["end"] - s["start"]
    gated = [f for f in fixtures if f["gated"]]
    sample_calls, sample_s, points = counter("hexgrid.sample")
    sums_calls, sums_s, _ = counter("spectral.sums")
    point_calls, point_s, _ = counter("spectral.point")
    _, sums_in_sweep, _ = counter("spectral.sums", "sweep.eval")
    _, point_in_sweep, _ = counter("spectral.point", "sweep.eval")
    run_s = dur(named("cli.run"))

    metrics = {
        "moments.build_avg_s": dur(s for s in builds if s["attrs"].get("mode") == "avg"),
        "moments.build_worst_s": dur(s for s in builds if s["attrs"].get("mode") == "worst"),
        "moments.save_s": dur(named("moments.save")),
        "moments.offsets": sum(s["attrs"].get("offsets", 0) for s in sweeps),
        "moments.max_tier": max((s["attrs"].get("max_tier", 0) for s in sweeps), default=0),
        "moments.load_s": dur(loads),
        "moments.cache_hits": sum(1 for s in loads if s["attrs"].get("mode") not in built_modes),
        "moments.cache_misses": len(built_modes),
        "hexgrid.sample_s": sample_s,
        "hexgrid.sample_calls": sample_calls,
        "hexgrid.points_drawn": points,
        "spectral.sums_s": sums_s,
        "spectral.sums_calls": sums_calls,
        "spectral.point_s": point_s,
        "spectral.point_calls": point_calls,
        "sweep.eval_s": dur(sweeps),
        "sweep.self_s": dur(sweeps) - sums_in_sweep - point_in_sweep,
        "sweep.rows": rows,
        "sweep.skipped": skipped,
        "sweep.feasible_ratio": rows / (rows + skipped) if rows + skipped else 0.0,
        "sweep.write_s": dur(named("sweep.write")),
        "sweep.csv_bytes": traced["csv_bytes"],
        "sweep.optima_changed": traced["optima_changed"],
        "linklevel.measure_s": measure_s,
        **{f"linklevel.{name}_s": t for name, t in fixture_s.items()},
        "linklevel.realizations": realizations,
        "linklevel.realizations_per_s": realizations / measure_s if measure_s else 0.0,
        "linklevel.gated_passed": sum(1 for f in gated if f["passed"]),
        "linklevel.max_rel_dev": max((abs(f["measured_over_analytic"] - 1.0)
                                      for f in gated), default=0.0),
        "cli.run_s": run_s,
        "cli.validate_s": dur(named("cli.validate")),
        "cli.self_s": run_s - dur(s for s in spans if s["parent"] in run_ids),
        "cli.import_s": trace["import_s"],
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
    }
    return metrics


def reference_path(wl: Workload, smoke: bool) -> Path:
    return BENCH / "reference" / f"{wl.name}{'_smoke' if smoke else ''}.json"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    reference = json.loads(reference_path(wl, smoke).read_text(encoding="utf-8"))
    runner = Runner(wl, seed, reference)
    setup = measure_setup(2 if smoke else 9)
    if wl.warm:
        runner.prepare()
    walls: list[float] = []
    slots = 2 if trace else 1  # a traced run keeps room for its traced child
    while not walls or sum(walls) + slots * statistics.median(walls) <= seconds:
        walls.append(runner.child(traced=False)["wall_s"])
    untraced = list(runner.children)
    result = {
        "workload": wl.name,
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(c["cpu_s"] for c in untraced),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
            "setup_s": statistics.median(setup),
        },
        "samples": {"wall_s": len(walls), "cpu_s": len(walls),
                    "peak_rss_mb": len(walls), "setup_s": len(setup)},
        "raw": {"wall_s": walls, "setup_s": setup},
    }
    if trace:
        traced = runner.child(traced=True)
        if traced.get("trace") is None:
            traced["problems"].append("traced child wrote no trace")
        else:
            result["per_layer"] = layer_metrics(traced["trace"], traced,
                                                result["end_to_end"]["wall_s"])
            layer = result["per_layer"]
            if wl.warm and (layer["moments.cache_misses"]
                            or layer["moments.cache_hits"] != len(runner.tables)):
                traced["problems"].append(
                    f"warm run: {layer['moments.cache_hits']} cache hits and "
                    f"{layer['moments.cache_misses']} misses for "
                    f"{len(runner.tables)} prepared tables")
            result["trace_absent"] = traced["trace"]["absent"]
            result["trace_errors"] = traced["trace"]["errors"]
    result["attempted"] = len(runner.children)
    result["failed"] = sum(1 for c in runner.children if c["problems"])
    result["problems"] = [p for c in runner.children for p in c["problems"]]
    result["argv"] = {
        "timed": ["-m", "hexmimo.cli", *cli_argv(wl, seed, ROOT / "<out>", wl.args)],
        "prepare": (["-m", "hexmimo.cli", *cli_argv(wl, seed, ROOT / "<out>", PREP_ARGS)]
                    if wl.warm else None)}
    result["config"] = wl.config
    return result


def run_record(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc(), "blas_threads": nproc(), "seed": seed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads(False), "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes for the benchmark's own tests")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not (ROOT / "src" / "hexmimo" / "cli.py").is_file():
        print(f"perfbench: no hexmimo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = workloads(args.smoke)
    names = list(table) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    record = run_record(args.seed)
    print("record " + json.dumps(record))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    trace = args.trace == 1 or args.workload == "all"
    results = {}
    try:
        for name in names:
            results[name] = run_workload(table[name], args.seed, seconds,
                                         trace, args.smoke)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for name, res in results.items():
        print(f"== {name}: {res['attempted']} children, {res['failed']} failed, "
              f"failed_frac {res['failed'] / res['attempted']:.3f}")
        print("   argv " + json.dumps(res["argv"]) + " config " + json.dumps(res["config"]))
        for problem in res["problems"]:
            print(f"   FAILED CHECK: {problem}")
        for metric, value in res["end_to_end"].items():
            print(f"   {metric:34s} {value:14.6g} {units[metric]:6s} "
                  f"(median of {res['samples'][metric]})")
        for metric, value in res.get("per_layer", {}).items():
            print(f"   {metric:34s} {value:14.6g} {units[metric]}")
        if res.get("trace_absent") or res.get("trace_errors"):
            print(f"   trace absent hooks {res['trace_absent']}, errors {res['trace_errors']}")
    (WORK / "results.json").write_text(
        json.dumps({"record": record, "results": results}, indent=1), encoding="utf-8")

    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    res = results[names[0]] if len(names) == 1 else None
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    if res is not None:
        values = {**res["end_to_end"], **res.get("per_layer", {})}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in values}
    print(json.dumps({"correct": failed == 0 and (res is None or len(metrics) == len(wanted)),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
