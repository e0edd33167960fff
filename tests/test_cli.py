import copy
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hexmimo.cli as cli_module
import hexmimo.sweep as sweep_module
from hexmimo.cli import RunManifest, main
from hexmimo.config import InterferenceMode, NetworkConfig
from hexmimo.errors import DomainError
from hexmimo.moments import MomentTable

from reference import RankDeficient

FAST_FLAGS = ["--n-min", "16", "--n-max", "64", "--n-points", "3",
              "--k-cap", "12", "--betas", "1,3"]


def run_cli(args):
    return main([str(a) for a in args])


def small_config(tmp_path, t_block=200, **extra):
    cfg = {"coherence_block": t_block, "snr_db": 10.0, "pathloss_exponent": 3.5}
    cfg.update(extra)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("kappa", [3.5, 4.0])
def test_sweep_run_writes_all_outputs(tmp_path, kappa):
    cfg = small_config(tmp_path, pathloss_exponent=kappa)
    out = tmp_path / "out"
    code = run_cli(["--config", cfg, "--out", out, "--seed", "5",
                    "--modes", "avg,worst", "--schemes", "mrc,pzfc",
                    "--asymptotic", *FAST_FLAGS])
    assert code == 0
    for name in ("sweep.csv", "optima.csv", "moments_avg.json",
                 "moments_worst.json", "manifest.json", "asymptotic.csv"):
        assert (out / name).exists(), name

    header, *rows = (out / "sweep.csv").read_text().splitlines()
    assert header == "N,K,beta,scheme,mode,sinr,se"
    assert len(rows) > 100

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["modes"] == ["avg", "worst"]


def test_rerun_same_seed_is_byte_identical(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    args = ["--config", cfg, "--out", out, "--seed", "7",
            "--modes", "avg", "--schemes", "mrc", *FAST_FLAGS]
    assert run_cli(args) == 0
    first = {n: (out / n).read_bytes() for n in ("sweep.csv", "optima.csv")}
    assert run_cli(args) == 0  # second run reloads the cached moment table
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_outputs_regenerate_from_manifest_alone(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out_a = tmp_path / "a"
    assert run_cli(["--config", cfg, "--out", out_a, "--seed", "9",
                    "--modes", "avg", "--schemes", "mrc,pzfc", *FAST_FLAGS]) == 0
    out_b = tmp_path / "b"
    assert run_cli(["--from-manifest", out_a / "manifest.json",
                    "--out", out_b]) == 0
    for name in ("sweep.csv", "optima.csv", "moments_avg.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # any other run flag, even at its default value, would be ignored: it is
    # refused, by name, before any work
    capsys.readouterr()
    out_c = tmp_path / "c"
    assert run_cli(["--from-manifest", out_a / "manifest.json", "--out", out_c,
                    "--seed", "0", "--validate", "--schemes", "mrc",
                    "--n-points", "9"]) == 2
    err = capsys.readouterr().err
    for flag in ("--seed", "--validate", "--schemes", "--n-points"):
        assert flag in err, flag
    assert not out_c.exists()


def test_asymptotic_csv_values(tmp_path):
    cfg = small_config(tmp_path, t_block=1000)
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out", out, "--seed", "1",
                    "--modes", "avg", "--schemes", "mrc", "--asymptotic",
                    *FAST_FLAGS, "--betas", "1,3"]) == 0
    lines = (out / "asymptotic.csv").read_text().splitlines()
    assert lines[0] == "mode,beta,K_star,prelog,se_limit"
    rows = {int(l.split(",")[1]): l.split(",") for l in lines[1:]}
    assert float(rows[1][3]) == 250.0       # T / (4 beta) at T=1000, beta=1
    assert int(rows[1][2]) == 500
    assert math.isclose(float(rows[3][3]), 1000 / 12, rel_tol=1e-15)
    assert int(rows[3][2]) == 167


def test_doubling_t_doubles_asymptotic_se(tmp_path):
    vals = {}
    for t_block in (200, 400):
        cfg = small_config(tmp_path, t_block=t_block)
        out = tmp_path / f"out{t_block}"
        assert run_cli(["--config", cfg, "--out", out, "--seed", "3",
                        "--modes", "avg", "--schemes", "mrc", "--asymptotic",
                        *FAST_FLAGS]) == 0
        lines = (out / "asymptotic.csv").read_text().splitlines()[1:]
        vals[t_block] = {int(l.split(",")[1]): float(l.split(",")[4])
                         for l in lines}
    for beta, se in vals[200].items():
        assert vals[400][beta] == 2.0 * se  # exact doubling, same moments


def test_validate_writes_report(tmp_path):
    cfg = small_config(tmp_path, t_block=1000)
    out = tmp_path / "out"
    code = run_cli(["--config", cfg, "--out", out, "--seed", "11",
                    "--modes", "avg,worst", "--schemes", "mrc",
                    "--validate", "--realizations", "4000", *FAST_FLAGS])
    assert code == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is True
    names = {f["name"] for f in report["fixtures"]}
    assert "single_cell_mrc" in names and "seven_cell_mrc_avg" in names
    assert "seven_cell_pzfc_worst" in names
    for fixture in report["fixtures"]:
        assert set(fixture["terms"]) == {"signal", "estimation_gap",
                                         "intra_cell", "inter_cell", "noise",
                                         "denominator"}
        if fixture["gated"]:
            assert fixture["passed"] is True
        else:
            # informational fixture: residual reported, not suppressed
            assert "measured_over_analytic" in fixture


def test_exact_fixtures_are_gated_as_identities(fullres_tables, monkeypatch):
    # the fixtures that draw no position have std_error 0 and must equal the
    # closed form to 1e-12; a closed form off by 1e-9 fails exactly them,
    # while the 5 % / 3 SE rule of the others still lets it through
    config = NetworkConfig(coherence_block=200, snr_linear=10.0)
    closed_form = cli_module.sinr

    def validate_scaled(scale):
        monkeypatch.setattr(cli_module, "sinr",
                            lambda inputs: scale * closed_form(inputs))
        return cli_module.run_validation(config, fullres_tables, 7, 2000)

    exact = {"single_cell_mrc", "seven_cell_mrc_worst", "seven_cell_pzfc_worst"}
    report = validate_scaled(1.0)
    assert report["passed"] is True
    assert {f["name"]: f["gate"] for f in report["fixtures"]} == {
        f["name"]: "identity" if f["name"] in exact else "statistical"
        for f in report["fixtures"]}
    assert all(f["std_error"] == 0.0 for f in report["fixtures"]
               if f["name"] in exact)
    report = validate_scaled(1.0 + 1e-9)
    assert report["passed"] is False
    assert {f["name"] for f in report["fixtures"] if not f["passed"]} == exact


def test_default_grid_optima_schedule_hundreds_of_users(tmp_path):
    # default grids (N up to 1e4, K up to T/2): at the largest array the
    # average-mode optimum schedules close to T/2 users
    out = tmp_path / "out"
    code = run_cli(["--out", out, "--seed", "0", "--modes", "avg",
                    "--schemes", "mrc,pzfc"])
    assert code == 0
    rows = [line.split(",")
            for line in (out / "optima.csv").read_text().splitlines()[1:]]
    at_top = {r[1]: int(r[3]) for r in rows if r[0] == "10000" and r[2] == "avg"}
    assert at_top["mrc"] > 400 and at_top["pzfc"] > 400


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"coherence_block": -5}))
    assert run_cli(["--config", bad, "--out", tmp_path / "o"]) == 2
    assert run_cli(["--config", tmp_path / "missing.json",
                    "--out", tmp_path / "o"]) == 2
    cfg = small_config(tmp_path)
    assert run_cli(["--config", cfg, "--out", tmp_path / "o",
                    "--modes", "bogus"]) == 2
    # values no run can use: non-finite reals, non-integer or bool counts
    for override in ({"snr_linear": math.nan}, {"min_ue_distance_frac": math.nan},
                     {"pathloss_exponent": math.nan}, {"pathloss_exponent": math.inf},
                     {"coherence_block": 1000.5}, {"coherence_block": True},
                     {"snr_db": "10"}, {"snr_db": None}, {"snr_db": 4000},
                     {"snr_linear": "10"}, {"snr_linear": 10 ** 400}):
        bad.write_text(json.dumps(override))
        assert run_cli(["--config", bad, "--out", tmp_path / "o"]) == 2, override
    # N, K and beta come from the command line, never from a config; the
    # cell radius and pathloss reference cancel, so no config holds them
    for override in ({"n_antennas": 5}, {"n_users": 300, "reuse_factor": 4},
                     {"cell_radius": 250.0}, {"pathloss_ref": 1.0}):
        bad.write_text(json.dumps(override))
        capsys.readouterr()
        assert run_cli(["--config", bad, "--out", tmp_path / "o"]) == 2, override
        assert "unknown keys" in capsys.readouterr().err, override
    # a config file that is valid JSON but not an object
    for not_object in ([1], "snr_db", 3.5):
        bad.write_text(json.dumps(not_object))
        assert run_cli(["--config", bad, "--out", tmp_path / "o"]) == 2, not_object
    # a manifest carrying the retired moment_rel_tol / moment_max_tiers keys
    manifest = {"out_dir": str(tmp_path / "o"), "seed": 0, "modes": ["avg"],
                "schemes": ["mrc"], "config": json.loads(cfg.read_text()),
                "moment_rel_tol": 1e-3, "moment_max_tiers": 12}
    bad.write_text(json.dumps(manifest))
    assert run_cli(["--from-manifest", bad]) == 2
    del manifest["moment_rel_tol"], manifest["moment_max_tiers"]
    # ... or a config naming K, as manifests once did
    bad.write_text(json.dumps({**manifest, "config": {**manifest["config"], "n_users": 1}}))
    capsys.readouterr()
    assert run_cli(["--from-manifest", bad]) == 2
    assert "unknown keys ['n_users']" in capsys.readouterr().err
    # ... or the retired Monte Carlo sample count
    bad.write_text(json.dumps({**manifest, "moment_samples": 10 ** 6}))
    assert run_cli(["--from-manifest", bad]) == 2
    # ... or the retired config path and moment-table paths
    for retired in ({"config_path": "net.json"}, {"moment_paths": {}}):
        bad.write_text(json.dumps({**manifest, **retired}))
        capsys.readouterr()
        assert run_cli(["--from-manifest", bad]) == 2, retired
        assert "unknown keys" in capsys.readouterr().err, retired
    # manifests missing a required field, or carrying a config no run can use
    # ... or carrying a run value of the wrong JSON type
    for broken in ({}, {k: v for k, v in manifest.items() if k != "config"},
                   {**manifest, "config": {**manifest["config"],
                                           "min_ue_distance_frac": -5}},
                   {**manifest, "k_cap": "3"}, {**manifest, "config": [1]},
                   {**manifest, "n_grid": [16, "64"]}, {**manifest, "seed": 1.5},
                   {**manifest, "n_grid": [16, 16]}, {**manifest, "out_dir": 5},
                   {**manifest, "run_validation": "x"},
                   # the N column of sweep.csv is int64
                   {**manifest, "n_grid": [2 ** 63]}):
        bad.write_text(json.dumps(broken))
        assert run_cli(["--from-manifest", bad]) == 2, broken
    # JSON nested deeper than the parser's recursion limit
    bad.write_text("[" * 100_000)
    for flag in ("--config", "--from-manifest"):
        capsys.readouterr()
        assert run_cli([flag, bad, "--out", tmp_path / "o"]) == 2, flag
        assert "config error" in capsys.readouterr().err, flag
    assert not (tmp_path / "o").exists()


def test_invalid_manifest_cannot_be_built(tmp_path):
    # the manifest checks itself, so no run, in process or from a file,
    # starts on one no run can use
    valid = RunManifest(out_dir=str(tmp_path / "o"), seed=0, modes=["avg"],
                        schemes=["mrc"], config={"coherence_block": 200, "snr_db": 10.0})
    for change in ({"seed": -1}, {"beta_set": [2]}, {"modes": ["avg", "avg"]},
                   {"k_cap": "3"}):
        with pytest.raises(DomainError):
            RunManifest(**{**asdict(valid), **change})
    with pytest.raises(DomainError):
        replace(valid, seed=-1)
    with pytest.raises(FrozenInstanceError):
        valid.seed = -1


def test_stale_manifest_error_names_every_stale_key(tmp_path, capsys):
    # a manifest with retired keys at the top and in its config is refused
    # once, by one error naming all four
    manifest = {"out_dir": str(tmp_path / "o"), "seed": 0, "modes": ["avg"],
                "schemes": ["mrc"], "config_path": "net.json", "moment_paths": {},
                "config": {"coherence_block": 200, "snr_db": 10.0,
                           "cell_radius": 250.0, "pathloss_ref": 1.0}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli(["--from-manifest", path]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 1
    for key in ("config_path", "moment_paths", "cell_radius", "pathloss_ref"):
        assert key in err, key
    assert not (tmp_path / "o").exists()


def test_failed_run_removes_partial_outputs(tmp_path, monkeypatch):
    import hexmimo.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(cli_mod, "sweep", boom)
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out", out, "--modes", "avg",
                    "--schemes", "mrc", *FAST_FLAGS]) == 1
    assert not (out / "sweep.csv").exists()
    assert not (out / "manifest.json").exists()


def test_failed_write_leaves_no_partial_or_temporary_file(tmp_path, monkeypatch):
    import hexmimo.cli as cli_mod

    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    args = ["--config", cfg, "--out", out, "--modes", "avg", "--schemes", "mrc",
            "--asymptotic", *FAST_FLAGS]
    assert run_cli(args) == 0
    outputs = {p.name for p in out.iterdir()}
    previous = (out / "optima.csv").read_bytes()

    def write_half_then_fail(result, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("N,scheme,mode,K_star,beta_star,sinr,se\n16,mrc,")
        raise OSError("disk full")

    monkeypatch.setattr(cli_mod, "write_optima_csv", write_half_then_fail)
    (out / "moments_avg.json").unlink()  # so that the rerun writes the table
    assert run_cli([*args, "--seed", "1"]) == 1
    left = {p.name for p in out.iterdir()}
    assert left <= outputs  # no temporary file stays behind
    # the rerun removed what it wrote; the file it failed on keeps its old bytes
    assert "sweep.csv" not in left and "moments_avg.json" not in left
    assert (out / "optima.csv").read_bytes() == previous


def test_console_entry_point(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "hexmimo.cli", "--config", str(cfg),
         "--out", str(out), "--modes", "avg", "--schemes", "mrc",
         *[str(f) for f in FAST_FLAGS]],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "sweep.csv").exists()


@pytest.mark.parametrize("flags,config", [(["--realizations", "1"], {}),
                                          (["--realizations", "0"], {}),
                                          (["--betas", "1,2"], {}),
                                          (["--k-cap", "0"], {}),
                                          (["--betas", ","], {}),
                                          (["--modes", ","], {}),
                                          (["--schemes", ","], {}),
                                          (["--n-points", "0"], {}),
                                          (["--n-min", "0"], {}),
                                          (["--n-max", "10000000000000000000"], {}),
                                          (["--n-max", "100000000000000000000"], {}),
                                          (["--seed", "-1"], {}),
                                          (["--modes", "avg,avg"], {}),
                                          (["--schemes", "mrc,mrc"], {}),
                                          (["--betas", "1,1"], {}),
                                          # zero-forcing needs N > beta * K >= 1
                                          (["--n-min", "1", "--n-max", "1",
                                            "--n-points", "1", "--schemes", "pzfc"], {}),
                                          # no beta * K <= T with beta = 7 > T
                                          (["--betas", "7"], {"t_block": 5}),
                                          # K* = T / (2 beta) needs T >= 2 beta = 6
                                          (["--asymptotic"], {"t_block": 5}),
                                          # the validation fixtures' B = 2 pilots
                                          # exceed T = 1
                                          (["--n-points", "2"], {"t_block": 1})],
                         ids=["realizations1", "realizations0",
                              "beta2", "kcap0", "betas-empty", "modes-empty",
                              "schemes-empty", "npoints0", "nmin0", "nmax-int64",
                              "nmax-uint64", "seed-negative",
                              "modes-repeated", "schemes-repeated", "betas-repeated",
                              "pzfc-infeasible", "block-below-beta",
                              "asymptotic-block-below-2beta",
                              "validate-block-below-fixture-pilots"])
@pytest.mark.filterwarnings("error")  # rejected by a check, not by numpy
def test_invalid_run_values_exit_before_any_work(tmp_path, capsys, flags, config):
    cfg = small_config(tmp_path, **config)
    out = tmp_path / "out"
    code = run_cli(["--config", cfg, "--out", out, "--modes", "avg",
                    "--schemes", "mrc", "--validate", *FAST_FLAGS, *flags])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()  # no table built, no output written


def test_a_short_block_sweeps_from_one_user(tmp_path):
    # every run sweeps K from 1, so a block of T = 5 runs K = 1, 2, 3
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps({"coherence_block": 5}))
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out", out, "--modes", "avg",
                    "--schemes", "mrc", "--n-points", "2"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {"1", "2", "3"}


def test_k_cap_bounds_the_user_grid_of_a_huge_block(tmp_path):
    # the run lists only the capped user counts, not all T/2 of them
    cfg = small_config(tmp_path, t_block=10 ** 12)
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out", out, "--modes", "avg",
                    "--schemes", "mrc", "--k-cap", "1", "--n-points", "1"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert rows and {row.split(",")[1] for row in rows} == {"1"}


# JSON values that replace manifest or config values.  Huge scalar ints are
# left out: a 2^63 realization count or block length is a valid endless run.
_JSON_POOL = [None, True, "x", -1, 0, 1.5, math.nan, [], {}, [0], [1.5], [2 ** 63]]
_DELETE = "<delete>"
_TINY_MANIFEST = asdict(cli_module._manifest_from_args(cli_module._build_parser().parse_args(
    ["--out", "out", "--modes", "worst", "--n-points", "1", "--k-cap", "1",
     "--asymptotic", "--validate", "--realizations", "20"])))
_MUTABLE_KEYS = sorted(_TINY_MANIFEST) + sorted(
    f"config.{name}" for name in {*_TINY_MANIFEST["config"],
                                  *(f.name for f in fields(NetworkConfig))})


def _mutated(manifest, mutations):
    """A copy of `manifest` with each (key, value) mutation applied in turn."""
    manifest = copy.deepcopy(manifest)
    for key, value in mutations:
        owner = manifest
        if key.startswith("config."):
            owner, key = manifest.get("config"), key.removeprefix("config.")
            if not isinstance(owner, dict):  # the config itself was replaced
                continue
        if value == _DELETE:
            owner.pop(key, None)
        else:
            owner[key] = copy.deepcopy(value)
    return manifest


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(_MUTABLE_KEYS),
                          st.sampled_from([_DELETE, *_JSON_POOL])), max_size=3))
def test_mutated_manifest_runs_or_is_refused_before_any_work(tmp_path, monkeypatch,
                                                             mutations):
    manifest = _mutated(_TINY_MANIFEST, mutations)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    path = work.with_suffix(".json")
    path.write_text(json.dumps(manifest))
    monkeypatch.chdir(work)
    code = main(["--from-manifest", str(path)])
    assert code in (0, 2)
    if code == 2:
        assert list(work.iterdir()) == []


def test_failed_csv_formatting_leaves_no_output(tmp_path, capsys, monkeypatch):
    format_runs, calls = sweep_module._format_runs, []

    def fail_on_second_span(result, runs):
        calls.append(len(runs))
        if len(calls) == 2:
            raise RuntimeError("forced failure formatting a sweep.csv span")
        return format_runs(result, runs)

    # spans of about 4 rows: the header and the first span are written
    # before the second span fails
    monkeypatch.setattr(sweep_module, "_format_runs", fail_on_second_span)
    monkeypatch.setattr(sweep_module, "_SPAN_ROWS", 4)
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out", out, "--modes", "avg",
                    "--schemes", "mrc", *FAST_FLAGS]) == 1
    assert "forced failure formatting a sweep.csv span" in capsys.readouterr().err
    assert len(calls) == 2
    # no sweep.csv, no .sweep.csv.tmp and no moments_avg.json written before it
    assert list(out.iterdir()) == []


def test_failed_oracle_fixture_leaves_no_output(tmp_path, capsys, monkeypatch):
    measure_sinr = cli_module.measure_sinr

    def fail_on_worst(config, schedule, cells, mode, *args):
        if mode is InterferenceMode.WORST_CASE:
            raise RankDeficient("forced rank deficiency in an oracle fixture")
        return measure_sinr(config, schedule, cells, mode, *args)

    monkeypatch.setattr(cli_module, "measure_sinr", fail_on_worst)
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out", out, "--schemes", "mrc", "--validate",
                    "--realizations", "400", *FAST_FLAGS]) == 1
    assert "forced rank deficiency in an oracle fixture" in capsys.readouterr().err
    # both moment tables, sweep.csv and optima.csv were written, then removed
    assert list(out.iterdir()) == []


def test_fixture_streams_do_not_depend_on_modes(tmp_path):
    # fixture i draws from child i of the validation seed: leaving out the
    # worst-case fixtures moves no average one
    cfg = small_config(tmp_path, t_block=1000)
    out = tmp_path / "out"

    def validation(modes):
        assert run_cli(["--config", cfg, "--out", out, "--seed", "3",
                        "--modes", modes, "--schemes", "mrc", "--validate",
                        "--realizations", "2000", *FAST_FLAGS]) == 0
        return json.loads((out / "validation.json").read_bytes())["fixtures"]

    both, avg_only = validation("avg,worst"), validation("avg")
    assert [f for f in both if f["mode"] == "avg"] == avg_only
    assert {f["name"] for f in avg_only} >= {"seven_cell_pzfc_avg_large_n"}


def test_validation_past_the_apothem(tmp_path):
    # an exclusion disk wider than the apothem still leaves six corner
    # regions to draw users from, and the oracle runs there
    cfg = small_config(tmp_path, min_ue_distance_frac=0.95)
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out", out, "--modes", "avg", "--schemes", "mrc",
                    "--validate", "--realizations", "400", *FAST_FLAGS]) == 0
    assert json.loads((out / "validation.json").read_text())["fixtures"]


def _pool_modules_after_run(args):
    """(exit code, the process-pool modules imported) of one run in a fresh
    interpreter that may run on two CPUs and whose `os.fork` raises."""
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def no_fork():\n"
            "    raise AssertionError('the run forked')\n"
            "os.fork = no_fork\n"
            "from hexmimo.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules])\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.splitlines()[-1]


def test_large_validated_run_never_starts_a_process(tmp_path):
    # the sweep.csv writer and the oracle run in process at any size on any
    # number of CPUs: a sweep of over 2^17 rows imports no process pool and
    # nothing forks
    cfg = small_config(tmp_path, t_block=2000)
    out = tmp_path / "out"
    assert _pool_modules_after_run(["--config", cfg, "--out", out, "--n-points", "60",
                                    "--validate", "--realizations", "400"]) == (0, "[]")
    rows = len((out / "sweep.csv").read_text().splitlines()) - 1
    assert rows >= 1 << 17


# one small validated run, then the CPU seconds of every thread but the main
# one (utime and stime, fields 14 and 15 of /proc/self/task/<tid>/stat)
_THREAD_CPU = r'''
import json, os, sys
from hexmimo.cli import main

code = main(sys.argv[1:])
ticks = 0
for tid in os.listdir("/proc/self/task"):
    if tid != str(os.getpid()):
        with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
            stat = fh.read().rsplit(")", 1)[1].split()
        ticks += int(stat[11]) + int(stat[12])
print(json.dumps({"code": code, "timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
                  "other_threads_cpu_s": ticks / os.sysconf("SC_CLK_TCK")}))
'''


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and two CPUs for BLAS workers")
@pytest.mark.parametrize("timeout", [None, "30"])
def test_cli_parks_idle_blas_workers(tmp_path, timeout):
    # with two BLAS threads and OpenBLAS's own timeout, the idle worker spins
    # about 0.12 s of CPU per run; the CLI parks it unless the caller chose a
    # timeout.  The variable is dropped from the child's environment first,
    # because this process set it when it imported hexmimo.cli
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_CPU, "--out", str(tmp_path / "out"),
         "--validate", "--n-points", "2", "--k-cap", "5", "--realizations", "400"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    if timeout is None:
        assert report["other_threads_cpu_s"] < 0.03, report
    assert report["timeout"] == (timeout or "4")


# edits of a valid table file whose header still matches the run
_TABLE_EDITS = {
    "entries-missing": lambda data: data.pop("entries"),
    # tier 1 cut short, its one entry broken
    "entries-truncated": lambda data: data.update(entries=data["entries"][:1] + [
        {"offset": [1, 0], "mu1": math.nan, "mu2": -1.0}]),
    "mu-nan": lambda data: data["entries"][3].update(mu1=math.nan),
    # complete tiers 0..2 only: short of the tier the stop rule keeps
    "tiers-dropped": lambda data: data.update(entries=data["entries"][:19]),
    # positive and not inf, but beyond the float range
    "mu-huge-int": lambda data: data["entries"][3].update(mu1=10 ** 400),
}


@pytest.mark.parametrize("corrupt", ["{", "[1]", *_TABLE_EDITS,
                                     pytest.param("[" * 100_000, id="nested-deep")])
def test_corrupt_moment_cache_is_rebuilt(tmp_path, corrupt):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    args = ["--config", cfg, "--out", out, "--seed", "4", "--modes", "avg",
            "--schemes", "mrc", *FAST_FLAGS]
    assert run_cli(args) == 0
    cache = out / "moments_avg.json"
    first = {n: (out / n).read_bytes()
             for n in ("sweep.csv", "optima.csv", "moments_avg.json")}
    if corrupt in _TABLE_EDITS:
        data = json.loads(cache.read_text())
        _TABLE_EDITS[corrupt](data)
        corrupt = json.dumps(data)
    cache.write_text(corrupt)

    assert run_cli(args) == 0
    table = MomentTable.load(cache)
    assert table.mode is InterferenceMode.AVERAGE and table.entries
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_version_one_monte_carlo_cache_is_rebuilt(tmp_path):
    # a Monte Carlo table of the previous file format, holding converged
    # tiers whose moments are off by sampling error, is not trusted
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    args = ["--config", cfg, "--out", out, "--seed", "4", "--modes", "avg",
            "--schemes", "mrc", *FAST_FLAGS]
    assert run_cli(args) == 0
    cache = out / "moments_avg.json"
    first = {n: (out / n).read_bytes()
             for n in ("sweep.csv", "optima.csv", "moments_avg.json")}
    data = json.loads(cache.read_text())
    for rec in data["entries"][1:]:
        rec.update(mu1=rec["mu1"] * 1.001, mu2=rec["mu2"] * 1.002,
                   se1=rec["mu1"] * 1e-3, se2=rec["mu2"] * 2e-3)
    MomentTable.from_dict(data)  # valid but for its version
    data.update(version=1, n_samples=20000, seed=12345)
    cache.write_text(json.dumps(data))

    assert run_cli(args) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_version_two_worst_table_is_rebuilt(tmp_path):
    # version 2 built the worst-case table by a per-cell projection, whose
    # moments differ from the one-node rule's in the last digits: a version-2
    # file is rebuilt, so the rerun writes what a cold run writes
    cfg = small_config(tmp_path)
    args = ["--config", cfg, "--seed", "4", "--modes", "worst",
            "--schemes", "mrc", *FAST_FLAGS]
    cold, stale = tmp_path / "cold", tmp_path / "stale"
    assert run_cli([*args, "--out", cold]) == 0
    data = json.loads((cold / "moments_worst.json").read_text())
    for rec in data["entries"][1:]:  # off far enough to show in sweep.csv
        rec.update(mu1=rec["mu1"] * 1.001, mu2=(rec["mu1"] * 1.001) ** 2)
    MomentTable.from_dict(data)  # valid but for its version
    stale.mkdir()
    (stale / "moments_worst.json").write_text(json.dumps({**data, "version": 2}))

    assert run_cli([*args, "--out", stale]) == 0
    for name in ("sweep.csv", "optima.csv", "moments_worst.json"):
        assert (stale / name).read_bytes() == (cold / name).read_bytes()


def test_table_file_with_retired_keys_is_a_cache_hit(tmp_path, monkeypatch):
    # keys the format does not name go unread: older version-2 files also
    # recorded rel_tol and max_tier, which the stored tiers pin.  No file of
    # the current version carries them, but one that does is loaded as it
    # is: not rebuilt, not rewritten
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    args = ["--config", cfg, "--out", out, "--seed", "4", "--modes", "avg,worst",
            "--schemes", "mrc", *FAST_FLAGS]
    assert run_cli(args) == 0
    first = {n: (out / n).read_bytes() for n in ("sweep.csv", "optima.csv")}
    caches = {}
    for mode in ("avg", "worst"):
        cache = out / f"moments_{mode}.json"
        data = json.loads(cache.read_text())
        assert "rel_tol" not in data and "max_tier" not in data
        old = {**{k: data[k] for k in ("format", "version", "mode", "kappa")},
               "rel_tol": 1e-3, "min_frac": data["min_frac"],
               "max_tier": MomentTable.load(cache).max_tier, "entries": data["entries"]}
        cache.write_text(json.dumps(old, indent=1) + "\n")
        caches[cache] = cache.read_bytes()

    def no_build(*args, **kwargs):
        raise AssertionError("a cached table was rebuilt")

    monkeypatch.setattr(cli_module, "build_table", no_build)
    assert run_cli(args) == 0
    for cache, blob in caches.items():
        assert cache.read_bytes() == blob
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_moment_tables_do_not_depend_on_the_seed(tmp_path):
    # the tables hold no sampling error, so runs at different seeds write
    # the same table files
    cfg = small_config(tmp_path)
    tables = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        assert run_cli(["--config", cfg, "--out", out, "--seed", seed,
                        "--modes", "avg,worst", "--schemes", "mrc",
                        *FAST_FLAGS]) == 0
        tables.append({name: (out / name).read_bytes()
                       for name in ("moments_avg.json", "moments_worst.json")})
    assert tables[0] == tables[1]


def test_samples_flag_is_ignored(tmp_path, capsys):
    # accepted so that existing command lines still run; it changes no byte
    cfg = small_config(tmp_path)

    def outputs(name, *extra):
        out = tmp_path / name
        assert run_cli(["--config", cfg, "--out", out, "--seed", "2",
                        "--modes", "avg,worst", "--schemes", "mrc",
                        "--asymptotic", *FAST_FLAGS, *extra]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return ({p.name: p.read_bytes() for p in out.iterdir()
                 if p.name != "manifest.json"},
                {k: v for k, v in manifest.items() if k != "out_dir"},
                capsys.readouterr().err)

    plain, samples = outputs("plain"), outputs("samples", "--samples", "20000")
    assert plain[:2] == samples[:2]
    assert plain[2] == "" and "--samples is ignored" in samples[2]
