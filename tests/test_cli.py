import json
import math
import subprocess
import sys

import pytest

from hexmimo.cli import main
from hexmimo.config import InterferenceMode
from hexmimo.moments import MomentTable

FAST_FLAGS = ["--n-min", "16", "--n-max", "64", "--n-points", "3",
              "--k-cap", "12", "--betas", "1,3", "--samples", "20000"]


def run_cli(args):
    return main([str(a) for a in args])


def small_config(tmp_path, t_block=200, **extra):
    cfg = {"n_antennas": 64, "n_users": 4, "coherence_block": t_block,
           "reuse_factor": 1, "snr_db": 10.0, "pathloss_exponent": 3.5}
    cfg.update(extra)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_run_writes_all_outputs(tmp_path):
    cfg = small_config(tmp_path)
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
    assert set(manifest["moment_paths"]) == {"avg", "worst"}


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


def test_outputs_regenerate_from_manifest_alone(tmp_path):
    cfg = small_config(tmp_path)
    out_a = tmp_path / "a"
    assert run_cli(["--config", cfg, "--out", out_a, "--seed", "9",
                    "--modes", "avg", "--schemes", "mrc,pzfc", *FAST_FLAGS]) == 0
    out_b = tmp_path / "b"
    assert run_cli(["--from-manifest", out_a / "manifest.json",
                    "--out", out_b]) == 0
    for name in ("sweep.csv", "optima.csv", "moments_avg.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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


def test_default_grid_optima_schedule_hundreds_of_users(tmp_path):
    # default grids (N up to 1e4, K up to T/2): at the largest array the
    # average-mode optimum schedules close to T/2 users
    out = tmp_path / "out"
    code = run_cli(["--out", out, "--seed", "0", "--modes", "avg",
                    "--schemes", "mrc,pzfc", "--samples", "50000"])
    assert code == 0
    rows = [line.split(",")
            for line in (out / "optima.csv").read_text().splitlines()[1:]]
    at_top = {r[1]: int(r[3]) for r in rows if r[0] == "10000" and r[2] == "avg"}
    assert at_top["mrc"] > 400 and at_top["pzfc"] > 400


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_antennas": -5}))
    assert run_cli(["--config", bad, "--out", tmp_path / "o"]) == 2
    assert run_cli(["--config", tmp_path / "missing.json",
                    "--out", tmp_path / "o"]) == 2
    cfg = small_config(tmp_path)
    assert run_cli(["--config", cfg, "--out", tmp_path / "o",
                    "--modes", "bogus"]) == 2
    # values no run can use: non-finite reals, non-integer or bool counts
    for override in ({"snr_linear": math.nan}, {"cell_radius": math.nan},
                     {"pathloss_exponent": math.nan}, {"pathloss_ref": math.inf},
                     {"coherence_block": 1000.5}, {"n_antennas": True}):
        bad.write_text(json.dumps(override))
        assert run_cli(["--config", bad, "--out", tmp_path / "o"]) == 2, override
    # a manifest carrying the retired moment_rel_tol / moment_max_tiers keys
    manifest = {"out_dir": str(tmp_path / "o"), "seed": 0, "modes": ["avg"],
                "schemes": ["mrc"], "config": json.loads(cfg.read_text()),
                "moment_rel_tol": 1e-3, "moment_max_tiers": 12}
    bad.write_text(json.dumps(manifest))
    assert run_cli(["--from-manifest", bad]) == 2
    # manifests missing a required field, or carrying a config no run can use
    del manifest["moment_rel_tol"], manifest["moment_max_tiers"]
    for broken in ({}, {k: v for k, v in manifest.items() if k != "config"},
                   {**manifest, "config": {**manifest["config"], "cell_radius": -5}}):
        bad.write_text(json.dumps(broken))
        assert run_cli(["--from-manifest", bad]) == 2, broken
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


@pytest.mark.parametrize("flags", [["--realizations", "5"],
                                   ["--realizations", "0"],
                                   ["--samples", "0"],
                                   ["--betas", "1,2"],
                                   ["--k-cap", "0"],
                                   ["--betas", ","],
                                   ["--modes", ","],
                                   ["--schemes", ","],
                                   ["--n-points", "0"],
                                   ["--n-min", "0"]],
                         ids=["realizations5", "realizations0", "samples0",
                              "beta2", "kcap0", "betas-empty", "modes-empty",
                              "schemes-empty", "npoints0", "nmin0"])
@pytest.mark.filterwarnings("error")  # rejected by a check, not by numpy
def test_invalid_run_values_exit_before_any_work(tmp_path, capsys, flags):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["--config", cfg, "--out", out, "--modes", "avg",
                    "--schemes", "mrc", "--validate", *FAST_FLAGS, *flags])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()  # no table built, no output written


@pytest.mark.parametrize("corrupt", ["{", "[1]", "entries-missing"])
def test_corrupt_moment_cache_is_rebuilt(tmp_path, corrupt):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    args = ["--config", cfg, "--out", out, "--seed", "4", "--modes", "avg",
            "--schemes", "mrc", *FAST_FLAGS]
    assert run_cli(args) == 0
    cache = out / "moments_avg.json"
    first = {n: (out / n).read_bytes()
             for n in ("sweep.csv", "optima.csv", "moments_avg.json")}
    if corrupt == "entries-missing":
        data = json.loads(cache.read_text())
        del data["entries"]
        corrupt = json.dumps(data)
    cache.write_text(corrupt)

    assert run_cli(args) == 0
    table = MomentTable.load(cache)
    assert table.mode is InterferenceMode.AVERAGE and table.entries
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob
