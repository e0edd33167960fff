"""Command-line entry point: config -> moment tables -> sweep -> CSV/JSON.

One run writes into the output directory:

    sweep.csv            every evaluated (N, K, beta, scheme, mode) point
    optima.csv           argmax schedule per (N, scheme, mode)
    moments_<mode>.json  cached moment tables (reloaded on rerun if they match)
    manifest.json        every parameter and seed; a run regenerates
                         byte-identical outputs from the manifest alone
    asymptotic.csv       (--asymptotic) large-N schedule and SE per beta
    validation.json      (--validate) link-level oracle vs closed forms

Exit codes: 0 success, 1 validation failure or runtime error, 2 config error.
"""

from __future__ import annotations

import os

# OpenBLAS reads this when numpy loads it, so it is set before any import
# that loads numpy.  An idle OpenBLAS worker polls for 2^28 clock ticks
# before it sleeps (about 0.13 s of CPU per process with two threads); 2^4
# parks it at once.  The thread count stays as the caller set it, a timeout
# the caller set wins, and other BLAS libraries ignore the variable.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import argparse
import json
import math
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import (HEX_REUSE_FACTORS, InterferenceMode, NetworkConfig,
                     config_from_dict, fits, record_from_json)
from .errors import DomainError
from .linklevel import measure_sinr
from .moments import MomentTable, build_table
from .pilots import Schedule
from .spectral import Scheme, SinrInputs, asymptotic_sinr, kstar_asymptotic, sinr
from .sweep import (N_MAX, default_k_grid, default_n_grid, max_users, sweep,
                    write_optima_csv, write_sweep_csv)

# the values NetworkConfig has no default for; the rest are its defaults
_DEFAULT_CONFIG = {"coherence_block": 1000, "snr_db": 10.0}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one run byte-for-byte.  Building one
    with a value of the wrong type, or one no run can use, raises DomainError
    (PilotOverflow when a validation fixture's pilots do not fit T)."""

    out_dir: str
    seed: int
    modes: list[str]
    schemes: list[str]
    config: dict
    n_grid: list[int] = field(default_factory=default_n_grid)
    k_cap: int | None = None
    beta_set: list[int] = field(default_factory=lambda: list(HEX_REUSE_FACTORS))
    run_asymptotic: bool = False
    run_validation: bool = False
    validation_realizations: int = 20000

    def __post_init__(self):
        hints = typing.get_type_hints(RunManifest)
        wrong = [name for name, hint in hints.items() if not fits(getattr(self, name), hint)]
        if wrong:
            raise DomainError(f"manifest: values of the wrong type {wrong}")
        t_block = config_from_dict(self.config).coherence_block
        lists = (self.modes, self.schemes, self.beta_set, self.n_grid)
        if not all(lists):
            raise DomainError("modes, schemes, reuse factors and antenna counts must not be empty")
        if any(len(set(values)) != len(values) for values in lists):
            raise DomainError("modes, schemes, reuse factors and antenna counts must not repeat")
        for values, kind in ((self.modes, InterferenceMode), (self.schemes, Scheme)):
            unknown = sorted(set(values) - {member.value for member in kind})
            if unknown:
                raise DomainError(f"unknown {kind.__name__} values {unknown}")
        if min(self.n_grid) < 1 or (self.k_cap is not None and self.k_cap < 1):
            raise DomainError(f"N and k_cap must be >= 1, got {self.n_grid}, {self.k_cap}")
        if max(self.n_grid) > N_MAX:
            raise DomainError(f"N must be below 2^63, got {max(self.n_grid)}")
        bad = [b for b in self.beta_set if b not in HEX_REUSE_FACTORS]
        if bad:
            raise DomainError(f"reuse factors {bad} not in {list(HEX_REUSE_FACTORS)}")
        if self.run_asymptotic and t_block < 2 * max(self.beta_set):
            raise DomainError("the asymptotic schedule needs T >= 2 beta for every reuse "
                              f"factor, got T={t_block}, beta={max(self.beta_set)}")
        # the run's user counts start at K = 1 (k_cap >= 1)
        for n in self.n_grid:
            for scheme in self.schemes:
                if all(max_users(n, Scheme(scheme), beta, t_block) < 1
                       for beta in self.beta_set):
                    raise DomainError(f"no feasible (K, beta) at N={n} for scheme={scheme}")
        if self.run_validation:
            for _, _, schedule, _, scheme, _ in _validation_fixtures():
                schedule.check(t_block, zero_forcing=scheme is Scheme.PZFC)
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.validation_realizations < 2:
            raise DomainError("realizations must be >= 2 (a standard error needs two), "
                              f"got {self.validation_realizations}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1) + "\n"

    @classmethod
    def from_json_file(cls, path) -> "RunManifest":
        """Read a manifest; a refused one is refused with its config's
        problems too, so one error names every stale key."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            return record_from_json(cls, data, "manifest")
        except DomainError as exc:
            config = data.get("config") if isinstance(data, dict) else None
            if isinstance(config, dict):
                try:
                    config_from_dict(config)
                except DomainError as config_exc:
                    if str(config_exc) != str(exc):  # not already the config's
                        raise DomainError(f"{exc}; {config_exc}") from None
            raise


def _validation_seed(seed: int) -> int:
    """The oracle's seed, split from the single run seed: word 2 of the seed
    sequence's state.  A run seed maps to the same oracle seed in every
    version, but the draws made from it change whenever the oracle's
    sampling does, so validation.json repeats only within one version."""
    return int(np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)[2])


def _load_or_build_table(mode: InterferenceMode, out_dir: Path,
                         config: NetworkConfig, written: list[Path]) -> MomentTable:
    path = out_dir / f"moments_{mode.value}.json"
    if path.exists():
        try:
            table = MomentTable.load(path)
        except (KeyError, TypeError, ValueError, RecursionError):
            # an unreadable, unrecognized or too deeply nested file (DomainError
            # and JSONDecodeError are ValueErrors): a cache miss, rebuilt below
            table = None
        if (table is not None and table.mode is mode
                and table.kappa == config.pathloss_exponent
                and table.min_frac == config.min_ue_distance_frac):
            return table
    table = build_table(config.pathloss_exponent, mode,
                        min_frac=config.min_ue_distance_frac)
    _write_atomic(path, table.save, written)
    return table


def _write_atomic(path: Path, write, written: list[Path]) -> None:
    """Call `write(tmp)` on a temporary sibling of `path`, then move it into
    place: `path` holds either its old content or the complete new file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    written.append(path)


def _write_asymptotic_csv(path, tables: dict[InterferenceMode, MomentTable],
                          config: NetworkConfig, beta_set, modes) -> None:
    """Large-N schedule per (mode, beta): K*, the T/(4 beta) data-fraction
    envelope, and the contamination-limited SE."""
    t_block = config.coherence_block
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode,beta,K_star,prelog,se_limit\n")
        for mode in modes:
            table = tables[mode]
            for beta in beta_set:
                k_star = min(kstar_asymptotic(t_block, beta))
                limit = asymptotic_sinr(table, beta)
                prelog = t_block / (4.0 * beta)
                se_limit = math.inf if math.isinf(limit) else \
                    prelog * math.log2(1.0 + limit)
                fh.write(f"{mode.value},{beta},{k_star},{prelog!r},{se_limit!r}\n")


def _validation_fixtures():
    """Small link-level fixtures: (name, cells, schedule, mode, scheme, gated).

    The ungated average-mode zero-forcing fixture at N=64 sits where the
    closed form is conservative: measured/analytic is about 1.02 at beta=1
    (1.08 at N=10; 1.0103 +- 0.0018 at N=256, the gated
    `seven_cell_pzfc_avg_large_n`, as the mean and its standard error over
    the validation seeds of run seeds 0-39 at 20,000 realizations), but at
    beta=3 it is about 1.70 and does not shrink with N (1.696 at N=10, 64
    and 256; K=2, 100,000 realizations).  In worst-case mode, and on the
    single cell, no position is drawn and the two agree to rounding
    (|ratio - 1| <= 2.2e-16).  The fixture is reported with its per-term
    decomposition but excluded from pass/fail.
    """
    tier1 = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)]
    avg, worst = InterferenceMode.AVERAGE, InterferenceMode.WORST_CASE
    return [
        ("single_cell_mrc", [(0, 0)], Schedule(50, 1, 1), avg, Scheme.MRC, True),
        ("seven_cell_mrc_avg", tier1, Schedule(64, 2, 1), avg, Scheme.MRC, True),
        ("seven_cell_mrc_worst", tier1, Schedule(64, 2, 1), worst, Scheme.MRC, True),
        ("seven_cell_pzfc_worst", tier1, Schedule(64, 2, 1), worst, Scheme.PZFC, True),
        ("seven_cell_pzfc_avg_large_n", tier1, Schedule(256, 2, 1), avg, Scheme.PZFC,
         True),
        ("seven_cell_pzfc_avg", tier1, Schedule(64, 2, 1), avg, Scheme.PZFC, False),
    ]


def run_validation(config: NetworkConfig,
                   tables: dict[InterferenceMode, MomentTable],
                   seed: int, n_realizations: int) -> dict:
    """Measure each fixture's SINR by simulation and compare to the closed form.

    Fixture i of `_validation_fixtures` draws from its own stream, child i
    of `SeedSequence(seed)`, so its result depends on the seed and on the
    fixture alone: a mode left out of `tables` skips its fixtures and moves
    no other.  The fixtures run in fixture order, in this process.

    A fixture whose estimate is exact (`std_error` 0: one cell, or
    worst-case mode, where no position is drawn) passes when measured and
    analytic agree to 1e-12 relative, the "identity" gate; any other passes
    when the measured value is within 5 % of the analytic one or within 3
    delta-method standard errors of it, the "statistical" gate.  Each fixture
    records its gate.  Ungated fixtures are informational.  The per-term
    decomposition of the measured denominator is always reported so any
    systematic residual is visible rather than suppressed.
    """
    fixtures = _validation_fixtures()
    streams = np.random.SeedSequence(seed).spawn(len(fixtures))
    report = {"n_realizations": n_realizations, "seed": seed, "fixtures": []}
    for (name, cells, schedule, mode, scheme, gated), stream in zip(fixtures, streams):
        if mode not in tables:
            continue
        analytic = sinr(SinrInputs(config=config, moments=tables[mode],
                                   schedule=schedule, tier_set=cells, scheme=scheme))
        measured = measure_sinr(config, schedule, cells, mode, scheme, n_realizations,
                                np.random.default_rng(stream))
        ratio = measured.sinr / analytic
        if measured.std_error == 0.0:
            gate, passed = "identity", abs(ratio - 1.0) <= 1e-12
        else:
            gate = "statistical"
            passed = (abs(ratio - 1.0) <= 0.05
                      or abs(measured.sinr - analytic) <= 3.0 * measured.std_error)
        report["fixtures"].append({
            "name": name,
            "mode": mode.value,
            "scheme": scheme.value,
            "n_antennas": schedule.n_antennas,
            "n_users": schedule.n_users,
            "reuse_factor": schedule.reuse_factor,
            "n_cells": len(cells),
            "gated": gated,
            "gate": gate,
            "analytic_sinr": analytic,
            "measured_sinr": measured.sinr,
            "std_error": measured.std_error,
            "measured_over_analytic": ratio,
            "terms": measured.terms,
            "passed": bool(passed),
        })
    report["passed"] = all(f["passed"] for f in report["fixtures"] if f["gated"])
    return report


def run(manifest: RunManifest) -> dict:
    """Execute a manifest; returns {'written': [...], 'validation_passed': bool}.

    Every output is written to a temporary sibling and moved into place, so
    no output path ever holds a partial file.  If a step fails part-way, the
    files this run already wrote are removed too.
    """
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = config_from_dict(manifest.config)
    modes = [InterferenceMode(m) for m in manifest.modes]
    schemes = [Scheme(s) for s in manifest.schemes]
    written: list[Path] = []

    try:
        tables = {mode: _load_or_build_table(mode, out_dir, config, written)
                  for mode in modes}

        k_grid = default_k_grid(config.coherence_block)[:manifest.k_cap]
        result = sweep(config, manifest.n_grid, k_grid, manifest.beta_set,
                       schemes, modes, tables)

        _write_atomic(out_dir / "sweep.csv",
                      lambda tmp: write_sweep_csv(result, tmp), written)
        _write_atomic(out_dir / "optima.csv",
                      lambda tmp: write_optima_csv(result, tmp), written)

        if manifest.run_asymptotic:
            _write_atomic(out_dir / "asymptotic.csv",
                          lambda tmp: _write_asymptotic_csv(
                              tmp, tables, config, manifest.beta_set, modes),
                          written)

        validation_passed = True
        if manifest.run_validation:
            report = run_validation(config, tables, _validation_seed(manifest.seed),
                                    manifest.validation_realizations)
            validation_passed = report["passed"]
            text = json.dumps(report, indent=1) + "\n"
            _write_atomic(out_dir / "validation.json",
                          lambda tmp: tmp.write_text(text, encoding="utf-8"),
                          written)

        _write_atomic(out_dir / "manifest.json",
                      lambda tmp: tmp.write_text(manifest.to_json(),
                                                 encoding="utf-8"),
                      written)
    except Exception:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise

    return {"written": [str(p) for p in written],
            "validation_passed": validation_passed}


def _build_parser() -> argparse.ArgumentParser:
    # a flag argv does not name stays out of the namespace: each default is
    # stated once, by the manifest or where `_manifest_from_args` reads it
    p = argparse.ArgumentParser(
        prog="hexmimo", argument_default=argparse.SUPPRESS,
        description="Sweep user count and pilot reuse for uplink spectral "
                    "efficiency on a hexagonal massive MIMO network.")
    p.add_argument("--config", help="JSON network config (built-in defaults if omitted)")
    p.add_argument("--out", help="output directory (default hexmimo_out; with "
                                 "--from-manifest, overrides the manifest's directory)")
    p.add_argument("--seed", type=int, help="run seed (u64, default 0)")
    p.add_argument("--modes", help="comma list of interference modes (default all of "
                                   f"{','.join(m.value for m in InterferenceMode)})")
    p.add_argument("--schemes", help="comma list of combining schemes (default all of "
                                     f"{','.join(s.value for s in Scheme)})")
    p.add_argument("--validate", action="store_true",
                   help="run link-level oracle fixtures, write validation.json")
    p.add_argument("--asymptotic", action="store_true",
                   help="write large-N schedule per beta to asymptotic.csv")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--n-points", type=int)
    p.add_argument("--k-cap", type=int, help="cap on swept user counts (default: T/2)")
    p.add_argument("--betas", help="comma list of reuse factors (default all of "
                                   f"{','.join(map(str, HEX_REUSE_FACTORS))})")
    p.add_argument("--samples", type=int,
                   help="ignored: moment tables are computed by quadrature "
                        "(accepted so that existing command lines still run)")
    p.add_argument("--realizations", type=int,
                   help="link-level realizations per validation fixture")
    p.add_argument("--from-manifest",
                   help="rerun a previous run from its manifest.json; takes only --out")
    return p


def _manifest_from_args(args) -> RunManifest:
    """The run that `args` names; a flag it does not name takes its default."""
    given = vars(args)
    if "from_manifest" in given:
        # every run flag but --out (and the ignored --samples) would be
        # ignored, so each is refused, even one given at its default value
        ignored = sorted(given.keys() - {"from_manifest", "out", "samples"})
        if ignored:
            raise DomainError("--from-manifest reruns the manifest as recorded, so it takes "
                              "no run flag but --out, got " + " ".join(
                                  "--" + flag.replace("_", "-") for flag in ignored))
        manifest = RunManifest.from_json_file(args.from_manifest)
        return replace(manifest, out_dir=args.out) if given.get("out") else manifest
    config = {**_DEFAULT_CONFIG, **{f.name: f.default for f in fields(NetworkConfig)
                                     if f.default is not MISSING}}
    if "config" in given:
        with open(args.config, "r", encoding="utf-8") as fh:
            user_cfg = json.load(fh)
        if not isinstance(user_cfg, dict):
            raise DomainError("a config file must hold a JSON object")
        if "snr_db" in user_cfg or "snr_linear" in user_cfg:
            config.pop("snr_db", None)
        config.update(user_cfg)
    lists = {flag: [item.strip() for item in given[flag].split(",") if item.strip()]
             for flag in ("modes", "schemes", "betas") if flag in given}
    return RunManifest(
        out_dir=given.get("out") or "hexmimo_out",
        seed=given.get("seed", 0),
        modes=lists.get("modes", [m.value for m in InterferenceMode]),
        schemes=lists.get("schemes", [s.value for s in Scheme]),
        config=config,
        n_grid=default_n_grid(**{flag: given[flag] for flag in ("n_min", "n_max", "n_points")
                                 if flag in given}),
        beta_set=[int(b) for b in lists.get("betas", HEX_REUSE_FACTORS)],
        **{name: given[flag] for flag, name in (
            ("k_cap", "k_cap"), ("asymptotic", "run_asymptotic"),
            ("validate", "run_validation"), ("realizations", "validation_realizations"))
           if flag in given},
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if "samples" in args:
        print("hexmimo: note: --samples is ignored; moment tables are computed "
              "by quadrature", file=sys.stderr)
    try:
        manifest = _manifest_from_args(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"hexmimo: config error: {exc}", file=sys.stderr)
        return 2

    try:
        outcome = run(manifest)
    except Exception as exc:  # module errors: diagnostic, partial outputs gone
        print(f"hexmimo: error: {exc}", file=sys.stderr)
        return 1

    for path in outcome["written"]:
        print(f"wrote {path}")
    if not outcome["validation_passed"]:
        print("hexmimo: validation FAILED (see validation.json)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
