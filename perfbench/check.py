"""Output checks for one hexmimo run, against a reference made at a known commit.

A run is correct when its sweep has the reference row count, every optima
row is the argmax of its slice in sweep.csv (max SE, then fewer users, then
lower reuse), every SE* is within 1 % of the reference, validation passed
where it ran, and each asymptotic K* is the integer nearest T/(2 beta).
Slices whose (K*, beta*) differ from the reference are counted, not failed:
Monte Carlo moments may move a near-tie without the answer being wrong.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

SE_REL_TOL = 0.01


def read_sweep(path: Path) -> tuple[int, dict]:
    """(row count, slice -> (K, beta, se) argmax under the sweep's tie-break)."""
    best: dict[str, tuple] = {}
    rows = 0
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "N,K,beta,scheme,mode,sinr,se":
            raise ValueError("sweep.csv has an unexpected header")
        for line in fh:
            n, k, beta, scheme, mode, _sinr, se = line.rstrip("\n").split(",")
            rows += 1
            key = f"{n},{scheme},{mode}"
            cand = (float(se), -int(k), -int(beta))
            cur = best.get(key)
            if cur is None or cand > cur:
                best[key] = cand
    return rows, {key: (-c[1], -c[2], c[0]) for key, c in best.items()}


def read_optima(path: Path) -> dict:
    """slice "N,scheme,mode" -> (K*, beta*, SE*)."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {f"{r['N']},{r['scheme']},{r['mode']}":
                (int(r["K_star"]), int(r["beta_star"]), float(r["se"]))
                for r in csv.DictReader(fh)}


def summarize(out_dir: Path) -> dict:
    """The facts a reference records: row count and per-slice optima."""
    rows, _ = read_sweep(out_dir / "sweep.csv")
    return {"rows": rows, "optima": read_optima(out_dir / "optima.csv")}


def check_run(out_dir: Path, reference: dict, *, coherence_block: int,
              asymptotic: bool, validated: bool) -> tuple[list[str], int]:
    """Return (problems, optima_changed); an empty problem list means correct."""
    problems: list[str] = []
    rows, argmax = read_sweep(out_dir / "sweep.csv")
    optima = read_optima(out_dir / "optima.csv")
    if rows != reference["rows"]:
        problems.append(f"sweep.csv has {rows} rows, reference {reference['rows']}")
    if set(optima) != set(argmax):
        problems.append("optima.csv slices differ from sweep.csv slices")
    for key, opt in optima.items():
        if key in argmax and opt != argmax[key]:
            problems.append(f"optima {key} = {opt} is not the sweep argmax {argmax[key]}")

    ref_optima = reference["optima"]
    if set(optima) != set(ref_optima):
        problems.append("optima.csv slices differ from the reference slices")
    changed = 0
    for key, (k, beta, se) in optima.items():
        if key not in ref_optima:
            continue
        ref_k, ref_beta, ref_se = ref_optima[key]
        if (k, beta) != (ref_k, ref_beta):
            changed += 1
        if abs(se - ref_se) > SE_REL_TOL * abs(ref_se):
            problems.append(f"SE* {key} = {se} is more than 1 % from reference {ref_se}")

    if validated:
        with open(out_dir / "validation.json", encoding="utf-8") as fh:
            if json.load(fh).get("passed") is not True:
                problems.append("validation.json does not report passed")
    if asymptotic:
        with open(out_dir / "asymptotic.csv", encoding="utf-8", newline="") as fh:
            asym = list(csv.DictReader(fh))
        if not asym:
            problems.append("asymptotic.csv has no rows")
        for r in asym:
            target = coherence_block / (2 * int(r["beta"]))
            if abs(int(r["K_star"]) - target) > 0.5:
                problems.append(f"asymptotic K* {r['K_star']} is not nearest "
                                f"T/(2 beta) = {target} for beta={r['beta']}")
    return problems, changed
