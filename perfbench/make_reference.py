"""Write the reference outputs that perfbench/check.py compares runs against.

Usage: python3 perfbench/make_reference.py [--smoke]

Run it only at a commit whose outputs are known to be right: every
benchmark run is checked against these files, and a change that moves the
optimal schedules on purpose makes new ones and says why. The references
are made at seed 0; runs at any seed are compared against them.
"""

from __future__ import annotations

import argparse
import json
import sys

from check import summarize
from run import ROOT, WORK, Runner, cli_argv, reference_path, run_record, spawn, workloads


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    seed = 0
    WORK.mkdir(exist_ok=True)
    sha = run_record(seed)["git_sha"]
    for wl in workloads(args.smoke).values():
        runner = Runner(wl, seed, reference=None)
        out = runner.dir / "reference"
        argv = cli_argv(wl, seed, out, wl.args)
        res = spawn([sys.executable, "-m", "hexmimo.cli", *argv],
                    runner.dir / "reference.log")
        if res["code"] != 0:
            print(f"{wl.name}: exit code {res['code']}\n{res['output']}", file=sys.stderr)
            return 1
        ref = {"made_at": {"git_sha": sha, "seed": seed, "config": wl.config,
                           "argv": ["-m", "hexmimo.cli", *cli_argv(wl, seed, ROOT / "<out>", wl.args)]},
               **summarize(out)}
        path = reference_path(wl, args.smoke)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"{path.name}: {ref['rows']} rows, {len(ref['optima'])} slices")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
