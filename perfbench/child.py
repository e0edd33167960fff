"""Traced hexmimo run: wrap public functions from outside, run the CLI.

Usage: python3 perfbench/child.py TRACE.json [hexmimo CLI arguments...]

Each hook replaces a public name in the namespace its caller looks it up
in, so the program itself is not modified.  Calls at layer boundaries
become spans (name, start, end, parent, attrs) kept in memory; per-point
calls that run hundreds of thousands of times become aggregated counters
keyed by the name of the enclosing span, which is kept up to date as spans
open and close, so a counted call costs two clock reads and a dict lookup.
Everything is written to TRACE.json when the CLI returns.  A hook whose
target no longer exists is listed under "absent" instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _mode_value(args, kwargs):
    mode = _arg(args, kwargs, 1, "mode")
    return getattr(mode, "value", mode)


def _sweep_attrs(args, kwargs, result):
    tables = _arg(args, kwargs, 6, "moments").values()
    return {"rows": len(result.rows),
            "skipped": sum(result.n_skipped.values()),
            "offsets": sum(len(t.entries) for t in tables),
            "max_tier": max(t.max_tier for t in tables)}


def _validation_attrs(args, kwargs, result):
    return {"fixtures": [
        {"name": f["name"], "gated": f["gated"], "passed": f["passed"],
         "measured_over_analytic": f["measured_over_analytic"]}
        for f in result["fixtures"]]}


# (module, attribute path, span or counter name, attrs(args, kwargs, result))
SPANS = [
    ("hexmimo.cli", "run", "cli.run", None),
    ("hexmimo.cli", "build_table", "moments.build",
     lambda a, k, r: {"mode": _mode_value(a, k)}),
    ("hexmimo.moments", "MomentTable.load", "moments.load",
     lambda a, k, r: {"mode": r.mode.value}),
    ("hexmimo.moments", "MomentTable.save", "moments.save",
     lambda a, k, r: {"mode": a[0].mode.value}),
    ("hexmimo.cli", "sweep", "sweep.eval", _sweep_attrs),
    ("hexmimo.cli", "write_sweep_csv", "sweep.write", None),
    ("hexmimo.cli", "write_optima_csv", "sweep.write", None),
    ("hexmimo.cli", "run_validation", "cli.validate", _validation_attrs),
    ("hexmimo.cli", "measure_sinr", "linklevel.measure",
     lambda a, k, r: {"realizations": _arg(a, k, 5, "n_realizations")}),
]

# (module, attribute path, counter name, units(args, kwargs))
COUNTERS = [
    ("hexmimo.moments", "sample_ue_positions", "hexgrid.sample",
     lambda a, k: _arg(a, k, 4, "n")),
    ("hexmimo.linklevel", "sample_ue_positions", "hexgrid.sample",
     lambda a, k: _arg(a, k, 4, "n")),
    ("hexmimo.spectral", "CopilotSums.from_table", "spectral.sums", None),
    ("hexmimo.sweep", "mrc_sinr_from_sums", "spectral.point", None),
    ("hexmimo.sweep", "pzfc_sinr_from_sums", "spectral.point", None),
    ("hexmimo.sweep", "se_from_sinr", "spectral.point", None),
]


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.current = ""  # name of the innermost open span
        # counter name -> enclosing span name -> [calls, s, units]
        self.counters: dict[str, dict[str, list]] = {}
        self.absent: list[str] = []
        self.errors: list[str] = []

    def _guarded(self, fn, *args):
        """Derive span data from a call; a signature or result shape that no
        longer matches is recorded, never raised into the traced program."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - the traced run must go on
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def span(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = {"name": name, "start": perf_counter(), "end": None,
                   "parent": self.stack[-1] if self.stack else None,
                   "attrs": {}}
            self.spans.append(rec)
            self.stack.append(idx)
            outer, self.current = self.current, name
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.current = outer
                rec["end"] = perf_counter()
            if attrs is not None:
                rec["attrs"] = self._guarded(attrs, args, kwargs, result) or {}
            return result
        return wrapper

    def counter(self, name, fn, units=None):
        by_parent = self.counters.setdefault(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                c = by_parent.get(self.current)
                if c is None:
                    c = by_parent[self.current] = [0, 0.0, 0]
                c[0] += 1
                c[1] += elapsed
                if units is not None:
                    c[2] += self._guarded(units, args, kwargs) or 0
        return wrapper

    def install(self, module_name, path, make_wrapper) -> None:
        """Replace `module.path` (a function, method or classmethod)."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(f"{module_name}.{path}")
            return
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None or not callable(getattr(owner, attr)):
            self.absent.append(f"{module_name}.{path}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(make_wrapper(raw.__func__)))
        else:
            setattr(owner, attr, make_wrapper(raw))

    def to_dict(self) -> dict:
        return {"spans": self.spans, "absent": self.absent,
                "errors": self.errors,
                "counters": {f"{name}@{parent}": {"calls": c[0], "seconds": c[1],
                                                  "units": c[2]}
                             for name, by_parent in self.counters.items()
                             for parent, c in by_parent.items()}}


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    t0 = perf_counter()
    cli = importlib.import_module("hexmimo.cli")
    import_s = perf_counter() - t0

    tracer = Tracer()
    for module_name, path, name, attrs in SPANS:
        tracer.install(module_name, path,
                       lambda fn, n=name, a=attrs: tracer.span(n, fn, a))
    for module_name, path, name, units in COUNTERS:
        tracer.install(module_name, path,
                       lambda fn, n=name, u=units: tracer.counter(n, fn, u))

    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "exit_code": code,
                       **tracer.to_dict()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
