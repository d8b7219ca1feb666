"""Run one `swlme` CLI call in a fresh process and record what it cost.

run.py starts this script once per sample, with `PYTHONPATH=src`:

    python3 benchmarks/child.py --out RESULT.json --spawn-ns NS --first-work MOD.FN
        [--trace] -- <swlme argv>

It imports the package, installs its hooks, calls `swlme.cli.main(argv)`
once and writes RESULT.json. NS is CLOCK_MONOTONIC read by the parent just
before it started this process, so set-up time covers interpreter start and
imports. The hooks are always on, because `setup_s` and `ns_per_cell_step`
need them:

- the first call of MOD.FN marks the end of set-up;
- `solver.run` is timed and `solver.step` counted with its cell count.

With `--trace`, every layer function listed in TRACED is wrapped as well and
records one span per call: (name, start, end, parent span), all under the
run id of this process. Spans are kept in memory and written to RESULT.json
at the end. `WaveSpeedBoundWarning` is recorded rather than printed: its text
carries a changing count, so Python's default filter would print nearly
every one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import sys
import time
import warnings

# layer functions wrapped by --trace; model.max_wave_speed is split by its
# `validate` argument into two span names
TRACED = {
    "basis": ("compute_tensors",),
    "config": ("build_scenario",),
    "model": ("check_wet", "to_primitive", "flux", "nonconservative_rhs",
              "max_wave_speed", "energy"),
    "solver": ("apply_boundary", "_hydrostatic_states", "semi_discrete_rhs", "cfl_dt",
               "step", "_summary_row", "run"),
    "diagnostics": ("check_total_energy_identity", "check_skew_forms",
                    "gradient_check_entropy", "_Expansions", "convergence_study",
                    "stoker_dam_break"),
    "cli": ("main", "_write_outputs"),
}

_EXCEEDED = re.compile(r"exceeded at (\d+) state")


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def patch(module: str, name: str, make_wrapper) -> None:
    """Replace module.name by make_wrapper(original) in every swlme namespace.

    solver, cli and diagnostics bind functions at import
    (`from swlme.model import flux`), so patching one module is not enough.
    """
    original = getattr(sys.modules[f"swlme.{module}"], name)
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "swlme" or mod_name.startswith("swlme."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


class Tracer:
    """Spans (name, start, end, parent) of wrapped calls, held in memory."""

    def __init__(self):
        # every span name is known up front, so a function a workload never
        # calls, or one a refactor removed, still reports 0 calls
        self.names = [f"{module}.{name}" for module, names in TRACED.items() for name in names]
        self.names.append("model.max_wave_speed_validated")
        self.ids = {name: index for index, name in enumerate(self.names)}
        self.spans: list = []
        self.stack: list[int] = []
        self.eig_states = 0

    def _span(self, name_id: int, fn, args, kwargs):
        stack, spans = self.stack, self.spans
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index] = (name_id, start, _now(), parent)
            stack.pop()

    def wrap(self, name: str):
        name_id = self.ids[name]

        def make(fn):
            def traced(*args, **kwargs):
                return self._span(name_id, fn, args, kwargs)
            return traced
        return make

    def wrap_wave_speed(self, fn):
        analytic = self.ids["model.max_wave_speed"]
        validated = self.ids["model.max_wave_speed_validated"]

        def traced(W, *args, **kwargs):
            if kwargs.get("validate", args[1] if len(args) > 1 else False):
                self.eig_states += math.prod(W.shape[:-1])
                return self._span(validated, fn, (W, *args), kwargs)
            return self._span(analytic, fn, (W, *args), kwargs)
        return traced

    def install(self) -> None:
        for module, names in TRACED.items():
            for name in names:
                if not hasattr(sys.modules[f"swlme.{module}"], name):
                    continue
                if (module, name) == ("model", "max_wave_speed"):
                    patch(module, name, self.wrap_wave_speed)
                else:
                    patch(module, name, self.wrap(f"{module}.{name}"))


class Hooks:
    """The always-on probes: end of set-up, time in run(), cell-steps."""

    def __init__(self, first_work: str):
        self.first_work = first_work
        self.first_work_ns = None
        self.run_ns = 0
        self.cell_steps = 0

    def _mark(self):
        if self.first_work_ns is None:
            self.first_work_ns = _now()

    def install(self) -> None:
        def first_work(fn):
            def hooked(*args, **kwargs):
                self._mark()
                return fn(*args, **kwargs)
            return hooked

        def count_step(fn):
            def hooked(U, *args, **kwargs):
                self.cell_steps += len(U)
                return fn(U, *args, **kwargs)
            return hooked

        def time_run(fn):
            def hooked(*args, **kwargs):
                start = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.run_ns += _now() - start
            return hooked

        patch("solver", "step", count_step)
        patch("solver", "run", time_run)
        patch(*self.first_work.split("."), first_work)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--first-work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import swlme.cli

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    hooks = Hooks(args.first_work)
    hooks.install()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = _now()
        code = swlme.cli.main(argv)
        wall_ns = _now() - start
    bound = [w for w in caught if w.category.__name__ == "WaveSpeedBoundWarning"]
    for w in caught:
        if w.category.__name__ != "WaveSpeedBoundWarning":
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)

    result = {
        "wall_s": wall_ns / 1e9,
        "setup_s": (hooks.first_work_ns - args.spawn_ns) / 1e9 if hooks.first_work_ns else None,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_s": hooks.run_ns / 1e9,
        "cell_steps": hooks.cell_steps,
        "wave_bound_warnings": len(bound),
        "wave_exceeded_states": sum(int(m.group(1)) for w in bound
                                    if (m := _EXCEEDED.search(str(w.message)))),
    }
    if tracer:
        # every span of this process belongs to one main(argv) call: one run id
        result["trace"] = {"run_id": f"{os.getpid()}-{args.spawn_ns}", "names": tracer.names,
                           "spans": tracer.spans, "eig_states": tracer.eig_states}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
