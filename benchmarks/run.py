"""swlme benchmark: one workload, timed end to end or traced layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from a source checkout; the package is imported from `src/` (the way
the tests run it), so nothing is installed. Workloads are listed in
BENCHMARK.json and defined in workloads.py; the seed generates their
inputs. Seed 1 is the default; seed 2 is kept for validating claims made
on other seeds.

Every sample is a fresh process (child.py) that calls `swlme.cli.main`
once. A run runs the whole workload repeatedly for about --seconds seconds
(at least MIN_SAMPLES times; --seconds defaults to BENCHMARK.json's
run_seconds). Each run is checked by the workload's correctness gates; a
non-zero exit or a missed gate counts as failed. All CLI output goes to a
temporary directory under the checkout, removed at the end.

--trace 0 reports the end-to-end metrics (medians over the runs):
  wall_s        wall time of one main(argv) call
  setup_s       process start to the first solver.step (run, converge) or
                the first identity evaluation (check)
  peak_rss_mib  peak resident memory of the workload process
and prints, as information without a bound, ns_per_cell_step (time inside
solver.run over the sum of steps x cells), l1_error_h (converge only) and
fail_ratio.

--trace 1 alternates untraced and traced processes and reports the
per-layer metrics BENCHMARK.json lists: `.calls` and `.self_s` (span time
minus child spans) of every function child.TRACED wraps and a few derived
counts, from the traced processes; ns_per_cell_step and l1_error_h from the
untraced ones; and the tracing overhead (traced minus untraced wall_s). A
function the workload never calls, or one a refactor removed, reads 0. The
program is single-threaded with no queues, so no layer waits; no wait time
is reported.

benchmarks/test_smoke.py runs every workload at --tiny size, untraced and
traced; it is kept out of the tier-1 suite.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = ("solver.steps", "model.check_wet.calls_per_step", "model.eig_states",
                "diagnostics._Expansions.calls", "cli.output_bytes")


def machine_facts() -> dict:
    import numpy

    facts = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
             "llc": "unknown", "python": platform.python_version(),
             "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for index in os.listdir(cache):
            if index.startswith("index"):
                with open(os.path.join(cache, index, "level"), encoding="utf-8") as fh:
                    level = int(fh.read())
                with open(os.path.join(cache, index, "size"), encoding="utf-8") as fh:
                    levels.append((level, fh.read().strip()))
        facts["llc"] = f"L{max(levels)[0]} {max(levels)[1]}"
    except (OSError, ValueError):
        pass
    return facts


def run_child(inputs, work_dir: str, trace: bool) -> dict:
    """Start one workload process, wait for it, and return its result and stdout."""
    out = os.path.join(work_dir, "result.json")
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--out", out,
           "--first-work", inputs.first_work] + ["--trace"] * trace \
        + ["--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)), "--"] + inputs.argv
    try:
        proc = subprocess.run(cmd, cwd=work_dir, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    result = {"problems": []}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            result.update(json.load(fh))
    if proc.returncode != 0 or "wall_s" not in result:
        tail = proc.stderr.strip().splitlines()[-3:]
        result["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    result["stdout"] = proc.stdout
    return result


def full_run(name: str, inputs, work_dir: str, trace: bool) -> dict:
    """One whole workload run, its correctness gates, and its output size."""
    result = run_child(inputs, work_dir, trace=trace)
    if not result["problems"]:
        try:
            problems, result["l1_error_h"] = workloads.check_outputs(name, inputs, result["stdout"])
        except (OSError, ValueError, IndexError, StopIteration) as err:
            problems = [f"unreadable output: {err!r}"]
        result["problems"] += problems
    out_dir = os.path.join(work_dir, "out")
    result["output_bytes"] = sum(entry.stat().st_size for entry in os.scandir(out_dir)) \
        if os.path.isdir(out_dir) else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def layer_totals(trace: dict) -> dict:
    """Per span name: number of calls and summed self time in seconds."""
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {name: [0, 0] for name in trace["names"]}
    for (name_id, start, end, _), inner in zip(spans, child_ns):
        entry = totals[trace["names"][name_id]]
        entry[0] += 1
        entry[1] += end - start - inner
    return {name: (calls, ns / 1e9) for name, (calls, ns) in totals.items()}


def layer_metrics(sample: dict) -> dict:
    """Per-layer metric values of one traced sample."""
    totals = layer_totals(sample["trace"])
    out = {}
    for name, (calls, self_s) in totals.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    steps = totals["solver.step"][0]
    eig_states = sample["trace"]["eig_states"]
    write_s = totals["cli._write_outputs"][1]
    out.update({
        "solver.steps": steps,
        "model.check_wet.calls_per_step": totals["model.check_wet"][0] / steps if steps else 0.0,
        "model.eig_states": eig_states,
        "model.eig_useful_ratio": sample["wave_exceeded_states"] / eig_states if eig_states else 0.0,
        "model.wave_bound_warnings": sample["wave_bound_warnings"],
        "cli.output_bytes": sample["output_bytes"],
        "cli.output_mb_per_s": sample["output_bytes"] / 1e6 / write_s if write_s else 0.0,
    })
    return out


def ns_per_cell_step(samples: list) -> float:
    cell_steps = sum(s["cell_steps"] for s in samples)
    return sum(s["run_s"] for s in samples) * 1e9 / cell_steps if cell_steps else 0.0


def median_of(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def measure(name: str, inputs, work_dir: str, seconds: float, trace: bool):
    """Whole runs for about `seconds`; every result."""
    runs = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(dict(full_run(name, inputs, work_dir, traced), traced=traced))
        elapsed = time.monotonic() - start
        if len(runs) >= (2 * MIN_SAMPLES if trace else MIN_SAMPLES) \
                and elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs


def report(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Measure one workload; print the human-readable lines; return the result."""
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    try:
        inputs = workloads.make_inputs(name, seed, tiny, work_dir)
        runs = measure(name, inputs, work_dir, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(base)

    failed = [r for r in runs if r["problems"]]
    for r in failed:
        print(f"FAILED: {'; '.join(r['problems'])}", file=sys.stderr)
    # a run that missed a gate still has honest timings; `correct` flags it
    timed = [r for r in runs if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    if not plain:
        raise SystemExit(f"error: no run of {name} completed; nothing to report")
    setup_samples = [r["setup_s"] for r in plain if r["setup_s"] is not None]
    if not setup_samples:
        raise SystemExit(f"error: no run of {name} reached its first unit of work")

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"
          f"{'  tiny' if tiny else ''}")
    print("machine " + json.dumps(machine_facts()))
    print(f"argv: swlme {' '.join(inputs.argv)}")
    if inputs.config:
        print("config: " + ", ".join(f"{k}={v}" for k, v in inputs.config.items()
                                     if k != "output.path"))
    end_to_end = {
        "wall_s": (median_of(plain, "wall_s"), len(plain)),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "peak_rss_mib": (median_of(plain, "peak_rss_mib"), len(plain)),
    }
    for metric, (value, n) in end_to_end.items():
        print(f"  {metric:<18} {value:12.6g} {END_TO_END[metric]:<4} median of {n}")
    print("  wall_s samples: " + " ".join(f"{r['wall_s']:.4f}" for r in plain))
    nspcs = ns_per_cell_step(plain)
    l1 = plain[0].get("l1_error_h")
    print(f"  {'ns_per_cell_step':<18} "
          + (f"{nspcs:12.6g} ns   over {len(plain)} runs" if nspcs else "n/a (no solver run)"))
    print(f"  {'l1_error_h':<18} " + (f"{l1:12.6g} m2   finest mesh" if l1 is not None
                                      else "n/a (converge workload only)"))
    print(f"  {'fail_ratio':<18} {len(failed)}/{len(runs)} = {len(failed) / len(runs):g}")
    print(f"  WaveSpeedBoundWarning: {plain[0]['wave_bound_warnings']} per run "
          "(recorded, not printed)")
    print("  no wait time: the program is single-threaded with no queues")

    if not trace:
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, (v, _) in end_to_end.items()}
    else:
        traced = [r for r in timed if r["traced"]]
        if not traced:
            raise SystemExit(f"error: no traced run of {name} completed; nothing to report")
        per_run = [layer_metrics(r) for r in traced]
        values = {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}
        for key in EXACT_COUNTS:
            seen = {run[key] for run in per_run}
            if len(seen) > 1:
                print(f"  warning: count {key} differs between traced runs: {sorted(seen)}")
        values["ns_per_cell_step"] = nspcs
        values["l1_error_h"] = l1 if l1 is not None else 0.0
        values["trace.overhead_s"] = median_of(traced, "wall_s") - end_to_end["wall_s"][0]
        print(f"  traced runs: {len(traced)}, untraced runs: {len(plain)}, "
              f"overhead {values['trace.overhead_s']:.4g} s")
        units = per_layer_units()
        for key in units:
            print(f"  {key:<48} {values[key]:14.6g} {units[key]}")
        metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    return {"correct": not failed, "attempted": len(runs), "failed": len(failed),
            "metrics": metrics}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in spec()["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a smoke-test size")
    args = parser.parse_args(argv)
    # on SIGTERM unwind like on Ctrl-C: the running child is killed and waited
    # for, and the temporary directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "swlme", "cli.py")):
        print(f"error: no swlme sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    result = report(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
