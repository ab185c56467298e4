"""tclgen benchmark: one CLI task per fresh interpreter, checked every time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the workload's CLI task
is repeated, each time in a new interpreter, until S seconds have passed,
and the medians of the end-to-end metrics are reported.  With ``--trace 1``
each round runs the task three times (untraced, with spans, with resource
accounting) and the per-layer metrics are reported.  Every repetition's
outputs are checked against the benchmark's own reference.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from workloads import (WORKLOADS, CheckFailed, check_outputs,  # noqa: E402
                       digest, reference, write_inputs)

# every run must end within 180 s, children included
RUN_DEADLINE = time.monotonic() + 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "task_s": "s", "peak_rss_mb": "MB",
                    "tcl_error": "1"}
PER_LAYER_UNITS = {
    "cli.self_s": "s", "terms.generate_s": "s", "terms.terms": "count",
    "baths.table_build_s": "s", "baths.kernel_evals": "count",
    "baths.query_s": "s", "baths.query_calls": "count",
    "baths.query_distinct": "count", "baths.query_useful_ratio": "1",
    "superops.system_superops_s": "s", "superops.cluster_self_s": "s",
    "superops.cluster_calls": "count", "superops.cluster_evals": "count",
    "superops.recursion_self_s": "s", "propagate.rk4_self_s": "s",
    "propagate.csv_s": "s", "propagate.steps": "count",
    "oracle.exact_s": "s", "oracle.distance_self_s": "s",
    **{f"{layer}.{name}": unit
       for layer in ("baths", "superops", "oracle")
       for name, unit in (("peak_alloc_mb", "MB"), ("minor_faults", "count"),
                          ("sys_s", "s"))},
    "trace.task_s": "s", "trace.untraced_task_s": "s",
    "trace.overhead_s": "s", "trace.unexplained_s": "s",
}


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("TCLGEN_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(mode, task, config, out_dir, work):
    """One CLI task in a fresh interpreter; returns the child's record."""
    result = work / f"result-{mode}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(result),
           str(work / "spans.json"), "--", task, "--config", str(config),
           "--out", str(out_dir)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, RUN_DEADLINE - time.monotonic()),
                          check=False)
    if proc.returncode != 0 or not result.is_file():
        raise BenchmarkError(f"child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    rec = json.loads(result.read_text())
    if not Path(rec["tclgen_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"tclgen imported from {rec['tclgen_file']}, "
                             f"not from {SRC}")
    if rec["rc"] == 0:
        if rec["t_engine"] is None:
            raise BenchmarkError("the task built no generator engine")
        rec["setup_s"] = rec["t_engine"] - t_spawn
        rec["task_s"] = rec["t_end"] - rec["t_engine"]
        rec["peak_rss_mb"] = rec["maxrss_kb"] / 1024.0
    else:
        print(f"tclgen {task} exited {rec['rc']}: "
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
    return rec


class Session:
    """One benchmark run of one workload: inputs, reference, repetitions."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.work = OUT / wl.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = write_inputs(wl, seed, self.work / "inputs")
        self.ref = reference(wl)
        self.out_dir = self.work / "cli-out"
        self.tcl_traj = None
        if wl.task == "compare":
            # the compare task writes distances only; the TCL trajectory
            # the distance is checked against comes from propagate
            self.tcl_traj = self.work / "tcl-out"
            rec = run_child("plain", "propagate", self.config, self.tcl_traj,
                            self.work)
            if rec["rc"] != 0:
                raise BenchmarkError("propagate for the compare check failed")
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.tcl_errors = []
        self.digests = set()

    def repeat(self, mode):
        """Run and check one repetition; None if the CLI task failed."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        rec = run_child(mode, self.wl.task, self.config, self.out_dir,
                        self.work)
        self.attempted += 1
        if rec["rc"] != 0:
            self.failed += 1
            return None
        try:
            self.tcl_errors.append(check_outputs(self.wl, self.ref,
                                                 self.out_dir, self.tcl_traj))
        except CheckFailed as exc:
            self.errors.append(str(exc))
        self.digests.add(digest(self.out_dir, self.wl))
        return rec

    def report_errors(self):
        """Print every failed check; True when the run is correct."""
        errors = list(self.errors)
        if len(self.digests) > 1:
            errors.append("reproducible: outputs differ between repetitions "
                          "of the same config")
        for err in errors:
            print(f"check failed: {err}", file=sys.stderr)
        return not errors and bool(self.tcl_errors)


def rounds(seconds):
    """Yield once per round, at least once, until less than half the last
    round's length is left before the deadline."""
    deadline = time.monotonic() + seconds
    last = 0.0
    while True:
        start = time.monotonic()
        if last and start + 0.5 * last > deadline:
            return
        yield
        last = time.monotonic() - start


def measure_end_to_end(sess, seconds):
    recs = []
    for _ in rounds(seconds):
        rec = sess.repeat("plain")
        if rec is not None:
            recs.append(rec)
            print(f"  setup {rec['setup_s']:.3f} s  task {rec['task_s']:.3f} s"
                  f"  rss {rec['peak_rss_mb']:.1f} MB", file=sys.stderr)
    if not recs:
        return {}
    metrics = {name: statistics.median(r[name] for r in recs)
               for name in ("setup_s", "task_s", "peak_rss_mb")}
    metrics["tcl_error"] = statistics.median(sess.tcl_errors)
    return metrics


def measure_per_layer(sess, seconds):
    traced = []
    for _ in rounds(seconds):
        plain = sess.repeat("plain")
        spans = sess.repeat("spans")
        res = sess.repeat("resources")
        if None in (plain, spans, res):
            continue
        layers = dict(spans["layers"])
        layers.update(res["layers"])
        layers["trace.task_s"] = spans["task_s"]
        layers["trace.untraced_task_s"] = plain["task_s"]
        layers["trace.overhead_s"] = spans["task_s"] - plain["task_s"]
        traced.append(layers)
    if not traced:
        return {}
    return {name: statistics.median(r[name] for r in traced)
            for name in PER_LAYER_UNITS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tclgen" / "cli.py").is_file():
        print(f"error: no tclgen sources under {SRC}", file=sys.stderr)
        return 2
    try:
        sess = Session(WORKLOADS[args.workload], args.seed)
        if args.trace:
            values, units = (measure_per_layer(sess, args.seconds),
                             PER_LAYER_UNITS)
        else:
            values, units = (measure_end_to_end(sess, args.seconds),
                             END_TO_END_UNITS)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": sess.report_errors(),
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    (sess.work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
