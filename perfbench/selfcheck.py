"""Quick self-check of the benchmark, a few seconds per workload.

    python3 perfbench/selfcheck.py

Runs every workload's CLI task on a tiny grid, untraced and traced, and
checks its outputs.  Then it perturbs each output in turn and shows that
the matching check fails, so that no check is vacuous.  Exits 0 when every
line reads PASS.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

from run import (END_TO_END_UNITS, OUT, PER_LAYER_UNITS, ROOT, SRC,
                 BenchmarkError, run_child)
from tracer import unexplained_time
from workloads import (WORKLOADS, CheckFailed, check_outputs, digest,
                       output_files, read_csv, reference, trace_norm,
                       trajectory_payload, write_inputs)

# Task time that may lie outside every layer: cli.main's own output
# formatting, under a millisecond here, plus a small share of the task.
UNEXPLAINED_FLOOR_S = 0.002
UNEXPLAINED_SHARE = 0.02
TINY_M = {"spinboson-tcl3": 8, "spinboson-tcl4-adjoint": 8,
          "dephasing-gaussian-csv": 20, "wide-bath-compare": 8}


def edit_csv(path, edit):
    """Apply edit(column_index, data) to a CSV of floats, rewrite as %.12e."""
    header, data = read_csv(path)
    edit({name: k for k, name in enumerate(header)}, data)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows([[f"{x:.12e}" for x in row] for row in data])


def add(column, delta):
    def edit(col, data):
        data[:, col[column]] += delta
    return edit


def sync_distance(ref, tcl_dir, out_dir):
    """Rewrite distance.csv and max_error from a (perturbed) TCL trajectory,
    so that only the reference check can notice the perturbation."""
    header, data = read_csv(tcl_dir / "trajectory.csv")
    own = [trace_norm(a - b)
           for a, b in zip(trajectory_payload(header, data), ref.states)]
    edit_csv(out_dir / "distance.csv",
             lambda col, d: d.__setitem__((slice(None), 1), own))
    summary = json.loads((out_dir / "summary.json").read_text())
    summary["max_error"] = max(own)
    (out_dir / "summary.json").write_text(json.dumps(summary))


def largest_task_call(spans, t_engine):
    """The longest call cli.main makes in the task window, and the indices
    of it and every span below it."""
    top = max((idx for idx, (_, start, end, parent) in enumerate(spans)
               if parent >= 0 and spans[parent][0] == "cli.main"
               and end > t_engine),
              key=lambda idx: spans[idx][2] - spans[idx][1])
    hidden = {top}
    for idx in range(top + 1, len(spans)):
        if spans[idx][3] in hidden:
            hidden.add(idx)
    return top, frozenset(hidden)


def perturbations(wl, ref):
    """(expected failing check, file, what, edit) for one workload."""
    big = 3 * ref.tol
    times = ("files", "t column scaled by 1.5",
             lambda col, d: d.__setitem__((slice(None), 0), d[:, 0] * 1.5))
    if wl.task == "compare":
        return [
            ("distance", "distance.csv", "trace_distance + 1e-6",
             add("trace_distance", 1e-6)),
            (times[0], "distance.csv", *times[1:]),
            ("hermiticity", "tcl:trajectory.csv", "herm_residual + 1e-6",
             add("herm_residual", 1e-6)),
            ("trace", "tcl:trajectory.csv", "re_0_0 + 1e-6",
             add("re_0_0", 1e-6)),
            ("reference", "tcl+sync:trajectory.csv",
             "re_0_1 + 3 tol, distances rewritten to match",
             add("re_0_1", big)),
        ]
    out = [
        (times[0], "trajectory.csv", *times[1:]),
        ("hermiticity", "trajectory.csv", "im_0_0 + 1e-6",
         add("im_0_0", 1e-6)),
    ]
    if wl.adjoint:
        out.append(("reference", "trajectory.csv", "O(t) + 3 tol * identity",
                    lambda col, d: (add("re_0_0", big)(col, d),
                                    add("re_1_1", big)(col, d))))
        return out
    out.append(("trace", "trajectory.csv", "trace_dev + 1e-6",
                add("trace_dev", 1e-6)))
    out.append(("trace", "trajectory.csv", "re_0_0 + 1e-6",
                add("re_0_0", 1e-6)))
    if ref.coherence is not None:
        out.append(("populations", "trajectory.csv",
                    "re_0_0 + 1e-6, re_1_1 - 1e-6",
                    lambda col, d: (add("re_0_0", 1e-6)(col, d),
                                    add("re_1_1", -1e-6)(col, d))))
    out.append(("reference", "trajectory.csv", "re_0_1 + 3 tol",
                add("re_0_1", big)))
    return out


def main():
    failures = 0

    def report(ok, text):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {text}", flush=True)

    if not (SRC / "tclgen" / "cli.py").is_file():
        print(f"error: no tclgen sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report([w["name"] for w in spec["workloads"]] == list(WORKLOADS)
           and {m["name"]: m["unit"] for m in spec["end_to_end"]}
           == END_TO_END_UNITS
           and {m["name"]: m["unit"] for m in spec["per_layer"]}
           == PER_LAYER_UNITS,
           "BENCHMARK.json lists the workloads and metrics run.py reports")
    for name, wl in WORKLOADS.items():
        M = TINY_M[name]
        work = OUT / "selfcheck" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = write_inputs(wl, 0, work / "inputs", M)
        ref = reference(wl, M)
        out_dir, tcl_dir = work / "cli-out", None
        try:
            if wl.task == "compare":
                tcl_dir = work / "tcl-out"
                run_child("plain", "propagate", config, tcl_dir, work)
            rec = run_child("plain", wl.task, config, out_dir, work)
            spans = run_child("spans", wl.task, config, work / "traced", work)
        except BenchmarkError as exc:
            report(False, f"{name}: {exc}")
            continue
        err = check_outputs(wl, ref, out_dir, tcl_dir)
        report(rec["rc"] == 0 and err <= ref.tol,
               f"{name} M={M}: tcl_error {err:.3e} <= tol {ref.tol:.3e}, "
               f"task {rec['task_s']:.2f} s")
        unexplained = spans["layers"]["trace.unexplained_s"]
        limit = UNEXPLAINED_FLOOR_S + UNEXPLAINED_SHARE * spans["task_s"]
        report(unexplained <= limit
               and digest(work / "traced", wl) == digest(out_dir, wl),
               f"{name}: traced output identical; {unexplained * 1e3:.2f} ms "
               f"of the {spans['task_s']:.3f} s task outside every layer "
               f"(limit {limit * 1e3:.2f} ms, tracing overhead "
               f"{spans['task_s'] - rec['task_s']:+.3f} s)")
        span_list = json.loads((work / "spans.json").read_text())
        top, hidden = largest_task_call(span_list, spans["t_engine"])
        moved = unexplained_time(span_list, spans["t_engine"], spans["t_end"],
                                 hidden)
        report(moved > limit, f"{name}: with {span_list[top][0]} and its "
               f"callees untraced, {moved:.3f} s is unexplained (> limit)")
        for check, target, what, edit in perturbations(wl, ref):
            bad_out = work / "bad-out"
            bad_tcl = work / "bad-tcl"
            for src, dst in ((out_dir, bad_out), (tcl_dir, bad_tcl)):
                shutil.rmtree(dst, ignore_errors=True)
                if src is not None:
                    shutil.copytree(src, dst)
            where, fname = target.split(":") if ":" in target else ("", target)
            edit_csv((bad_tcl if where.startswith("tcl") else bad_out)
                     / fname, edit)
            if where == "tcl+sync":
                sync_distance(ref, bad_tcl, bad_out)
            try:
                check_outputs(wl, ref, bad_out, bad_tcl if tcl_dir else None)
                caught = None
            except CheckFailed as exc:
                caught = exc.check
            report(caught == check, f"{name}: {target} {what} "
                   f"-> check '{caught}' fails (expected '{check}')")
        changed = digest(out_dir, wl)
        first = out_dir / output_files(wl)[0]
        first.write_bytes(first.read_bytes() + b"\n")
        report(digest(out_dir, wl) != changed,
               f"{name}: one extra byte changes the output digest")
    print("self-check", "passed" if failures == 0 else f"FAILED ({failures})")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
