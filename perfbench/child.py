"""Run one tclgen CLI task in this (fresh) interpreter and time it.

    python3 child.py MODE RESULT_JSON SPANS_JSON -- <tclgen cli arguments>

MODE is ``plain`` (untraced), ``spans`` (spans and counters) or
``resources`` (page faults, system time and tracemalloc peaks per layer).
The engine-built time splits set-up from the task: it is taken when the
first ``GeneratorEngine`` finishes construction.  Times use the system-wide
monotonic clock, so the parent can measure set-up from before the spawn.
An exception out of ``cli.main`` is printed and recorded as exit code 1, so
that the parent counts the repetition as failed.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main():
    mode, result_path, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "spans", "resources"):
        raise SystemExit("usage: child.py MODE RESULT SPANS -- CLI-ARGS")
    import tclgen
    from tclgen import cli, superops

    tracer = None
    if mode != "plain":
        from tracer import Tracer
        tracer = Tracer(resources=mode == "resources")
        tracer.install()
    engine_built = []
    init = superops.GeneratorEngine.__init__

    def timed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not engine_built:
            engine_built.append(time.monotonic())

    superops.GeneratorEngine.__init__ = timed_init
    if mode == "resources":
        import tracemalloc
        tracemalloc.start()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            rc = cli.main(cli_args)
        except Exception:  # a crash of the program is a failed repetition
            traceback.print_exc()
            rc = 1
    t_end = time.monotonic()

    result = {
        "rc": rc,
        "tclgen_file": tclgen.__file__,
        "t_engine": engine_built[0] if engine_built else None,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None and engine_built:
        if mode == "spans":
            result["layers"] = tracer.metrics(engine_built[0], t_end)
            with open(spans_path, "w") as fh:
                json.dump(tracer.spans, fh)
        else:
            result["layers"] = tracer.resource_metrics()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
