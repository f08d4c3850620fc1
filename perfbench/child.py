"""One benchmark sample, run in a fresh interpreter by ``run.py``.

It imports ttolab and parses the workload config (the set-up), then runs the
workload's subcommands back to back through ``ttolab.cli.main`` and writes a
JSON report: set-up time measured from the parent's spawn time, wall time
per subcommand and for the whole sweep, exit codes, peak RSS and, with
``--trace``, the recorded spans and work counters.  With an empty
``--commands`` it stops after the set-up.
"""

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--commands", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import ttolab.cli as cli
    cli.parse_config(args.config, {"sequence": {"seed": args.seed}})
    report = {"setup_s": time.monotonic() - args.spawned_at}

    commands = [cmd for cmd in args.commands.split(",") if cmd]
    if commands:
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        command_s, exit_codes = {}, {}
        sweep_start = time.perf_counter()
        for cmd in commands:
            start = time.perf_counter()
            try:
                rc = cli.main([cmd, "--config", args.config, "--out", f"{args.out}/{cmd}",
                               "--seed", args.seed])
            except Exception:
                traceback.print_exc()
                rc = -1
            command_s[cmd] = time.perf_counter() - start
            exit_codes[cmd] = rc
        report["sweep_s"] = time.perf_counter() - sweep_start
        report["command_s"] = command_s
        report["exit_codes"] = exit_codes
        if tracer is not None:
            report["spans"] = tracer.spans
            report["counters"] = tracer.counters

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
