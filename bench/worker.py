"""Run one workload in this (fresh) interpreter and print one JSON line.

The op loop is a closed loop with one client: one CLI command at a time,
each through ``polyinj.cli.main`` in this process, with every memo table
emptied before the op so it starts as cold as a new process.  The loop runs
whole blocks of ops until ``--seconds`` have passed and the workload's
minimum number of ops is reached.  ``bench/run.py`` starts this script; it
can also be run by hand:

    python3 bench/worker.py --workload closed-bulk --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARD_CAP_S = 140.0  # stop starting blocks after this, whatever the minimum
MAX_REPORTED_FAILURES = 5


def monotonic():
    # CLOCK_MONOTONIC is shared by all processes, so the parent's spawn time
    # and this process's clock can be subtracted
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true", help="record per-layer spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first op would start and report set-up time")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="CLOCK_MONOTONIC reading taken by the parent just before spawning")
    ap.add_argument("--spans-out", default=None, help="write the traced spans here (JSON lines)")
    return ap.parse_args(argv)


def percentile90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def main(argv=None):
    args = parse_args(argv)
    t_spawn = args.spawned_at if args.spawned_at is not None else monotonic()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import polyinj
    from polyinj import cli

    import layers
    from workloads import WORKLOADS, input_properties

    workload = WORKLOADS[args.workload]
    blocks = workload.blocks(args.seed)
    modules = layers.package_modules(polyinj)
    tables = layers.MemoTables(modules)
    setup_s = monotonic() - t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run_cli = cli.main
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install(modules, tables)
        run_cli = tracer.wrap("cli.main", cli.main)

    latencies, failures, ran = [], [], []
    items = failed = 0
    digest = hashlib.sha256()
    t_start = monotonic()
    n_blocks = 0
    while True:
        for op in blocks[n_blocks % len(blocks)]:
            tables.clear(record=tracer is not None)
            if tracer is not None:
                tracer.op = len(latencies)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = run_cli(list(op.argv), out=out)
                except Exception as exc:  # a crashing op is a failed op, not a crashed run
                    rc = "%s: %s" % (type(exc).__name__, exc)
                t1 = time.perf_counter()
            latencies.append(t1 - t0)
            ran.append(op)
            stdout = out.getvalue()
            if len(latencies) <= workload.min_ops:
                digest.update(stdout.encode())
            n_items, problem = workload.check(op, rc, stdout)
            items += n_items
            if problem is not None:
                failed += 1
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append({"argv": list(op.argv), "problem": problem,
                                     "stderr": err.getvalue()[-500:]})
        n_blocks += 1
        elapsed = monotonic() - t_start
        if elapsed >= HARD_CAP_S or (elapsed >= args.seconds and len(latencies) >= workload.min_ops):
            break
    tables.clear(record=tracer is not None)
    wall_s = monotonic() - t_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_time_s = sum(latencies)
    e2e = {
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": percentile90(latencies),
        "items_per_s": items / op_time_s,
        "peak_rss_mib": peak_rss_mib,
    }
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "attempted": len(latencies),
        "failed": failed,
        "items": items,
        "blocks": n_blocks,
        "wall_s": wall_s,
        "beyond_p90": sum(1 for x in latencies if x > e2e["op_p90_s"]),
        "failures": failures,
        "digest": digest.hexdigest(),
        "digest_ops": min(len(latencies), workload.min_ops),
        "setup_s": setup_s,
        "e2e": e2e,
        "tables": sorted(tables.tables),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layer"] = tracer.metrics(tables, op_time_s)
        result["layer"].update({"traced." + k: v for k, v in e2e.items()})
        result["missing"] = tracer.missing
        result["spans"] = {"recorded": sum(1 for s in tracer.spans if s is not None),
                           "dropped": tracer.spans_dropped}
        if args.spans_out:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans_out)), exist_ok=True)
            tracer.write_spans(args.spans_out)
    result["inputs"] = input_properties(ran, polyinj)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
