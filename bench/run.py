"""polyinj benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload oracle-deep --seed 1 --seconds 30 --trace 0

Run from the repository root; stdlib only, nothing to build.  Workloads:

  oracle-deep  cold ``classify --check --format json``, degrees 40..160
  closed-bulk  cold closed-form ``classify``, degrees 1e4..1e15, text or json
  selfcheck    cold ``selfcheck --deg-max 40`` (ignores the seed)

Each run starts a fresh interpreter for the workload (``bench/worker.py``)
and, untraced, a few more that only set up, for ``setup_s``.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones, from spans recorded around the calls into
each package module.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Every figure is cold: each
op starts with every memo table empty, as in a new process.  Exits 1 without
a result if the program cannot be run, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
SETUP_PROBES = 7       # extra interpreters that only set up; with the worker, 8 samples
RUN_DEADLINE_S = 170   # the whole run ends within this, or fails without a result


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_sha():
    """HEAD of the checkout, read without running git; 'unknown' outside a
    git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_worker(args, extra, deadline):
    """Run the worker in a fresh interpreter; return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    t_spawn = monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(t_spawn)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t_spawn))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description="polyinj benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "polyinj", "__init__.py")):
        sys.stderr.write("bench: no polyinj sources under %s/src; nothing to run\n" % ROOT)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    load_at_start = os.getloadavg()

    try:
        setups = []
        extra = []
        if args.trace:
            extra = ["--trace", "--spans-out", os.path.join(
                ROOT, ".bench_out", "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
        else:
            for _ in range(SETUP_PROBES):
                setups.append(spawn_worker(args, ["--setup-only"], deadline)["setup_s"])
        result = spawn_worker(args, extra, deadline)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    setups.append(result["setup_s"])

    produced = dict(result["layer"]) if args.trace else dict(result["e2e"], setup_s=statistics.median(setups))
    metrics = {}
    for m in wanted:
        if m["name"] not in produced:
            sys.stderr.write("bench: %s not produced by this version; reported as 0\n" % m["name"])
        metrics[m["name"]] = {"value": produced.get(m["name"], 0), "unit": m["unit"]}

    attempted, failed = result["attempted"], result["failed"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": result["python"], "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "state": "cold: every memo table emptied before each op; setup_s from fresh interpreters",
    }
    print("meta: " + json.dumps(meta))
    print("memo tables (cleared before every op): " + ", ".join(result["tables"]))
    print("inputs: " + json.dumps(result["inputs"]))
    print("stdout sha256 over the first %d ops: %s" % (result["digest_ops"], result["digest"]))
    print("ops: %d attempted in %d blocks, %.2f s wall; %d failed, fail_ratio %s [cold]"
          % (attempted, result["blocks"], result["wall_s"], failed, fmt(failed / attempted)))
    for failure in result["failures"]:
        print("failed op: " + json.dumps(failure))
    if not args.trace:
        print("setup_s samples: " + " ".join(fmt(s) for s in setups))
        print("latency samples: %d, beyond p90: %d" % (attempted, result["beyond_p90"]))
    else:
        print("spans: %(recorded)d recorded, %(dropped)d beyond the cap; "
              "aggregates cover all" % result["spans"])
        if result["missing"]:
            print("not in this version, counted as 0: " + ", ".join(result["missing"]))
        print_predictions(args.workload, produced)
    for name, m in metrics.items():
        print("%-48s %14s %s [cold]" % (name, fmt(m["value"]), m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_predictions(workload, layer):
    """The traced run checks what each workload was chosen to show."""
    if workload == "closed-bulk":
        calls = (layer["schur.schur_character.calls"], layer["characters.peel_into_basis.calls"])
        print("prediction (closed forms bypass the oracle layers): schur_character %d calls, "
              "peel_into_basis %d calls: %s" % (calls + ("holds" if calls == (0, 0) else "FAILS",)))
    elif workload == "oracle-deep":
        share = layer["oracle_layers.share"]
        print("prediction (schur + characters + gl2 oracle self time is most of op time): "
              "share %.3f: %s" % (share, "holds" if share > 0.5 else "FAILS"))
    else:
        print("checks.eadic-roundtrip.self_s = %s s" % fmt(layer.get("checks.eadic-roundtrip.self_s", 0)))


if __name__ == "__main__":
    sys.exit(main())
