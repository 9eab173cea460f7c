"""Benchmark of confhom: exact homology of graph configuration spaces.

    python3 perfbench/run.py --workload halfedge-compute --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload (see BENCHMARK.json and perfbench/README.md) is measured in
fresh worker processes, one pass each, one at a time, for --seconds seconds
of passes.  After one warm-up, SETUP_SAMPLES set-up-only workers before each
pass time the start-up.  Each pass gets its own inputs, made from the seed
and the pass number.  With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json as medians over its untraced passes; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.  Every case's result is compared with its exact
reference; the last line of standard output is a JSON object with
"correct", "attempted", "failed" and "metrics".  A result file with the
samples, the git SHA, the Python version, nproc, the seed and (traced) the
spans goes to perfbench/results/.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("halfedge-compute", "class-span", "small-sweep")
SETUP_SAMPLES = 2
RUN_LIMIT_S = 175  # a run exits within 180 s


class WorkerFailed(RuntimeError):
    pass


def spawn(workload, seed, pass_no, traced, deadline, setup_only=False):
    """Start one worker on the inputs of pass `pass_no`, wait for it, and
    return its report."""
    cmd = [sys.executable, WORKER, workload, str(seed), str(pass_no),
           str(int(traced))]
    t0 = time.monotonic()
    cmd.append(repr(t0))
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} worker exceeded the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if report.get("failures"):
        sys.stderr.write(proc.stderr)
    return report


def measure(workload, seed, seconds, trace):
    """Passes until `seconds` have elapsed, each after SETUP_SAMPLES
    set-up-only workers, so that set-up is sampled all through the run.
    Untraced pass i gets the inputs of pass i; with tracing, untraced and
    traced passes alternate, at least one of each, and traced pass i gets
    the same inputs as untraced pass i."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spawn(workload, seed, 0, False, deadline, setup_only=True)  # warm-up
    setups, plain, traced = [], [], []
    start = time.monotonic()
    while time.monotonic() - start < seconds or (trace and not traced):
        setups += [spawn(workload, seed, len(plain), False, deadline,
                         setup_only=True)["setup_s"]
                   for _ in range(SETUP_SAMPLES)]
        if trace and len(plain) > len(traced):
            traced.append(spawn(workload, seed, len(traced), True, deadline))
        else:
            plain.append(spawn(workload, seed, len(plain), False, deadline))
            setups.append(plain[-1]["setup_s"])
    return setups, plain, traced


def summarize(workload, seed, seconds, trace, spec):
    setups, plain, traced = measure(workload, seed, seconds, trace)
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    values = {"wall_s": wall, "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
    if trace:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(p["layers"][name] for p in traced)
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"{workload} seed={seed}: wall_s {wall:.3f} s | setup_s "
          f"{values['setup_s']:.4f} s | peak_rss_mb {values['peak_rss_mb']:.1f}"
          f" MB | fail_frac {len(failures) / attempted:g} ({len(failures)} of "
          f"{attempted} cases) | {len(plain)} untraced, {len(traced)} traced "
          f"passes")
    if trace:
        print_layers(traced, values)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "setup_s": setups,
        "wall_s": {"untraced": [p["wall_s"] for p in plain],
                   "traced": [p["wall_s"] for p in traced]},
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "attempted": attempted, "failures": failures, "metrics": metrics}
    if trace:
        record["layers"] = [p["table"] for p in traced]
        record["spans"] = traced[0]["spans"]
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    return attempted, len(failures), metrics


def print_layers(traced, values):
    """Median self time of every span name over the traced passes, and the
    counters of the first traced pass."""
    names = sorted({n for p in traced for n in p["table"]["self_s"]})
    print(f"  {'span':34} {'self_s':>10} {'spans':>7}")
    for name in names:
        rows = [p["table"]["self_s"].get(name, (0.0, 0)) for p in traced]
        print(f"  {name:34} {statistics.median(r[0] for r in rows):10.4f} "
              f"{rows[0][1]:7d}")
    for name, value in sorted(traced[0]["table"]["counts"].items()):
        print(f"  {name:34} {value:10d}")
    print(f"  traced wall {values['trace.wall_s']:.3f} s, untraced "
          f"{values['wall_s']:.3f} s, overhead {values['trace.overhead_s']:.4f}"
          f" s, unattributed {values['trace.unattributed_s']:.4f} s")


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "confhom", "__init__.py")):
        sys.exit(f"confhom source tree not found under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    attempted = failed = 0
    metrics = {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for w in workloads:
            a, fl, m = summarize(w, args.seed, args.seconds, bool(args.trace),
                                 spec)
            attempted += a
            failed += fl
            metrics.update(m if len(workloads) == 1 else
                           {f"{w}.{k}": v for k, v in m.items()})
    except WorkerFailed as exc:
        sys.exit(str(exc))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
