"""posetres benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {resolve-k6,hcw-corpus,verify-paper}
        [--seed N] [--corpus-seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports posetres from src/.  Each
workload runs in single-threaded worker processes (worker.py), one at a
time.

With --trace 0 it prints every end-to-end metric.  WORKERS processes in turn
each set up and then measure for an equal share of --seconds.  Times are in
reference seconds (refclock.py): wall time rescaled by probes taken every
25 ms, so that the machine's own swings in speed cancel out.  setup_s is the
median over the processes of the time from process start to ready: the
interpreter's start in wall seconds, then import, inputs and the untimed
warm-up (one item, or for resolve-k6 a smaller ideal over each field) in
reference seconds.  An item's latency is its median over
the passes of all the processes; every other metric but peak_rss_mb is
taken over those per-item latencies.  The wall-clock figures are printed
alongside.

With --trace 1 one process runs untraced and traced passes in turn and the
command prints the per-layer metrics instead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every item ran
and passed its output check.
"""

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
DEADLINE_S = 170
# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


class WorkerError(Exception):
    pass


def _lines(proc, deadline):
    """Lines of the worker's stdout, giving up at the deadline."""
    fd = proc.stdout.fileno()
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError("worker exceeded the time limit")
            if not sel.select(remaining):
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                yield line.decode()
    if buf:
        yield buf.decode()


def run_worker(args, seconds, deadline):
    """Start one worker and wait for it.  Returns (wall seconds from its
    start to READY, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--corpus-seed", str(args.corpus_seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    # A fixed hash seed makes set iteration order, and so the work done,
    # the same in every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env)
    ready = result = None
    try:
        for line in _lines(proc, deadline):
            if line == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, file=sys.stderr)
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker exceeded the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or result is None:
        raise WorkerError(f"worker failed with exit code {code}")
    return ready, result


def tail(seconds):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    s = sorted(seconds)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes):
    """Latency and throughput metrics over per-item latencies, each the
    median of the item's runs in all passes, in reference seconds; and the
    items per wall second, for the notes."""
    med = statistics.median
    runs, walls, field = {}, {}, {}
    for recs in passes:
        for item_id, p, ref_s, wall_s, _ok in recs:
            runs.setdefault(item_id, []).append(ref_s)
            walls.setdefault(item_id, []).append(wall_s)
            field[item_id] = p
    lat = {item_id: med(v) for item_id, v in runs.items()}
    wall_rate = len(walls) / sum(med(v) for v in walls.values())
    tail_s, pct = tail(lat.values())
    out = {
        "items_per_s": len(lat) / sum(lat.values()),
        "item_p50_ms": med(lat.values()) * 1e3,
        "item_tail_ms": tail_s * 1e3,
    }
    for p, name in workloads.FIELD_NAMES.items():
        out[f"field_s.{name}"] = sum(v for i, v in lat.items()
                                     if field[i] == p)
    n = len(lat)
    beyond = (f"{TAIL_BEYOND} items beyond it" if n > TAIL_BEYOND else
              f"the maximum: a pass has fewer than {TAIL_BEYOND + 1} items")
    note = (f"item latency is the median over {len(passes)} passes of each of"
            f" {n} items; item_tail_ms is p{pct:.2f} ({beyond}); in wall "
            f"time items_per_s is {wall_rate:.6g}")
    return out, note


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the hcw-corpus items in each pass (0 keeps "
                         "the corpus order); the other workloads have fixed "
                         "inputs")
    ap.add_argument("--corpus-seed", type=int,
                    default=workloads.DEFAULT_CORPUS_SEED,
                    help="draws the hcw-corpus ideals")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Unwind on SIGTERM too, so that run_worker stops its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    workers = 1 if args.trace else WORKERS
    try:
        runs = [run_worker(args, args.seconds / workers, deadline)
                for _ in range(workers)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = [result for _, result in runs]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        metrics, notes = results[0]["metrics"], results[0]["notes"]
    else:
        # The interpreter's start, before the worker's probes begin, stays
        # in wall seconds.
        setups = [ready - r["setup"]["wall_s"] + r["setup"]["ref_s"]
                  for ready, r in runs]
        wall_setups = [ready for ready, _ in runs]
        metrics, note = end_to_end([p for r in results for p in r["passes"]])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
        notes = [note, f"setup_s is the median of {len(setups)} start-ups: "
                 + ", ".join(f"{s:.3f}" for s in setups) + "; in wall time "
                 + ", ".join(f"{s:.3f}" for s in wall_setups),
                 "probes taken: " + ", ".join(str(r["probes"])
                                              for r in results)]
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        print("error: measured metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in declared}
    for note in notes:
        print(note)
    for name, m in out.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
