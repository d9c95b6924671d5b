"""One workload process: set up, print READY, then run whole passes for
about --seconds, check every output, and print ``RESULT <json>``.  run.py
starts it; it runs in a single thread.

Untraced (--trace 0): every pass is untraced, and the result holds the
per-item latencies of every pass and the set-up time, in wall seconds and in
reference seconds (refclock.py): a probe runs from the first statement of
main() to the end.  Traced (--trace 1): passes come in pairs on the same
inputs, one untraced and one traced; the result holds the per-layer
metrics, with counts from the first traced pass and times the medians over
traced passes.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback

import refclock
import tracer as tracing
import workloads


def run_pass(items, tracer=None):
    """Run the items in order, timing each.  Returns one
    [item, start, end, output, error] row per item."""
    rows = []
    for it in items:
        if tracer is not None:
            tracer.item = it.id
        start = time.perf_counter()
        try:
            out, err = it.run(), None
        except Exception:
            out, err = None, traceback.format_exc()
        rows.append([it, start, time.perf_counter(), out, err])
    return rows


def check_pass(rows):
    """Check every output; returns (records, failures).  A record is
    (item id, field characteristic, start, end, ok)."""
    records, failures = [], []
    for it, start, end, out, err in rows:
        reason = err
        if reason is None:
            try:
                reason = it.check(out)
            except Exception:
                reason = traceback.format_exc()
        if reason is not None:
            failures.append(f"{it.id}: {reason}")
        records.append((it.id, it.p, start, end, reason is None))
    return records, failures


# Per-layer metrics reported from the traced passes.
CALLS = ("exactla.rank", "exactla.kernel_basis", "exactla.solve",
         "gradedcomplex.is_resolution", "conic.conic_complex",
         "posets.reduced_homology", "hcw.hcwify", "hcw.fill_cavity",
         "monomials.join_closure")
SELF = ("exactla.rank", "exactla.kernel_basis", "exactla.solve",
        "gradedcomplex.taylor_complex", "gradedcomplex.minimize",
        "gradedcomplex.is_resolution", "incidence.conic_iso_check",
        "incidence.verify_mfr_support", "rigidity.check_rigid_iff_hcw",
        "conic.conic_complex", "conic.supports_resolution",
        "posets.reduced_homology", "hcw.hcwify", "hcw.fill_cavity",
        "minsupport.make_minimal_support_basis", "incidence.incidence_poset",
        "monomials.join_closure", "cli.main")
COUNTS = ("exactla.cells", "gradedcomplex.taylor_rank",
          "gradedcomplex.is_resolution.strands", "posets.order_complex.faces",
          "minsupport.replacements", "incidence.poset_elements",
          "hcw.added_relations")


def wall(records):
    return sum(end - start for _, _, start, end, _ in records)


def per_layer(pairs):
    """pairs: list of (untraced records, traced records, tracer summary)."""
    med = statistics.median
    first = pairs[0][2]
    counts, calls = first["counts"], first["calls"]
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls[name]
    for name in SELF:
        out[f"{name}.self_s"] = med(s["self_s"][name] for _, _, s in pairs)
    for key in ("q", "gf2", "gfp"):
        out[f"exactla.self_s.{key}"] = med(s["field_self_s"][key]
                                           for _, _, s in pairs)
    for name in COUNTS:
        out[name] = counts[name]
    rank_in = counts["gradedcomplex.minimize.rank_in"]
    out["gradedcomplex.minimize.kept_ratio"] = (
        counts["gradedcomplex.minimize.rank_out"] / rank_in if rank_in else 0)
    hcwify = calls["hcw.hcwify"]
    out["hcw.conic_per_hcwify"] = (counts["conic_in_hcwify"] / hcwify
                                   if hcwify else 0)
    out["trace.coverage"] = med(s["top_level_s"] / wall(t)
                                for _, t, s in pairs)
    out["trace.overhead"] = med(wall(t) / wall(u) for u, t, _ in pairs)
    notes = [f"per-layer counts are per pass; times are medians over "
             f"{len(pairs)} traced passes"]
    per_item = first["per_item"]
    if len(per_item) <= 10:
        calls_by_item = ", ".join(
            f"{item}={c['conic.conic_complex.calls']}"
            for item, c in per_item.items() if item is not None)
        notes.append(f"conic.conic_complex.calls per item: {calls_by_item}")
    return out, notes


def write_trace(path, workload, seed, spans, pairs):
    """Spans of the first traced pass and the summaries of all of them."""
    doc = {
        "workload": workload, "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "item", "tag"],
        "spans": spans,
        "passes": [{"calls": s["calls"], "self_s": s["self_s"],
                    "counts": s["counts"],
                    "per_item": {str(k): v for k, v in s["per_item"].items()}}
                   for _, _, s in pairs],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def measure(wl, seconds, traced):
    """Run whole passes (or untraced/traced pairs) until about `seconds`
    have passed: stop once another one would end more than half a pass
    late.  Returns (passes, pairs, failures, first traced spans)."""
    tracer = tracing.Tracer() if traced else None
    passes, pairs, failures = [], [], []
    spans = None
    start = time.perf_counter()
    k = 0
    while True:
        items = wl.items(k)
        gc.collect()
        recs, bad = check_pass(run_pass(items))
        passes.append(recs)
        failures += bad
        if traced:
            gc.collect()
            tracer.reset()
            missing = tracer.install()
            if missing and k == 0:
                print("not traced (missing): " + ", ".join(missing),
                      file=sys.stderr)
            try:
                rows = run_pass(items, tracer)
            finally:
                tracer.uninstall()
            recs_t, bad = check_pass(rows)
            passes.append(recs_t)
            failures += bad
            pairs.append((recs, recs_t, tracer.summary()))
            if spans is None:
                spans = tracer.spans
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / k >= seconds:
            return passes, pairs, failures, spans


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--corpus-seed", type=int,
                    default=workloads.DEFAULT_CORPUS_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    probe = None if args.trace else refclock.Probe()
    if probe is not None:
        probe.start()
    begin = time.perf_counter()
    try:
        try:
            pr = workloads.import_posetres()
            wl = workloads.WORKLOADS[args.workload](
                pr, workloads.import_oracle(), workloads.load_goldens(),
                args.seed, args.corpus_seed)
        except workloads.SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        run_pass(wl.warmup())
        ready = time.perf_counter()
        print("READY", flush=True)
        passes, pairs, failures, spans = measure(wl, args.seconds,
                                                 args.trace)
    finally:
        if probe is not None:
            probe.stop()
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    result = {"attempted": sum(len(p) for p in passes),
              "failed": len(failures),
              "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)}
    if args.trace:
        result["metrics"], result["notes"] = per_layer(pairs)
        workloads.OUT.mkdir(exist_ok=True)
        path = workloads.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, args.workload, args.seed, spans, pairs)
        result["notes"].append(
            f"trace written to {path.relative_to(workloads.ROOT)}")
    else:
        ref = refclock.Timeline(probe.log).seconds
        result["setup"] = {"wall_s": ready - begin,
                           "ref_s": ref(begin, ready)}
        result["passes"] = [[(i, p, ref(a, b), b - a, ok)
                             for i, p, a, b, ok in recs] for recs in passes]
        result["probes"] = len(probe.log)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
