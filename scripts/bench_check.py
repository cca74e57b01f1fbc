#!/usr/bin/env python3
"""Benchmark regression gate for BENCH_results.json documents.

Diffs a fresh sweep result (bench/sweep --json, or any fig*/abl_*
binary run with REPRO_JSON set) against a committed baseline, and
merges the documents of several sweep processes into one:

    bench_check.py BASELINE FRESH [--threshold 0.25] [--min-time 0.002]
    bench_check.py --merge OUT FIRST [MORE ...]
    bench_check.py --self-test

Failure conditions (exit 1):
  * schema mismatch, or baseline and fresh were produced with different
    scale / reps / thread settings or from different process counts
    (records are not comparable);
  * a (app, executor, threads) record of the baseline is missing from
    the fresh result;
  * any deterministic-executor digest differs — determinism makes this
    an exact, noise-free check: same input => same schedule => same
    digest, on every machine and thread count;
  * an atomic_ops regression: per (app, executor, threads) record,
    fresh atomic_ops may not exceed max(baseline * (1 + atomics
    threshold), --min-ops). The floor keeps a zero-ops deterministic
    baseline gateable (the batched mark protocol performs no atomic
    RMWs) without tripping over trivial counts; the generous default
    ratio (+50%) absorbs the speculative executor's timing-dependent
    CAS jitter;
  * a timing regression beyond the threshold (default +25%), measured
    on min_s when both documents carry it, falling back to median_s.

Multi-process documents. The min over reps is stable inside one sweep
process but can swing by 2x between processes of the same binary on a
VM, so one process is not a sample of the program's speed. --merge
combines the documents of several processes of one build: the first
must hold every record (the full thread list), the others a subset
(bench_gate.sh adds t=1-only sweeps). Per record, the merged document
carries
  * min_s_samples: each process's min_s, in input order;
  * min_s and median_s: the median over processes of each process's
    min_s and median_s — so the timing gate compares medians over
    processes of per-process minima;
  * every other field (digest, rounds, phases, ...) from the first
    document;
and at top level `processes`, the number of merged documents (absent
means 1), and `host`, the logical CPUs and CPU model of the machine
that merged them. The schedule fields of every deterministic record
must agree across processes, or the merge is refused.

Timing noise and machine-speed differences are absorbed in two ways:
records whose baseline min_s (the timing the gate compares) is below
--min-time are skipped as too small to time reliably, and per-record
ratios are normalized by the median ratio over all records — a
uniformly slower machine shifts every ratio by the same factor, which
the normalization cancels, while a genuine regression moves only its
own record. (With a majority of regressing records the normalization
is conservative; the digest check is unaffected.) A failing record
prints its per-process samples from both documents, and the host of
each document is printed, so a failure shows whether it is noise.

Rounds and generations of deterministic records are also compared
exactly: they are schedule properties, not timings.
"""

import argparse
import copy
import json
import os
import statistics
import sys
import tempfile

SCHEMA = "detgalois-bench/1"
# Executors whose schedule digest is an exact, noise-free gate. "detres"
# (reservation-prefix DIG) is portable across thread counts like "det";
# "coredet" is reproducible per (threads, quantum, rotation), and since
# records are keyed by thread count its digest is exactly comparable too.
DET_EXECUTORS = {"det", "det-nocont", "det-ref", "detres", "coredet"}


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise SystemExit(
            f"{path}: schema {doc.get('schema')!r} != {SCHEMA!r}")
    return doc


def write(doc, path):
    """Write doc in bench/sweep's layout: one record per line."""
    records = ",\n".join("    " + json.dumps(r, separators=(",", ":"))
                         for r in doc["records"])
    with open(path, "w", encoding="utf-8") as f:
        f.write("{\n")
        for field, value in doc.items():
            if field != "records":
                f.write(f"  {json.dumps(field)}: {json.dumps(value)},\n")
        f.write(f'  "records": [\n{records}\n  ]\n}}\n')


def key(rec):
    return (rec["app"], rec["executor"], rec["threads"])


def label(k):
    return "/".join(map(str, k))


def by_key(doc, path):
    out = {}
    for rec in doc["records"]:
        k = key(rec)
        if k in out:
            raise SystemExit(f"{path}: duplicate record {k}")
        out[k] = rec
    return out


def host():
    """Logical CPUs this process may run on, and the CPU model."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {"logical_cpus": cpus, "cpu_model": model}


def describe_host(doc):
    h = doc.get("host")
    where = (f"{h['logical_cpus']} logical CPUs, {h['cpu_model']}"
             if h else "host not recorded")
    return f"{where}; {doc.get('processes', 1)} process(es)"


def schedule_mismatches(name, ref, rec, against):
    """Exact schedule-field differences of a deterministic record."""
    out = []
    if ref["digest"] != rec["digest"]:
        out.append(f"{name}: digest {rec['digest']} != {against} "
                   f"{ref['digest']} (schedule changed)")
    for field in ("rounds", "generations", "committed"):
        if ref.get(field) != rec.get(field):
            out.append(f"{name}: {field} {rec.get(field)} != {against} "
                       f"{ref.get(field)}")
    return out


def merge(paths):
    """Merge the documents of several sweep processes of one build
    (see the module docstring); paths[0] must hold every record."""
    docs = [load(p) for p in paths]
    first = docs[0]
    ref = by_key(first, paths[0])
    runs = {k: [] for k in ref}
    for path, doc in zip(paths, docs):
        if doc.get("processes", 1) != 1:
            raise SystemExit(f"{path}: already a merged document")
        for field in ("scale", "reps"):
            if doc.get(field) != first.get(field):
                raise SystemExit(
                    f"{path}: {field} {doc.get(field)!r} != "
                    f"{first.get(field)!r} of {paths[0]}")
        for k, rec in by_key(doc, path).items():
            if k not in ref:
                raise SystemExit(f"{path}: {label(k)} not in {paths[0]}")
            if k[1] in DET_EXECUTORS:
                diffs = schedule_mismatches(label(k), ref[k], rec,
                                            paths[0])
                if diffs:
                    raise SystemExit(f"{path}: " + "; ".join(diffs))
            runs[k].append(rec)

    records = []
    for rec in first["records"]:
        samples = runs[key(rec)]
        merged = {}
        for field, value in rec.items():
            if field in ("min_s", "median_s"):
                value = statistics.median(r[field] for r in samples)
            merged[field] = value
            if field == "min_s":
                merged["min_s_samples"] = [r["min_s"] for r in samples]
        records.append(merged)
    out = {f: first[f] for f in ("schema", "scale", "reps", "threads")}
    out.update(processes=len(docs), host=host(), records=records)
    return out


def check(baseline_path, fresh_path, threshold=0.25, min_time=0.002,
          time_threads=None, atomics_threshold=0.5, min_ops=1000,
          out=sys.stdout):
    """Return a list of failure strings (empty = gate passes)."""
    base_doc = load(baseline_path)
    fresh_doc = load(fresh_path)
    failures = []

    for field, absent in (("scale", None), ("reps", None),
                          ("threads", None), ("processes", 1)):
        b_v, f_v = base_doc.get(field, absent), fresh_doc.get(field, absent)
        if b_v != f_v:
            failures.append(
                f"run settings differ: {field} {b_v!r} vs {f_v!r}")
    if failures:
        return failures

    base = by_key(base_doc, baseline_path)
    fresh = by_key(fresh_doc, fresh_path)

    for k in sorted(base):
        if k not in fresh:
            failures.append(f"{label(k)}: missing from fresh results")

    # Exact schedule checks (deterministic executors only).
    for k in sorted(base):
        if k in fresh and k[1] in DET_EXECUTORS:
            failures += schedule_mismatches(label(k), base[k], fresh[k],
                                            "baseline")

    # Atomic-operation gate (all executors): the batched mark protocol's
    # headline win, locked in as a ratio against the baseline. The
    # min_ops floor keeps a zero-ops deterministic baseline enforceable
    # while ignoring trivial fluctuations; the ratio absorbs the
    # speculative executor's timing-dependent CAS jitter.
    for k in sorted(base):
        if k not in fresh:
            continue
        b_ops = base[k].get("atomic_ops")
        f_ops = fresh[k].get("atomic_ops")
        if b_ops is None or f_ops is None:
            continue
        allowed = max(b_ops * (1.0 + atomics_threshold), float(min_ops))
        if f_ops > allowed:
            failures.append(
                f"{label(k)}: atomic_ops {f_ops} > allowed "
                f"{allowed:.0f} (baseline {b_ops}, "
                f"+{atomics_threshold:.0%} / floor {min_ops})")

    # Normalized timing check. Prefer min-over-reps when both documents
    # carry it: the fastest rep is the one least disturbed by scheduling
    # noise, so it is the most reproducible estimator within a process
    # (and a merged document's min_s is its median over processes).
    def best_time(rec):
        return rec.get("min_s", rec["median_s"])

    ratios = {}
    for k in sorted(base):
        if k not in fresh:
            continue
        if time_threads is not None and k[2] not in time_threads:
            continue
        b_t = best_time(base[k])
        f_t = best_time(fresh[k])
        if b_t < min_time or f_t <= 0:
            continue
        ratios[k] = f_t / b_t
    if ratios:
        speed = statistics.median(ratios.values())
        print(f"baseline host: {describe_host(base_doc)}", file=out)
        print(f"fresh host:    {describe_host(fresh_doc)}", file=out)
        print(f"machine-speed factor (median ratio): {speed:.3f}",
              file=out)
        for k, r in sorted(ratios.items()):
            norm = r / speed
            flag = "REGRESSION" if norm > 1.0 + threshold else "ok"
            print(f"  {label(k):<24} ratio {r:6.3f}  "
                  f"normalized {norm:6.3f}  {flag}", file=out)
            if norm > 1.0 + threshold:
                for which, rec in (("baseline", base[k]),
                                   ("fresh", fresh[k])):
                    ms = " ".join(
                        f"{s * 1e3:.2f}"
                        for s in rec.get("min_s_samples", [best_time(rec)]))
                    print(f"      {which:<8} min_s per process (ms): {ms}",
                          file=out)
                failures.append(
                    f"{label(k)}: median regressed "
                    f"{norm:.2f}x normalized (>{1.0 + threshold:.2f}x)")
    return failures


# Per-process speed factors of a 7-process fixture.
PROCESS_SPEEDS = (1.00, 1.04, 0.97, 1.02, 0.99, 1.05, 0.98)


def merged_fixture(tmp, template, name, speeds, slow=None, slow_in=(),
                   factor=1.0):
    """Write one process document per entry of speeds, cloned from the
    template with every timing scaled by that speed, and record `slow`
    further slowed by `factor` in the processes listed in slow_in.
    Returns the path of their merged document."""
    doc = load(template)
    paths = []
    for i, speed in enumerate(speeds):
        proc = copy.deepcopy(doc)
        for rec in proc["records"]:
            f = speed * (factor if key(rec) == slow and i in slow_in
                         else 1.0)
            rec["min_s"] *= f
            rec["median_s"] *= f
        paths.append(os.path.join(tmp, f"{name}.{i}.json"))
        write(proc, paths[-1])
    merged = os.path.join(tmp, f"{name}.json")
    write(merge(paths), merged)
    return merged


def multi_process_self_test(baseline, regress, sink):
    """Failure strings of the merged-document fixtures (empty = ok)."""
    slow = ("bfs", "det", 1)
    fresh_speeds = [1.3 * s for s in PROCESS_SPEEDS]  # a slower machine
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        base = merged_fixture(tmp, baseline, "base", PROCESS_SPEEDS)

        one = merged_fixture(tmp, baseline, "one-slow", fresh_speeds,
                             slow, slow_in={2}, factor=2.5)
        found = check(base, one, out=sink)
        if found:
            problems.append(f"slow in 1 of 7 processes rejected: {found}")

        most = merged_fixture(tmp, baseline, "median-slow", fresh_speeds,
                              slow, slow_in={0, 2, 4, 6}, factor=1.6)
        found = check(base, most, out=sink)
        if found != [f"{label(slow)}: median regressed 1.55x normalized "
                     f"(>1.25x)"]:
            problems.append(f"slow in 4 of 7 processes: {found}")

        five = merged_fixture(tmp, baseline, "five", PROCESS_SPEEDS[:5])
        found = check(base, five, out=sink)
        if found != ["run settings differ: processes 7 vs 5"]:
            problems.append(f"7 vs 5 processes not refused: {found}")

        try:
            merge([baseline, regress])
            problems.append("processes disagreeing on a digest merged")
        except SystemExit as e:
            if "digest" not in str(e):
                problems.append(f"digest disagreement not named: {e}")
    return problems


def self_test():
    """Run the gate against the committed fixture pair, then against
    merged multi-process documents built from the fixture baseline."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures")
    baseline = os.path.join(fixtures, "bench_fixture_baseline.json")
    ok = os.path.join(fixtures, "bench_fixture_ok.json")
    regress = os.path.join(fixtures, "bench_fixture_regress.json")
    sink = open(os.devnull, "w")

    ok_failures = check(baseline, ok, out=sink)
    if ok_failures:
        print("self-test FAILED: within-noise fixture was rejected:")
        for f in ok_failures:
            print(f"  {f}")
        return 1

    bad_failures = check(baseline, regress, out=sink)
    perf = [f for f in bad_failures if "regressed" in f]
    digest = [f for f in bad_failures if "digest" in f]
    atomics = [f for f in bad_failures if "atomic_ops" in f]
    if not perf or not digest or not atomics:
        print("self-test FAILED: regressing fixture was not caught "
              f"(failures: {bad_failures})")
        return 1

    problems = multi_process_self_test(baseline, regress, sink)
    if problems:
        print("self-test FAILED: multi-process fixtures:")
        for p in problems:
            print(f"  {p}")
        return 1

    print("self-test passed: within-noise fixture accepted, regressing "
          "fixture rejected "
          f"({len(perf)} perf, {len(digest)} digest, {len(atomics)} "
          "atomic_ops findings); merged 7-process documents: slow in 1 "
          "process accepted, slow in the median rejected, 7 vs 5 "
          "processes refused, digest disagreement not merged")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="*", metavar="PATH",
                    help="BASELINE FRESH; with --merge, the documents of "
                         "the sweep processes, the full sweep first")
    ap.add_argument("--merge", metavar="OUT",
                    help="merge the documents of several sweep processes "
                         "into OUT instead of comparing")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed normalized min_s growth (default 0.25)")
    ap.add_argument("--min-time", type=float, default=0.002,
                    help="skip records with baseline min_s below this "
                         "many seconds (default 0.002)")
    ap.add_argument("--atomics-threshold", type=float, default=0.5,
                    help="allowed atomic_ops growth over baseline "
                         "(default 0.5 = +50%%)")
    ap.add_argument("--min-ops", type=int, default=1000,
                    help="atomic_ops gate floor: counts up to this are "
                         "never a failure (default 1000)")
    ap.add_argument("--time-threads", default=None,
                    help="comma list of thread counts whose timings are "
                         "gated (default: all). Digest/schedule checks "
                         "always cover every record; restricting the "
                         "timing gate to t=1 avoids oversubscription "
                         "noise on shared CI machines.")
    ap.add_argument("--self-test", action="store_true",
                    help="validate the gate against the fixtures")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.merge:
        if not args.paths:
            ap.error("--merge needs at least one document")
        write(merge(args.paths), args.merge)
        print(f"bench_check: merged {len(args.paths)} process(es) into "
              f"{args.merge}")
        return 0
    if len(args.paths) != 2:
        ap.error("baseline and fresh paths required (or --merge / "
                 "--self-test)")

    time_threads = None
    if args.time_threads:
        time_threads = {int(t) for t in args.time_threads.split(",")}

    failures = check(args.paths[0], args.paths[1], args.threshold,
                     args.min_time, time_threads, args.atomics_threshold,
                     args.min_ops)
    if failures:
        print(f"\nbench_check: FAIL ({len(failures)} finding(s)):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nbench_check: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
