"""The latcorr benchmark: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload {groups,unimodular,pipeline}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports latcorr from `src/`. It
needs nothing outside the standard library.

A run sets up (imports latcorr, writes the workload's seeded inputs) three
times and reports the median as `setup_s`. Then, with `--trace 0`, it runs
one warm-up round and a single-client closed loop over whole rounds of the
query stream for at least `--seconds` and at least MIN_QUERIES queries,
checks every answer outside the timed region and prints the end-to-end
metrics. Their timings are CPU times at nominal machine speed: each query
and each piece of set-up is bracketed by two runs of a fixed reference task
and scaled by them (see reference.py), so that the host's changes in speed
cancel. The raw CPU and wall figures are on the info line. With
`--trace 1` it alternates untraced and traced passes over a fixed set of
rounds for at least `--seconds`, checks the answers, checks that the work
counters repeat exactly from pass to pass and prints the per-layer metrics.

The last line of standard output is the result object; the line before it
holds the run's environment, input digest, sample counts and failures. A
fuller record goes to perfbench/.work/results/.

    python3 perfbench/run.py --workload W --write-expected

runs the whole pool of W at the default seed, checks it and stores the
digests of its outputs in expected.json; do that only when the benchmark's
inputs change, never to make a run pass.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected.json"

sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUPS = 3
MIN_QUERIES = 100       # so that at least ten samples lie beyond p90
MAX_LOOP_SECONDS = 120  # stop a slow run short rather than overrun

# The end-to-end metrics, name: (unit, better), as BENCHMARK.json lists them.
END_TO_END = {"throughput_qps": ("1/s", "higher"),
              "query_p50_ms": ("ms", "lower"),
              "query_p90_ms": ("ms", "lower"),
              "setup_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}


def fresh_import():
    """Import latcorr from scratch, so that each set-up pays for it."""
    for name in [k for k in sys.modules
                 if k == "latcorr" or k.startswith("latcorr.")]:
        del sys.modules[name]
    latcorr = importlib.import_module("latcorr")
    for layer in tracing.LAYERS + ("oracle",):
        importlib.import_module(f"latcorr.{layer}")
    return latcorr


def set_up(workload, seed, inputs):
    """Import latcorr and write the inputs; returns (seconds at nominal
    speed, CPU seconds, wall seconds, latcorr, rounds, groups) where groups
    holds the prebuilt groups of library queries. The set-up is cut into
    pieces (the import, each round, the groups), each timed between two
    reference units."""
    t0 = time.perf_counter()
    meter = reference.Meter()
    latcorr = fresh_import()
    shutil.rmtree(inputs, ignore_errors=True)
    meter.mark()
    rounds = workloads.build(workload, seed, inputs, latcorr, meter.mark)
    groups = {}
    for q in (q for r in rounds for q in r if q.call is not None):
        with open(q.call[1]) as f:
            table = json.load(f)
        groups[q.qid] = latcorr.discgroup.group_from_table(
            table["orders"], table["pairing"])
    meter.mark()
    return (meter.nominal(), meter.cpu(), time.perf_counter() - t0, latcorr,
            rounds, groups)


def run_query(latcorr, q, groups):
    """One query, timed: a CLI command in-process, or one library call.
    Returns (CPU seconds, wall seconds, outcome)."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if q.call is not None:
            fn = getattr(latcorr.discgroup, q.call[0])
            c0, t0 = time.process_time(), time.perf_counter()
            res = fn(groups[q.qid], q.call[2])
            c1, t1 = time.process_time(), time.perf_counter()
            return c1 - c0, t1 - t0, {"result": [[list(e) for e in s.elements]
                                                for s in res]}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0, t0 = time.process_time(), time.perf_counter()
            code = latcorr.cli.main(q.argv)
            c1, t1 = time.process_time(), time.perf_counter()
        return c1 - c0, t1 - t0, {"exit": code, "stdout": out.getvalue(),
                                  "stderr": err.getvalue()}
    except Exception as e:  # a crash is a failed query, not a failed run
        return (time.process_time() - c0, time.perf_counter() - t0,
                {"error": repr(e)})


def verify(checker, records):
    """Check each distinct query once and every repeat against its first
    answer. Returns (failed executions, first problems, one sample outcome
    per template)."""
    first = {}
    samples = {}
    failed = 0
    problems = []
    for q, _, outcome in records:
        canon = check.canonical(outcome)
        if q.qid not in first:
            first[q.qid] = (canon, checker.check(q, outcome))
            samples.setdefault(q.template, (q, outcome))
        canon0, found = first[q.qid]
        if canon != canon0:
            found = found + ["answer changed on a repeat"]
        if found:
            failed += 1
            if len(problems) < 10:
                problems.append(f"{q.qid}: {'; '.join(found)}")
    return failed, problems, samples


def mutations(q, outcome):
    """Deliberately wrong versions of a right answer."""
    if "error" in outcome:
        return
    if "result" in outcome:
        res = outcome["result"]
        yield {"result": res[:-1] if res else [[[0]]]}
        return
    yield dict(outcome, exit=outcome["exit"] + 1)
    try:
        out = json.loads(outcome["stdout"])
    except ValueError:
        return
    if "d" in out:
        out["d"] = str(Fraction(out["d"]) - 1)
    elif "metabolizers" in out:
        mets = out["metabolizers"]
        out["metabolizers"] = mets[:-1] if mets else [
            {"elements": [[0]], "generators": []}]
    elif "entries" in out:
        if out["entries"]:
            e = out["entries"][0]
            e["d"] = str(Fraction(e["d"]) - 1)
        else:
            out["entries"] = [{"metabolizer": [[0]], "d": "0",
                               "min_char_square": 0, "witness": []}]
    elif "verdict" in out:
        out["verdict"] = ("obstructed" if out["verdict"] == "unobstructed"
                          else "unobstructed")
    else:
        out["bogus"] = 1
    yield dict(outcome, stdout=json.dumps(out))


def self_test(checker, samples):
    """Feed wrong answers through the same counting as real ones; every one
    must count as failed. Returns (wrong answers made, counted failed)."""
    records = [(q, 0.0, bad) for q, good in samples.values()
               for bad in mutations(q, good)]
    return len(records), sum(verify(checker, [r])[0] for r in records)


def input_digest(inputs, rounds):
    h = hashlib.sha256()
    files = sorted(inputs.iterdir())
    data = sorted({a for r in rounds for q in r for a in (q.argv or [])
                   if a.startswith(str(workloads.DATA_DIR))})
    for p in files + [Path(a) for a in data]:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:20]


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            commit = path.read_text().strip() if path.exists() else ref
    src = hashlib.sha256()
    for p in sorted((SRC / "latcorr").glob("*.py")):
        src.update(p.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_digest": src.hexdigest()[:20]}


def load_digests(workload, seed):
    """Committed output digests that apply to this run."""
    if not EXPECTED.exists():
        return {}
    with open(EXPECTED) as f:
        saved = json.load(f)
    out = dict(saved.get("data", {}))
    if seed == saved.get("seed"):
        out.update(saved.get("workloads", {}).get(workload, {}))
    return out


def timed_run(latcorr, rounds, groups, seconds):
    """One untimed warm-up round, then whole rounds for at least `seconds`
    and MIN_QUERIES queries. A reference unit is timed after each query, and
    each query's CPU time is scaled to nominal speed by the two units that
    bracket it (see reference.py)."""
    records, walls, units = [], [], []

    def run(q):
        cpu, wall, outcome = run_query(latcorr, q, groups)
        records.append((q, cpu, outcome))
        walls.append(wall)
        units.append(reference.timed_unit())

    for q in rounds[0]:
        run(q)
    warm = len(records)
    start = time.perf_counter()
    n = 1
    while True:
        for q in rounds[n % len(rounds)]:
            run(q)
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) - warm >= MIN_QUERIES:
            break
        if elapsed >= max(seconds, MAX_LOOP_SECONDS):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cpu = [dt for _, dt, _ in records]
    lat = reference.at_nominal(cpu[warm:], units[warm - 1:-1], units[warm:])
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "throughput_qps": len(lat) / sum(lat),
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p90_ms": 1000 * p90,
        "peak_rss_mb": peak_rss_mb,
    }

    def raw(times):
        return {"throughput_qps": len(times) / sum(times),
                "query_p50_ms": 1000 * statistics.median(times),
                "query_p90_ms": 1000 * statistics.quantiles(times, n=10)[8]}

    info = {"timed_queries": len(lat), "warmup_queries": warm,
            "rounds": n - 1, "timed_seconds": elapsed,
            "p50_samples": len(lat),
            "p90_samples_beyond": sum(x > p90 for x in lat),
            "reference_units": len(units),
            "reference_unit_median_ms": 1000 * statistics.median(units),
            "raw_cpu": raw(cpu[warm:]), "raw_wall": raw(walls[warm:])}
    return records, metrics, info


def traced_run(workload, latcorr, rounds, groups, seconds, spans_path):
    subset = rounds[:workloads.TRACE_ROUNDS[workload]]
    queries = [q for r in subset for q in r]
    records = []
    pairs, per_pass, counters = [], [], []

    def untraced_pass():
        t0 = time.perf_counter()
        for q in queries:
            run_query(latcorr, q, groups)
        return time.perf_counter() - t0

    def traced_pass():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            for q in queries:
                tracer.qid = q.qid
                cpu, _, outcome = run_query(latcorr, q, groups)
                records.append((q, cpu, outcome))
            elapsed = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics())
        counters.append(tracer.counters())
        return elapsed, tracer

    untraced_pass()  # warm-up
    start = time.perf_counter()
    while True:
        # alternate which side of a pair runs first, so drift cancels
        if len(pairs) % 2:
            (traced, tracer), untraced = traced_pass(), untraced_pass()
        else:
            untraced, (traced, tracer) = untraced_pass(), traced_pass()
        pairs.append((untraced, traced))
        elapsed = time.perf_counter() - start
        if len(pairs) >= 2 and elapsed >= seconds:
            break
        if elapsed >= max(seconds, MAX_LOOP_SECONDS):
            break
    with open(spans_path, "w") as f:
        json.dump({"columns": ["name", "start_us", "end_us", "parent",
                               "query"], "spans": tracer.dump()}, f)
    metrics = {k: statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
    metrics["trace.throughput_qps"] = len(queries) / statistics.median(
        t for _, t in pairs)
    metrics["trace.untraced_qps"] = len(queries) / statistics.median(
        u for u, _ in pairs)
    metrics["trace.overhead_ratio"] = statistics.median(t / u
                                                        for u, t in pairs)
    info = {"pairs": len(pairs), "queries_per_pass": len(queries),
            "trace_rounds": len(subset), "counters": counters[0],
            "counters_repeat": all(c == counters[0] for c in counters),
            "spans": len(tracer.spans),
            "isolation": {k: counters[0][k] for k in (
                "corrterm.coset_min.calls", "discgroup.closure.calls")}}
    return records, metrics, info


def shares(workload, records):
    """Sizes of the workload's input classes among the queries run."""
    if workload != "unimodular":
        return None
    norm1 = sum(q.expect["norm1"] for q, _, _ in records)
    return {"norm1_vectors": norm1, "no_norm1_vectors": len(records) - norm1}


def write_expected(workload, latcorr, rounds, groups):
    checker = check.Checker(latcorr)
    records = [(q, cpu, outcome) for r in rounds for q in r
               for cpu, _, outcome in [run_query(latcorr, q, groups)]]
    failed, problems, _ = verify(checker, records)
    if failed:
        print("\n".join(problems), file=sys.stderr)
        return 1
    saved = {"seed": DEFAULT_SEED, "workloads": {}, "data": {}}
    if EXPECTED.exists():
        with open(EXPECTED) as f:
            saved = json.load(f)
    saved["workloads"][workload] = {
        q.qid: check.digest(o) for q, _, o in records
        if not q.template.startswith("data:")}
    saved["data"].update({q.template: check.digest(o) for q, _, o in records
                          if q.template.startswith("data:")})
    with open(EXPECTED, "w") as f:
        json.dump(saved, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(records)} digests for {workload}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-expected", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "latcorr" / "__init__.py").is_file():
        print(f"error: no latcorr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = WORK / "inputs" / tag
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(1 if args.write_expected else SETUPS):
            nominal, cpu, wall, latcorr, rounds, groups = set_up(
                args.workload, args.seed, inputs)
            setups.append({"nominal": nominal, "cpu": cpu, "wall": wall})
        if args.write_expected:
            if args.seed != DEFAULT_SEED:
                print("error: digests are kept for the default seed only",
                      file=sys.stderr)
                return 2
            return write_expected(args.workload, latcorr, rounds, groups)
        digest_in = input_digest(inputs, rounds)
        if args.trace:
            records, metrics, info = traced_run(
                args.workload, latcorr, rounds, groups, args.seconds,
                results / f"{tag}-spans.json")
        else:
            records, metrics, info = timed_run(latcorr, rounds, groups,
                                               args.seconds)
            metrics["setup_s"] = statistics.median(s["nominal"]
                                                   for s in setups)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    checker = check.Checker(latcorr, load_digests(args.workload, args.seed),
                            require_digest=args.seed == DEFAULT_SEED)
    t0 = time.perf_counter()
    failed, problems, samples = verify(checker, records)
    made, caught = self_test(checker, samples)
    info["check_seconds"] = time.perf_counter() - t0
    correct = failed == 0 and caught == made and \
        info.get("counters_repeat", True)
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "queries_per_round": len(rounds[0]), "pool_rounds": len(rounds),
        "input_digest": digest_in, "environment": environment(),
        "setup_s_each": setups, "attempted": len(records), "failed": failed,
        "failed_frac": failed / len(records), "problems": problems,
        "self_test": {"wrong_answers": made, "counted_failed": caught},
        "shares": shares(args.workload, records),
    })
    names = tracing.PER_LAYER if args.trace else END_TO_END
    result = {"correct": correct, "attempted": len(records),
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, (u, _) in names.items()}}
    per_template = {}
    for q, dt, _ in records:
        per_template.setdefault(q.template, []).append(1000 * dt)
    with open(results / f"{tag}.json", "w") as f:
        json.dump({"info": info, "result": result,
                   "template_median_ms": {
                       k: statistics.median(v)
                       for k, v in sorted(per_template.items())}},
                  f, indent=1)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
