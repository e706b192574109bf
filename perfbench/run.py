"""glpair benchmark: one workload per process, one thread, closed loop.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--workload all` runs every workload in its own process, one after the
other, and prints each one's output.

Run from the root of a checkout; the library is imported from its `src/`.
Set-up imports glpair, generates the seeded op list and primes the
lattice caches; it is repeated SETUP_REPEATS times and `setup_s` is the
median.  The run then executes the op list in passes, one op after the
other, starting another pass while one more fits in `--seconds` (at least
one).  `--trace 1` runs one pass untraced and one pass with every layer
wrapped (see tracing.py), and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.  The full record of the run (op list
digest, CLI report hashes, call counts, first failures) is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench/work")
OUT = Path("perfbench/out")
SETUP_REPEATS = 15
MODULES = ("cli", "census", "cones", "exact", "invariants", "parabolics",
           "polyexp", "rrss")
FIRST_FAILURES = 5


class OpTimeout(BaseException):
    "The op time limit; a BaseException, so no handler in glpair catches it."


def _on_alarm(signum, frame):
    raise OpTimeout()


def load_glpair():
    "A freshly imported copy of every glpair module."
    for name in [m for m in sys.modules
                 if m == "glpair" or m.startswith("glpair.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("glpair." + m)
                              for m in MODULES})


def set_up(workload, seed):
    "(seconds, glpair modules, op list, prepared classes) of one set-up."
    start = time.perf_counter()
    g = load_glpair()
    ops = workloads.generate(workload, seed, g)
    classes = workloads.prepare(workload, g)
    return time.perf_counter() - start, g, ops, classes


def run_op(runner, op, tracer=None):
    "(latency in seconds, Outcome) of one op under its time limit."
    limit = op.get("limit", workloads.OP_LIMIT_S)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        out = runner.run(op)
    except OpTimeout:
        out = workloads.Outcome("timeout after %gs" % limit)
    except SystemExit as exc:  # argparse in the CLI exits on bad arguments
        out = workloads.Outcome("exited with code %s" % exc.code)
    except Exception as exc:  # an op that raises is a failed op
        traceback.print_exc(file=sys.stderr)
        out = workloads.Outcome("raised %s: %s" % (type(exc).__name__, exc))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency = time.perf_counter() - start
    runner.discard()
    if tracer is not None:
        tracer.close_open_spans()
    return latency, out


def run_pass(runner, ops, tracer=None):
    start = time.perf_counter()
    results = [run_op(runner, op, tracer) for op in ops]
    return time.perf_counter() - start, results


def _git_commit():
    "The checked-out commit, read from .git without running git."
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


class Tally:
    "Failure accounting over every op a run executed."

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.unexpected = 0
        self.first = []

    def add(self, results, reference=None):
        for i, (_, out) in enumerate(results):
            if reference is not None and out.report_sha and \
                    reference[i] and out.report_sha != reference[i]:
                out.failure = out.failure or \
                    "report differs from the first pass"
            self.attempted += 1
            if out.failure is None:
                continue
            self.failed += 1
            if not out.known:
                self.unexpected += 1
            if len(self.first) < FIRST_FAILURES and \
                    all(f["op"] is not self.ops[i] for f in self.first):
                self.first.append({"op": self.ops[i], "reason": out.failure,
                                   "known_defect": out.known})


def end_to_end(setup_times, passes, tally):
    latencies = [lat for _, results in passes for lat, _ in results]
    return {
        "wall_s": statistics.median(wall for wall, _ in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": statistics.median(setup_times),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def latency_by_kind(ops, passes):
    "Per op kind: count, median and max latency in ms over every pass."
    by_kind = {}
    for _, results in passes:
        for op, (lat, _) in zip(ops, results):
            by_kind.setdefault(op["kind"], []).append(1e3 * lat)
    return {kind: {"ops": len(v), "median_ms": statistics.median(v),
                   "max_ms": max(v)} for kind, v in sorted(by_kind.items())}


def _sum_counters(results):
    total = {}
    for _, out in results:
        for key, value in out.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def integral_digits(results):
    digits = [out.digits for _, out in results if out.digits is not None]
    return statistics.median(digits) if digits else 0.0


def per_layer(tracer, traced, untraced_wall, cache_delta):
    wall, results = traced
    counters = _sum_counters(results)
    inside = tracer.inside
    out = tracer.metrics()
    out.update({
        "census.elements": counters.get("census.elements", 0),
        "census.fingerprint.per_element": _ratio(
            inside[("exhaustive", "census.fingerprint")],
            counters.get("census.elements", 0)),
        "parabolics.cache_hit_ratio": _ratio(cache_delta[0],
                                             cache_delta[0] + cache_delta[1]),
        "cones.support_box.vertex_ratio": _ratio(
            inside[("support_box", "exact.Matrix.solve")],
            inside[("support_box", "exact.Matrix.rank")]),
        "cones.cases": counters.get("cones.cases", 0),
        "cones.degenerate_ratio": _ratio(counters.get("cones.degenerate", 0),
                                         counters.get("cones.draws", 0)),
        "polyexp.integral_digits": integral_digits(results),
        "trace.overhead_s": wall - untraced_wall,
    })
    return out


def _cache_counts(g):
    "(hits, misses) over the lru-cached public lattice functions."
    fns = (g.parabolics.enumerate_rel_std, g.parabolics.parabolics_above,
           g.parabolics.parabolics_between, g.parabolics.full_group)
    infos = [fn.cache_info() for fn in fns]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def select(spec, values):
    """The metrics BENCHMARK.json declares, with their units; a declared
    metric the run did not compute, or one it computed but did not
    declare, is an error."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError("metrics differ from BENCHMARK.json: missing %s, "
                           "undeclared %s" % (missing, extra))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def _print_metrics(metrics):
    for name, m in metrics.items():
        print("  %-44s %.6g %s" % (name, m["value"], m["unit"]))


def run_all(args):
    "Each workload in a fresh process, one after the other."
    codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for name in workloads.WORKLOADS]
    return max(codes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (ROOT / "src" / "glpair" / "__init__.py").is_file():
        print("error: no glpair sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(Path("BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        g = None  # free the previous copy, so peak RSS holds one copy
        gc.collect()
        seconds, g, ops, classes = set_up(args.workload, args.seed)
        setup_times.append(seconds)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runner = workloads.Runner(g, classes, WORK)
    runner.write_inputs(ops)
    tally = Tally(ops)
    passes = []
    budget_end = time.perf_counter() + args.seconds
    try:
        while True:
            passes.append(run_pass(runner, ops))
            reference = [out.report_sha for _, out in passes[0][1]]
            tally.add(passes[-1][1], reference if len(passes) > 1 else None)
            if args.trace or time.perf_counter() + passes[-1][0] > budget_end:
                break
        if args.trace:
            tracer = tracing.Tracer()
            before = _cache_counts(g)
            tracer.install(g)
            try:
                traced = run_pass(runner, ops, tracer)
            finally:
                tracer.uninstall()
            after = _cache_counts(g)
            tally.add(traced[1], reference)
            values = per_layer(tracer, traced, passes[0][0],
                               (after[0] - before[0], after[1] - before[1]))
            metrics = select(spec["per_layer"], values)
        else:
            values = end_to_end(setup_times, passes, tally)
            metrics = select(spec["end_to_end"], values)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "ops_digest": workloads.digest(ops),
        "passes": len(passes), "pass_wall_s": [w for w, _ in passes],
        "setup_s": setup_times,
        "latency_by_kind": latency_by_kind(ops, passes),
        "cli_report_sha256": reference,
        "call_counts": {k: v for k, v in values.items()
                        if k.endswith(".calls")},
        "first_failures": tally.first,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _git_commit(), "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                              args.trace))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("glpair bench: workload %s, seed %d, %d ops x %d pass(es)%s"
          % (args.workload, args.seed, len(ops), len(passes),
             " + 1 traced" if args.trace else ""))
    _print_metrics(metrics)
    print("  %-44s %.6g ratio (%d of %d ops)"
          % ("fail_ratio", tally.failed / tally.attempted, tally.failed,
             tally.attempted))
    for f in tally.first:
        print("  failed: %s%s: %s" % (json.dumps(f["op"], sort_keys=True),
                                      " (known defect)" if f["known_defect"]
                                      else "", f["reason"]))
    print("  record: %s" % path)
    print(json.dumps({"correct": tally.unexpected == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
