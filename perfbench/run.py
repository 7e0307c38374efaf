"""Closed-loop benchmark of the `puiseux` package.

One process, one thread, one caller: the next instance starts only after
the previous one has finished.  Run from the root of a checkout:

    python3 perfbench/run.py --workload plane_inversion --seed 0 --seconds 55 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced stage-by-stage replay and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; every metric is also printed above it
by name and unit.  Results and spans are written under perfbench/out/.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def load_package():
    """Import puiseux from the checkout's own src/ tree, never from
    elsewhere; returns the instances module, which imports it."""
    src = ROOT / "src"
    if not (src / "puiseux" / "__init__.py").is_file():
        raise ImportError(f"no puiseux package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import puiseux

    if Path(puiseux.__file__).resolve().parent != (src / "puiseux").resolve():
        raise ImportError(f"puiseux was imported from {puiseux.__file__}, not {src}")
    import instances

    return instances


def setup(workload: str, seed: int):
    """Import, generate and parse: everything before the first instance."""
    instances = load_package()
    specs = workloads.generate(workload, seed)
    kind = instances.WORKLOAD_CLASSES[workload]()
    return kind, specs, [kind.prepare(s) for s in specs]


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Passes:
    """Complete passes over the instance set until `seconds` have gone by.

    A new pass starts only if the last one would still fit, so a run ends
    close to its budget whatever the speed of the host.  Between instances
    it takes the set-up probes, spread evenly over the same span, so that
    set-up and instance times sample the same stretch of host load."""

    def __init__(self, seconds: float, probe=None, probes: int = 0, clock=time.perf_counter):
        self.seconds, self.clock = seconds, clock
        self.probe, self.probes = probe, probes
        self.setup_times: list[float] = []
        self.count = 0
        self.start = self._pass_start = clock()

    def __iter__(self):
        while True:
            now = self.clock()
            elapsed, last = now - self.start, now - self._pass_start
            if self.count and elapsed + last >= self.seconds:
                break
            self.count += 1
            self._pass_start = now
            yield self.count
        while len(self.setup_times) < self.probes:
            self.setup_times.append(self.probe())

    def between_instances(self) -> None:
        due = len(self.setup_times) * self.seconds / max(1, self.probes)
        if len(self.setup_times) < self.probes and self.clock() - self.start >= due:
            self.setup_times.append(self.probe())


def corpus_gate() -> tuple[int, int, list[str]]:
    from puiseux.corpus import run_corpus

    rows = run_corpus()
    bad = [f"{name}: {detail}" for name, ok, detail in rows if not ok]
    return len(rows) - len(bad), len(rows), bad


def load_golden(workload: str, seed: int) -> dict | None:
    if seed != workloads.DEFAULT_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload)


def instance_rng(seed: int, inst_id: str) -> random.Random:
    return random.Random(f"check:{seed}:{inst_id}")


def full_check(kind, inst, out, seed: int, sid: str, golden, record: dict) -> list[str]:
    """Independent checks plus the golden digest; fills in the record."""
    problems, work, dig = kind.check(inst, out, instance_rng(seed, sid))
    record["work"] = work
    record["digest"] = dig
    if golden is not None and golden.get(sid) != dig:
        problems.append(f"digest {dig} differs from the recorded {golden.get(sid)}")
    return problems


def run_timed(workload, seed, seconds, kind, specs, parsed, golden):
    passes = Passes(seconds, lambda: probe_setup(workload, seed), SETUP_PROBES)
    order_rng = random.Random(f"order:{workload}:{seed}")
    times: dict[str, list[float]] = {s["id"]: [] for s in specs}
    records = {s["id"]: {"text": s["text"], "problems": []} for s in specs}
    attempted = failed = 0
    pairs = list(zip(specs, parsed))
    for _ in passes:
        order_rng.shuffle(pairs)
        for spec, inst in pairs:
            passes.between_instances()
            sid = spec["id"]
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = kind.run(inst)
                dt = time.perf_counter() - t0
                if "digest" not in records[sid]:
                    problems = full_check(kind, inst, out, seed, sid, golden, records[sid])
                else:
                    problems = [f"{r.name} failed" for r in kind.reports(out) if not r.all_passed]
                    if kind.quick_digest(out) != records[sid]["digest"]:
                        problems.append("result differs from the first round")
            except Exception as exc:  # a failed instance is data, not an abort
                problems = [f"raised {type(exc).__name__}: {exc}"]
                records[sid]["traceback"] = traceback.format_exc()
            if problems:
                failed += 1
                records[sid]["problems"] += problems
            else:
                times[sid].append(dt)
    rounds = passes.count
    # Every verified instance run is one latency sample.  Pooling all of
    # them over the whole run averages the load of the shared host over the
    # run; a per-instance minimum over a handful of passes depends instead
    # on whether a run happened to catch a quiet moment.
    samples = [t for ts in times.values() for t in ts]
    for sid, ts in times.items():
        records[sid]["latency_s"] = ts
    result = {"rounds": rounds, "attempted": attempted, "failed": failed, "records": records,
              "setup_s": statistics.median(passes.setup_times), "setup_probes_s": passes.setup_times}
    if samples:
        p, value, beyond = tracing.tail(samples, group=len(specs))
        result.update(
            items_per_s=len(samples) / sum(samples),
            latency_p50_s=statistics.median(samples),
            latency_tail_s=value,
            tail_percentile=p,
            tail_beyond=beyond,
            samples=len(samples),
        )
    return result


def run_traced(workload, seed, seconds, kind, specs, parsed, golden):
    passes = Passes(seconds)
    tracer = tracing.Tracer()
    null = tracing.NullTracer()
    wall = {"traced": 0.0, "untraced": 0.0}
    attempted = failed = 0
    records = {s["id"]: {"text": s["text"], "problems": []} for s in specs}
    flip = False
    for _ in passes:
        for spec, inst in zip(specs, parsed):
            sid = spec["id"]
            attempted += 1
            tracer.instance = sid
            try:
                ref = kind.run(inst)
                problems = full_check(kind, inst, ref, seed, sid, golden, records[sid])
                # alternate which replay goes first so drift cancels
                for mode in (("untraced", "traced") if flip else ("traced", "untraced")):
                    tr = tracer if mode == "traced" else null
                    t0 = time.perf_counter()
                    problems += kind.replay(inst, ref, tr, instance_rng(seed, sid))
                    wall[mode] += time.perf_counter() - t0
                flip = not flip
            except Exception as exc:  # a failed instance is data, not an abort
                problems = [f"raised {type(exc).__name__}: {exc}"]
                records[sid]["traceback"] = traceback.format_exc()
                if type(exc).__name__ == "BudgetError":
                    tracer.count("exponents.irreducible.budget_errors")
            if problems:
                failed += 1
                records[sid]["problems"] += problems
    rounds = passes.count
    spans = tracer.spans
    instance_total = tracing.durations(spans, "instance")
    values = {f"{name}.self_s": t / rounds for name, t in tracing.self_times(spans).items()}
    values.update({name: n / rounds for name, n in tracer.counts.items()})
    values.update(tracer.peaks)
    values["bench.glue.self_s"] = values.pop("instance.self_s", 0.0)
    values["trace.coverage"] = (
        tracing.child_durations(spans, "instance") / instance_total if instance_total else 0.0
    )
    values["trace.overhead_frac"] = (
        wall["traced"] / wall["untraced"] - 1 if wall["untraced"] else 0.0
    )
    return {
        "rounds": rounds, "attempted": attempted, "failed": failed, "records": records,
        "values": values, "spans": tracer.to_json(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        kind, specs, parsed = setup(args.workload, args.seed)
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    passed, total, bad = corpus_gate()
    print(f"corpus gate: {passed}/{total} PASS")
    for row in bad:
        print(f"  FAIL {row}")
    golden = load_golden(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {len(specs)} instances, "
          f"golden digests {'checked' if golden else 'not recorded for this seed'}")

    if args.trace:
        res = run_traced(args.workload, args.seed, args.seconds, kind, specs, parsed, golden)
        wanted = spec["per_layer"]
        values = res["values"]
    else:
        res = run_timed(args.workload, args.seed, args.seconds, kind, specs, parsed, golden)
        wanted = spec["end_to_end"]
        values = {
            "setup_s": res["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **{k: res[k] for k in ("items_per_s", "latency_p50_s", "latency_tail_s") if k in res},
        }
        if "tail_percentile" in res:
            print(f"latency tail is p{res['tail_percentile']:.1f} of {res['samples']} samples "
                  f"({res['tail_beyond']} beyond it), {res['rounds']} rounds")
    attempted, failed = res["attempted"], res["failed"]
    fail_frac = failed / attempted if attempted else 1.0
    print(f"fail_frac: {fail_frac:.6g} frac ({failed} of {attempted} instances)")
    for sid, rec in res["records"].items():
        for problem in dict.fromkeys(rec["problems"]):
            print(f"  {sid}: {problem}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = res.pop("spans", None)
    if spans is not None:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans))
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "corpus": [passed, total], "metrics": metrics, **res}, indent=1, default=str))
    correct = failed == 0 and passed == total and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
