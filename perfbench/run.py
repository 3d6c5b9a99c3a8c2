"""Run one geomfo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload agreement_mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; geomfo is imported from ``src/``.  The
run is closed-loop with one client: it sets up the workload's inputs from
the seed, repeats passes over them until ``--seconds`` have elapsed (at
least three), then checks every op's output against the independent
oracle.  ``--trace 0`` prints the end-to-end metrics, with every op timed
against a fixed reference loop run just before and after it; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of
the run (machine, versions, calibration loop) goes to ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # every run imports geomfo from source alike
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from spans import BENCH, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3          # untraced run; the traced run needs one of each kind
SETUP_CHILDREN = 3      # cold set-ups in child processes before and after the loop
REF_LOOPS = 25_000      # the reference loop's two parts, a few milliseconds in all
REF_FRACTIONS = 300
CAL_LOOPS = 1_000_000   # the calibration loop, recorded before and after the run
GEOMFO_MODULES = ("formula", "geometry", "poset", "interpret", "checker",
                  "generators", "fileio", "cli")

END_TO_END_UNITS = {"setup_s": "s", "pass_ref": "ref", "op_p50_ref": "ref",
                    "op_tail_ref": "ref", "peak_rss_mb": "MB"}
COUNT_METRICS = ("formula.rewritten_nodes", "interpret.poset_elements",
                 "poset.comparable_pairs")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the smoke test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="falsify the oracle's answer for op 0 (smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up and print it (used internally)")
    return ap.parse_args(argv)


def loop_seconds(n: int) -> float:
    """Seconds for n turns of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFF
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Seconds for the reference loop: the integer loop, then fixed Fraction
    arithmetic on numbers of up to 70 bits.  None of it is geomfo's.  With
    both parts it slows down with all three workloads alike; the integer
    loop alone tracked the Fraction-heavy terfan_geometry worst."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, REF_FRACTIONS + 1):
        q = Fraction(i, 7) * Fraction(3**20 + i, i % 5 + 2) - Fraction(i % 11, 13**9)
        acc = q if q > acc else acc
    return time.perf_counter() - t0 + loop_seconds(REF_LOOPS)


def set_up(args):
    """Import geomfo and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    gf = SimpleNamespace(**{m: importlib.import_module(f"geomfo.{m}") for m in GEOMFO_MODULES})
    wl = WORKLOADS[args.workload](gf, args.seed, args.tiny)
    return wl, time.perf_counter() - t0


def child_setups(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_passes(wl, seconds: float, tracer=None):
    """Closed loop over passes.  Untraced, every op is timed with the
    reference loop just before and after it, and the run ends when
    ``seconds`` have passed, mid-pass if need be, once every op has run
    ``MIN_PASSES`` times.  With a tracer, whole passes alternate untraced
    and traced.  Returns per-op samples (seconds, reference seconds), every
    output, and the duration of each traced pass."""
    samples = [[] for _ in wl.ops]
    results, traced = [], []
    first = {}  # op index -> its first output; equal later outputs share it
    errors = 0
    ref = reference_seconds() if tracer is None else 0.0
    start = time.perf_counter()
    p = 0
    while (p < (2 if tracer else MIN_PASSES)
           or time.perf_counter() - start < seconds):
        on = tracer is not None and p % 2 == 1
        if on:
            tracer.install()
            root = tracer.begin("bench.pass")
        for i, op in enumerate(wl.ops):
            if (tracer is None and p >= MIN_PASSES
                    and time.perf_counter() - start >= seconds):
                break
            if on:
                tracer.op = f"{p}.{i}"
                sid = tracer.begin("bench.op")
            t0 = time.perf_counter()
            try:
                res = op()
            except Exception as exc:  # an op that raises is a failed op
                res = exc
                errors += 1
                if errors <= 3:
                    print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            dt = time.perf_counter() - t0
            if on:
                tracer.end(sid)
            if tracer is None:
                after = reference_seconds()
                samples[i].append((dt, (ref + after) / 2))
                ref = after
            else:
                samples[i].append((dt, None))
            # Keeping one copy of repeated outputs keeps peak memory
            # independent of how many passes fit in the run.
            if i in first and res == first[i]:
                res = first[i]
            first.setdefault(i, res)
            results.append((i, res))
            if wl.isolate_ops:
                del res
                gc.collect()
        if on:
            tracer.end(root)
            tracer.restore()
            traced.append(tracer.spans[root][2] - tracer.spans[root][1])
        p += 1
    return samples, results, traced


def count_failures(wl, results) -> int:
    failed = 0
    for i, res in results:
        if isinstance(res, Exception):
            failed += 1
            continue
        try:
            ok = wl.check(i, res)
        except Exception as exc:  # a result the oracle cannot read is wrong
            print(f"check of op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        failed += not ok
    return failed


def tail_rank(n: int) -> tuple[int, float]:
    """The 1-based rank of the highest percentile with at least 10 of n
    samples beyond it (the median when n <= 20), and that percentile."""
    keep = max(n - 10, -(-n // 2))
    return keep, 100 * keep / n


def machine_record(args) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geomfo" / "__init__.py").is_file():
        print(f"error: no geomfo sources under {SRC}; run from a geomfo checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(set_up(args)[1])
        return 0

    record = {"calibration_before_s": loop_seconds(CAL_LOOPS)}
    wl, own_setup = set_up(args)
    if args.inject_fault:
        wl.faults.add(0)
    setups = [own_setup] if args.trace else [own_setup] + child_setups(args)
    tracer = Tracer() if args.trace else None
    samples, results, traced = run_passes(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:  # spread the set-up samples over the run's duration
        setups += child_setups(args)
    record["calibration_after_s"] = loop_seconds(CAL_LOOPS)
    failed = count_failures(wl, results)
    record.update(machine_record(args), passes=min(map(len, samples)),
                  ops=len(results), setup_samples_s=setups, op_samples_s=samples)

    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, table = layer_metrics(wl, tracer, samples, traced)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        metrics, table, record["op_tail"] = end_to_end_metrics(
            args.workload, samples, setups, peak_rss_mb)
    print(table)
    print(f"{args.workload:16s} {'failed_frac':14s} {failed / len(results):12.4f} "
          f"frac  ({failed} of {len(results)} ops)")
    record["metrics"] = metrics
    record["failed_frac"] = failed / len(results)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("record " + json.dumps({k: v for k, v in record.items()
                                  if k not in ("metrics", "op_samples_s")}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(name, samples, setups, peak_rss_mb):
    # An execution's time in reference units is its seconds over the mean of
    # the reference loops just before and after it.  Load from other tenants
    # slows the reference loop and the op alike, for stretches of seconds to
    # minutes, so the ratio moves far less from run to run than seconds do.
    # A pass counts each op with the mean of its ratios.  The percentiles are
    # over every execution's ratio, at the ranks they have in a
    # MIN_PASSES-pass run, so the tail percentile is fixed per workload.
    ratios = [[t / r for t, r in s] for s in samples]
    pooled = sorted(x for rs in ratios for x in rs)
    best = sorted(min(t for t, _ in s) for s in samples)  # seconds, printed only
    n, m = len(samples) * MIN_PASSES, len(pooled)
    rank, pct = tail_rank(n)

    def at(values, k):  # the value at 1-based rank k of n, among len(values) >= n
        return values[-(-len(values) * k // n) - 1]

    values = {
        "setup_s": statistics.median(setups),
        "pass_ref": sum(statistics.fmean(rs) for rs in ratios),
        "op_p50_ref": at(pooled, -(-n // 2)),
        "op_tail_ref": at(pooled, rank),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    tail = {"percentile": pct, "samples": m, "beyond": m - (-(-m * rank // n))}
    seconds = {  # each op at its fastest; not gated
        "wall_s": (sum(best), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (1000 * best[-(-len(best) // 2) - 1], "ms"),
        "op_tail_ms": (1000 * best[-(-len(best) * rank // n) - 1], "ms"),
        "ref_ms": (1000 * statistics.median(r for s in samples for _, r in s), "ms"),
    }
    lines = []
    for key, m_ in metrics.items():
        extra = (f"  (p{pct:.1f}: {tail['beyond']} of {m} ops run beyond)"
                 if key == "op_tail_ref" else "")
        lines.append(f"{name:16s} {key:14s} {m_['value']:12.4f} {m_['unit']}{extra}")
    for key, (v, unit) in seconds.items():
        lines.append(f"{name:16s} {key:14s} {v:12.4f} {unit}  (seconds; not gated)")
    return metrics, "\n".join(lines), tail


def layer_metrics(wl, tracer, samples, traced):
    """Per-pass layer self times, counts, and the trace overhead."""
    k = len(traced)
    own = tracer.self_times()
    values = {f"{layer}_s": own.get(layer, 0.0) / k for layer in LAYERS}
    values["bench.self_s"] = sum(own.get(b, 0.0) for b in BENCH) / k
    values["trace.wall_s"] = sum(traced) / k
    # each op at its fastest, over traced (odd) and over untraced passes
    best = [sum(min(t for t, _ in s[k::2]) for s in samples) for k in (1, 0)]
    values["trace.overhead_frac"] = best[0] / best[1] - 1
    counts = wl.counts()
    units = {}
    for name in values:
        units[name] = "frac" if name == "trace.overhead_frac" else "s"
    for name in COUNT_METRICS:
        values[name], units[name] = counts[name], "count"
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}

    wall = values["trace.wall_s"]
    lines = [f"{'layer self time per traced pass':34s} {'value':>12s} unit  {'share':>6s}"]
    for name in [f"{layer}_s" for layer in LAYERS] + ["bench.self_s"]:
        lines.append(f"{name:34s} {values[name]:12.4f} s     {values[name] / wall:6.1%}")
    total = sum(values[f"{layer}_s"] for layer in LAYERS) + values["bench.self_s"]
    lines.append(f"{'sum of the above':34s} {total:12.4f} s     {total / wall:6.1%}")
    lines.append(f"{'trace.wall_s':34s} {wall:12.4f} s")
    lines.append(f"{'trace.overhead_frac':34s} {values['trace.overhead_frac']:12.4f} frac")
    for name in COUNT_METRICS:
        lines.append(f"{name:34s} {values[name]:12d} count")
    return metrics, "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
