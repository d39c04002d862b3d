"""Benchmark for omljordan, run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-small --seed 1 --seconds 25 --trace 0

One client, one process, one thread: a closed loop in which each item starts
after the previous one finished.  Inputs are generated from the seed in
batches (see inputs.py); items run in round order, at least one whole round,
until the summed item time comes nearest to --seconds.  Every item's output
is checked exactly.  Times in the end-to-end metrics are rescaled to a
reference speed of the machine, sampled all through the run (see speed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first round
untraced, then runs rounds again from the start with the tracer installed,
and prints the per-layer metrics; trace.overhead is the traced wall time of
the first round over its untraced wall time.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402  (standard library only)

SPANS_DIR = ROOT / "perfbench" / "out"

WORKLOADS = ("pipeline-small", "pipeline-large", "oml-lattices")

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package() -> float:
    """Import omljordan from this checkout's src/ and return the import time.

    Raises ImportError when the checkout holds no package source, so the
    benchmark never measures some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "omljordan" / "__init__.py").is_file():
        raise ImportError(f"no package source at {src / 'omljordan'}")
    sys.path.insert(0, str(src))
    start, sampled = time.perf_counter(), speed.spent()
    import omljordan

    elapsed = time.perf_counter() - start - (speed.spent() - sampled)
    if Path(omljordan.__file__).resolve().parent != (src / "omljordan").resolve():
        raise ImportError(f"omljordan was imported from {omljordan.__file__}")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.trace:
        speed.start()
    try:
        return measure(args)
    finally:
        speed.stop()


def measure(args) -> int:
    setup_start = time.perf_counter()
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench import inputs, items, tracer

    runner = items.Runner(args.workload, args.seed)
    setup_s = import_s + statistics.median(runner.set_up())
    setup = (setup_s, setup_start, time.perf_counter())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"inputs sha256 "
          f"{inputs.digest(item for batch in runner.batches for item in batch)} "
          f"({len(runner.batches)} batches, "
          f"{sum(len(batch) for batch in runner.batches)} items)")

    if args.trace:
        metrics = traced_run(runner, args)
    else:
        runner.run(args.seconds)
        speed.stop()
        metrics = end_to_end(runner, setup)
        units = dict(END_TO_END)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")

    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r.reason is not None)
    for r in runner.records:
        if r.reason is not None:
            print(f"FAIL {r.label}: {r.reason}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} items)")
    units = {name: unit for name, unit, *_ in END_TO_END + tracer.PER_LAYER}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def end_to_end(runner, setup, scale=speed.factor) -> dict[str, float]:
    """The end-to-end metrics of an untraced run.  ``setup`` is (setup
    seconds, start, end); every time measured from t0 to t1 is multiplied
    by ``scale(t0, t1)``.

    Each slot of the round (the items of one label) weighs the same, however
    many times it ran, so a run that ends after part of a round reports the
    same mix as one that ends after whole rounds: items_per_s is the slots
    of a round over the sum of each slot's mean time, and item_s.p50 the
    median over the slots of each slot's median time."""
    by_slot = defaultdict(list)
    unscaled_by_slot = defaultdict(list)
    for r in runner.records:
        by_slot[r.label].append(r.seconds * scale(r.start, r.end))
        unscaled_by_slot[r.label].append(r.seconds)
    for label, times in by_slot.items():
        print(f"  {label}: n={len(times)} median {statistics.median(times):.4g} s, "
              f"unscaled {statistics.median(unscaled_by_slot[label]):.4g} s")
    setup_s, *window = setup
    unscaled = sum(r.seconds for r in runner.records)
    print(f"{len(runner.records)} items in {len(by_slot)} slots, "
          f"{unscaled:.3f} s unscaled; {speed.sample_count()} speed samples; "
          f"setup_s {setup_s:.4f} s unscaled")
    return {
        "items_per_s": len(by_slot) / sum(statistics.fmean(t) for t in by_slot.values()),
        "item_s.p50": statistics.median(statistics.median(t) for t in by_slot.values()),
        "setup_s": setup_s * scale(*window),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(runner, args) -> dict[str, float]:
    from perfbench import tracer

    untraced = [
        runner.run_item(item)[0]
        for b in range(runner.round_size)
        for item in runner.batch(b)
    ]
    first_traced = len(runner.records)
    tr = tracer.Tracer()
    tr.install()
    try:
        runner.run(
            args.seconds - sum(untraced),
            on_item=lambda n: tr.begin_item(n - first_traced),
        )
    finally:
        tr.uninstall()
    traced = runner.records[first_traced:]
    overhead = sum(r.seconds for r in traced[: len(untraced)]) / sum(untraced)
    metrics = tr.layer_metrics(len(traced), overhead)
    for name, unit, _ in tracer.PER_LAYER:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    execute_calls = tr.calls_by_item("pipeline.execute")
    unique = [i for i, r in enumerate(traced) if r.kind == "unique"]
    if unique:
        per_item = sum(execute_calls.get(i, 0) for i in unique) / len(unique)
        print(f"pipeline.execute calls per unique item = {per_item:g}")
    path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tr.write(path)
    print(f"spans written to {path.relative_to(ROOT)} ({len(tr.start)} spans)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
