"""Run one thetakit benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload treewidth --seed 1 --seconds 20 --trace 0

The run builds the seeded corpus, then runs passes over the workload's ops,
one pass per fresh interpreter and one pass at a time (a closed loop with a
single caller), until ``--seconds`` have gone by.  The first pass validates
every outcome outside its timed region; every later pass must reproduce its
answers exactly.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, and with ``--trace 1`` the per-layer
metrics of traced passes, interleaved with untraced ones to measure the
tracing overhead.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT_S = 150


class PassFailed(RuntimeError):
    pass


def run_pass(payload: bytes, mode: str, spans_path: Path | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    extra = [str(spans_path)] if spans_path is not None else []
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, *extra],
        input=payload, capture_output=True, cwd=ROOT, env=env, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr.decode()[-3000:]}")
    out = json.loads(proc.stdout)
    if not Path(out["library"]).resolve().is_relative_to(ROOT / "src"):
        raise PassFailed(f"thetakit came from {out['library']}, not from this checkout's src/")
    return out


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def succession(part: int, whole: int) -> float:
    """Laplace's rule of succession, (k + 1) / (n + 2): a share that is never 0."""
    return (part + 1) / (whole + 2)


def end_to_end(plain: list[dict], checks: list) -> dict:
    pooled = [t for p in plain for t in p["latencies"]]
    ops = len(checks)
    status = collections.Counter(c[2] for c in checks)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s"),
        "ops_per_s": (statistics.median(len(p["latencies"]) / sum(p["latencies"]) for p in plain), "1/s"),
        "op_p50_ms": (nearest_rank(pooled, 0.5) * 1e3, "ms"),
        "op_p90_ms": (nearest_rank(pooled, 0.9) * 1e3, "ms"),
        "failed_share": (succession(status["failed"], ops), "ratio"),
        "undecided_share": (succession(status["undecided"], ops), "ratio"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["layers"]
    out = {
        name: (statistics.median(p["layers"][name][0] for p in traced), unit)
        for name, (_, unit) in names.items()
    }
    overhead = statistics.median(sum(p["latencies"]) for p in traced) / statistics.median(
        sum(p["latencies"]) for p in plain
    )
    out["trace.overhead"] = (overhead, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thetakit" / "__init__.py").is_file():
        print(f"no thetakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = json.loads(corpus.load_corpus(args.seed))["workloads"][args.workload]
    payload = corpus.dumps(workload)
    spans_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        spans_path.parent.mkdir(exist_ok=True)
    start = time.perf_counter()
    try:
        passes = [run_pass(payload, "checked")]
        modes = itertools.cycle(("traced", "plain") if args.trace else ("plain",))
        while time.perf_counter() - start < args.seconds or (
            args.trace and not any("layers" in p for p in passes)
        ):
            mode = next(modes)
            passes.append(run_pass(payload, mode, spans_path if mode == "traced" else None))
    except (PassFailed, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    plain = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    checks = passes[0]["checks"]
    digests = {p["answers_digest"] for p in passes}
    unexpected = [c for c in checks if c[2] == "failed" and not c[4]]
    failures = collections.Counter((c[1], c[3], c[4]) for c in checks if c[2] == "failed")
    status = collections.Counter(c[2] for c in checks)
    calls = collections.Counter(c[1] for c in checks)

    print(
        f"workload={args.workload} seed={args.seed} passes={len(passes)} ops_per_pass={len(checks)}"
        f" latency_samples={sum(len(p['latencies']) for p in plain)}"
        f" corpus_digest={corpus.digest(payload)} answers_digest={','.join(sorted(digests))}"
    )
    print("calls " + " ".join(f"{fn}={k}" for fn, k in sorted(calls.items())))
    print(f"per pass: failed={status['failed']} undecided={status['undecided']} of {len(checks)}")
    for (fn, kind, known), k in sorted(failures.items()):
        print(f"  failed {fn}: {kind} x{k} ({'known defect' if known else 'UNEXPECTED'})")
    if traced:
        print("span calls " + " ".join(f"{n}={k}" for n, k in sorted(traced[0]["span_counts"].items())))
        print(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, checks)
    print(json.dumps({
        "correct": len(digests) == 1 and not unexpected,
        "attempted": len(checks) * len(passes),
        "failed": status["failed"] * len(passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
