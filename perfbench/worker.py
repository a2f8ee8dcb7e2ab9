"""One pass of one workload in a fresh interpreter.

Usage: ``python3 worker.py <mode> [spans.jsonl]`` with the workload's corpus
as JSON on standard input; ``mode`` is ``checked`` (validate every outcome
after the timed loop), ``plain`` or ``traced``.  Prints one JSON object.  A
traced pass writes its spans to the optional file, one JSON list per line:
name, start, end, index of the parent span, index of the op, note.  A fresh
interpreter per pass means every pass starts with thetakit's caches empty
and pays its own set-up, which ``setup_s`` measures.

Times are CPU seconds scaled to a reference core.  Between chunks of about
20 ms of ops the worker times ``calibrate``, a fixed bitset search written
here and independent of thetakit, and scales the chunk's latencies by
REFERENCE_S over the mean of the calibrations before and after it.  On a
shared machine the speed of a core moves with its neighbours' load, by up
to 1.8x within a minute; the calibration search slows with it, so the
scaled times keep thetakit's own cost.
"""

import collections
import hashlib
import json
import random
import resource
import sys
import time

CLOCK = time.process_time
REFERENCE_S = 330e-6  # calibrate() between ops on an uncontended core of the machine in README.md
CHUNK_S = 0.02

_rng = random.Random(7)
_ADJ = [0] * 24
for _u in range(24):
    for _v in range(_u + 1, 24):
        if _rng.random() < 0.3:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u


def _walk(last: int, banned: int, depth: int, out: list) -> None:
    out.append(last)
    if depth:
        rest = _ADJ[last] & ~banned
        while rest:
            low = rest & -rest
            rest ^= low
            _walk(low.bit_length() - 1, banned | _ADJ[last] | low, depth - 1, out)


def _scale(before: float, after: float) -> float:
    """Factor from measured CPU time to reference-core time, from two calibrations."""
    return 2 * REFERENCE_S / (before + after)


def calibrate() -> float:
    """CPU time of a fixed induced-path enumeration, in the style of thetakit's searches."""
    start = CLOCK()
    for root in (0, 1):
        out: list[int] = []
        _walk(root, 1 << root, 4, out)
        seen: dict[int, int] = {}
        for v in out:
            seen[v] = seen.get(v, 0) + 1
    return CLOCK() - start


def _per_round(body) -> float:
    """Scaled CPU seconds per call of ``body``, over at least 0.2 s and 3 calls."""
    before = calibrate()
    rounds, start = 0, CLOCK()
    while rounds < 3 or CLOCK() - start < 0.2:
        body()
        rounds += 1
    spent = CLOCK() - start
    return spent / rounds * _scale(before, calibrate())


def _microbenchmarks(ops) -> dict:
    """Untraced timings of two bitset primitives on the pass's own graphs."""
    from thetakit import graphs

    hosts = list({id(g): g for op in ops for g in op.args.values() if isinstance(g, graphs.Graph)}.values())
    masks = [m for g in hosts for m in g.adj]
    halves = [(g, sum(1 << v for v in range(0, g.n, 2))) for g in hosts]

    def walk_bits():
        for m in masks:
            for _ in graphs.iter_bits(m):
                pass

    def take_halves():
        for g, half in halves:
            graphs.induced_subgraph(g, half)

    bits = max(sum(m.bit_count() for m in masks), 1)
    return {
        "graphs.iter_bits_ns_per_bit": (_per_round(walk_bits) / bits * 1e9, "ns"),
        "graphs.induced_subgraph_us": (_per_round(take_halves) / max(len(hosts), 1) * 1e6, "us"),
    }


def _digest(ops, outcomes, canonical) -> str:
    h = hashlib.sha256()
    for op, (out, error) in zip(ops, outcomes):
        h.update(f"{op.label}\t{canonical(error if error is not None else out)!r}\n".encode())
    return h.hexdigest()[:16]


def main() -> int:
    mode = sys.argv[1]
    raw = sys.stdin.buffer.read()
    calibrate()
    before = calibrate()
    start = CLOCK()
    spec = json.loads(raw)
    import ops as benchops
    import thetakit

    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ops = benchops.setup(spec)
    setup_s = CLOCK() - start
    after = calibrate()
    setup_s *= _scale(before, after)

    outcomes, latencies = [], []
    before, chunk_start, pending = after, 0, 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = CLOCK()
        try:
            out, error = benchops.call(op), None
        except Exception as e:  # a failed op is an outcome to count, not a crash
            out, error = None, e
        latencies.append(CLOCK() - t0)
        outcomes.append((out, error))
        pending += latencies[-1]
        if pending >= CHUNK_S or i == len(ops) - 1:
            after = calibrate()
            scale = _scale(before, after)
            latencies[chunk_start:] = [t * scale for t in latencies[chunk_start:]]
            before, chunk_start, pending = after, i + 1, 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "rss_mb": rss_mb,
        "answers_digest": _digest(ops, outcomes, benchops.canonical),
        "library": thetakit.__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer.spans)
        layers.update(_microbenchmarks(ops))
        result["layers"] = layers
        result["span_counts"] = dict(collections.Counter(s.name for s in tracer.spans))
        if len(sys.argv) > 2:
            with open(sys.argv[2], "w") as out:
                out.writelines(json.dumps(list(s)) + "\n" for s in tracer.spans)
    if mode == "checked":
        result["checks"] = []
        for op, (out, error) in zip(ops, outcomes):
            status, kind = benchops.classify(op, out, error)
            result["checks"].append([op.label, op.fn, status, kind, benchops.is_known(op, kind)])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
