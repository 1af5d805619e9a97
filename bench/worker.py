"""One benchmark child process: set-up, then operations for a fixed time.

Started by run.py, never by hand.  The clock starts before the library is
imported, so ``setup_s`` covers the import, kernel construction and
initial signals: what every CLI invocation pays before its first
quadrature.  Prints one JSON object on its last line of output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# The machine's speed swings by +-30% over seconds to minutes (other
# tenants of the host).  A fixed pure-Python loop, run from a timer signal
# every PROBE_INTERVAL_S in the measuring thread itself, samples that speed
# while the library runs; timings are reported at the speed where one
# probe takes PROBE_REF_S, scaled by the probe's 10%-trimmed mean time.
# The probe's own time (~0.4%) is subtracted.
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 2.0e-4


class SpeedProbe:
    def __init__(self):
        self.samples = []

    def _probe(self, signum, frame):
        t = time.perf_counter()
        s = 0.0
        for i in range(3000):
            s += i * 0.5
        self.samples.append(time.perf_counter() - t)

    def start(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self, elapsed: float) -> tuple[float, float]:
        """(elapsed minus probe time, the same at the reference speed)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw = elapsed - sum(self.samples)
        if not self.samples:  # interval shorter than the timer period
            self._probe(None, None)
        ordered = sorted(self.samples)
        k = len(ordered) // 10
        return raw, raw * PROBE_REF_S / statistics.mean(ordered[k : len(ordered) - k])



def _versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    from tracer import NullTracer, Tracer, derived_panels, layer_metrics, SELF_METRIC
    from workloads import WORKLOADS, Tally

    os.makedirs(args.out, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.out)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        sid = tracer.open("bench.setup")
    wl.setup()
    setup_raw_s, setup_s = probe.stop(time.perf_counter() - T0)
    if tracer:
        tracer.close(sid)
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    notes = wl.prepare_oracles()
    null = NullTracer()
    walls, traced_walls, raw_walls = [], [], []
    total = Tally()
    points_per_op = None
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced operations
        traced = tracer is not None and len(traced_walls) < len(walls)
        if traced:
            tracer.install()
            sid = tracer.open("bench.op")
        probe.start()
        t = time.perf_counter()
        tally = wl.op(tracer if traced else null)
        raw, dt = probe.stop(time.perf_counter() - t)
        if traced:
            tracer.close(sid)
            tracer.uninstall()
            traced_walls.append(dt)
        else:
            walls.append(dt)
            raw_walls.append(raw)
        total.attempted += tally.attempted
        total.failed += tally.failed
        notes.extend(tally.notes[: max(0, 20 - len(notes))])
        points_per_op = tally.points
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced_walls):
            break

    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "walls": walls,
        "raw_walls": raw_walls,
        "points_per_op": points_per_op,
        "attempted": total.attempted,
        "failed": total.failed,
        "notes": notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer:
        spans = tracer.arrays()
        lm = layer_metrics(spans, len(traced_walls))
        layers = lm["metrics"]
        # both at the reference speed, unlike the raw span times
        layers["trace.overhead_s"] = statistics.mean(traced_walls) - statistics.mean(walls)
        checks = []
        if lm["unmapped"]:
            checks.append(f"spans charged to no layer: {lm['unmapped']}")
        charged = sum(layers[k] for k in set(SELF_METRIC.values()))
        if abs(charged - layers["trace.wall_s"]) > 1e-9 * max(1.0, layers["trace.wall_s"]):
            checks.append(f"self times {charged!r} s do not add up to traced wall {layers['trace.wall_s']!r} s")
        mismatched = [(d, r) for d, r in derived_panels(spans) if d != r]
        if mismatched:
            checks.append(f"derived panels disagree with QuadratureResult: {mismatched[:5]}")
        notes.extend(checks)
        result["layers"] = layers
        result["traced_walls"] = traced_walls
        tracer.save(os.path.join(args.out, "spans.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
