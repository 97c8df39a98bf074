"""polysect benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary goes to standard error, and the full record of the run (per-kind
latencies, failures, output digest, all layer counters) to
``.perfbench/results/``.

--trace 0 reports the end-to-end metrics:
  setup_s          median over separate set-up processes of the time from
                   process start to the first timed request (imports, input
                   generation, pool building, warm-up)
  samples_per_s    requests completed per second of request time
  latency_p50_ms   median request latency
  latency_tail_ms  latency of the highest percentile that has at least ten
                   samples beyond it (the summary names it)
  ops_ok_ratio     requests that passed every check / requests attempted
  peak_rss_mb      peak resident memory of the run (cli-files: the largest
                   CLI child)

--trace 1 runs a fixed number of passes twice, untraced and then traced,
and reports the per-layer metrics of the traced passes plus the tracing
overhead.  The layer values of the traced set-up and warm-up are kept apart,
in the run record's ``setup_layers``.  Counts in a traced run depend only on
the seed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 7

# Machine-speed calibration.  On a shared host the same Python code runs up
# to ~40% slower while neighbours are busy, in phases lasting seconds.  A
# fixed integer loop, timed every CAL_EVERY_S between requests and around the
# set-up probes, slows down with it.  Each request time is scaled by
# CAL_REF_S / (median loop time within CAL_WINDOW_S of the request), and the
# set-up time by CAL_REF_S / (median loop time of the probes): times are
# reported as if the loop took CAL_REF_S.  Raw times stay in the run record.
CAL_LOOP = 30_000
CAL_REF_S = 0.002
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 2.0


def _spin() -> int:
    s = 0
    for i in range(CAL_LOOP):
        s += i * i
    return s


class Calibration:
    def __init__(self):
        self.last = None
        self.times: list[float] = []
        self.loops: list[float] = []

    def tick(self) -> None:
        t0 = perf_counter()
        _spin()
        self.last = perf_counter()
        self.times.append(self.last)
        self.loops.append(self.last - t0)

    def due(self) -> bool:
        return self.last is None or perf_counter() - self.last >= CAL_EVERY_S

    def scale(self, t0=None, t1=None) -> float:
        """CAL_REF_S over the median loop time, near [t0, t1] when given."""
        lo, hi = 0, len(self.loops)
        if t0 is not None:
            lo = bisect.bisect_left(self.times, t0 - CAL_WINDOW_S)
            hi = bisect.bisect_right(self.times, t1 + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.loops[lo:hi] or self.loops)


def _die(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "polysect", "__init__.py")):
        _die(f"no polysect sources under {SRC}; run from a repository checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _import_program() -> float:
    t0 = perf_counter()
    import polysect  # noqa: F401
    import polysect.cli  # noqa: F401  (binds every module the tracer wraps)

    return perf_counter() - t0


# ---------------------------------------------------------------------------
# closed loop


class Outcome:
    def __init__(self):
        self.latencies: list[tuple[str, float]] = []
        self.starts: list[float] = []
        self.cal = Calibration()
        self.failures: list[tuple[str, str]] = []
        self.digest = hashlib.sha256()
        self.passes = 0
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_passes(workload, tracer=None, seconds=None, passes=None) -> Outcome:
    """Run whole passes: a fixed number, or as many as fit in `seconds` (at least one).

    A further pass starts only when the elapsed time plus the last pass's
    duration stays within `seconds`.
    """
    from workloads import CheckFailed

    out = Outcome()
    t_start = perf_counter()
    last = 0.0
    while True:
        elapsed = perf_counter() - t_start
        if passes is not None:
            if out.passes >= passes:
                break
        elif out.passes and elapsed + last > seconds:
            break
        t_pass = perf_counter()
        for i, req in enumerate(workload.pass_requests(out.passes)):
            if tracer is not None:
                tracer.request = f"{out.passes}.{i}"
            if out.cal.due():
                out.cal.tick()
            t0 = perf_counter()
            lat = None
            try:
                result = req.call()
                lat = perf_counter() - t0
                with tracer.pause() if tracer else contextlib.nullcontext():
                    canon = req.check(result)
                out.digest.update(repr(canon).encode())
            except CheckFailed as e:
                out.failures.append((req.kind, str(e)))
                out.digest.update(f"failed {req.kind}".encode())
            except Exception as e:  # the program raised: a failed request
                out.failures.append((req.kind, f"{type(e).__name__}: {e}"))
                out.digest.update(f"failed {req.kind}".encode())
            if lat is None:
                lat = perf_counter() - t0
            out.latencies.append((req.kind, lat))
            out.starts.append(t0)
        last = perf_counter() - t_pass
        out.passes += 1
    out.elapsed = perf_counter() - t_start
    out.cal.tick()
    return out


def scaled_latencies(out: Outcome) -> list[tuple[str, float]]:
    return [
        (kind, lat * out.cal.scale(t0, t0 + lat))
        for (kind, lat), t0 in zip(out.latencies, out.starts)
    ]


def latency_stats(latencies) -> dict:
    lat = sorted(x for _, x in latencies)
    n = len(lat)
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0
    return {
        "n": n,
        "p50_s": statistics.median(lat),
        "tail_s": tail,
        "tail_percentile": pct,
        "tail_beyond": 10 if n > 10 else 0,
        "sum_s": sum(lat),
    }


def _known_breach(kind: str) -> bool:
    from workloads import KNOWN_CONTRACT_BREACHES

    return kind.startswith("malformed-") and kind[len("malformed-"):] in KNOWN_CONTRACT_BREACHES


# ---------------------------------------------------------------------------
# set-up


def make_workload(name, seed, tracer=None):
    from workloads import WORKLOADS

    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    w = WORKLOADS[name](ROOT, seed, work, tracer)
    w.setup()
    w.warmup()
    return w


def probe_setup(name: str, seed: int, cal: Calibration) -> float:
    """Time one set-up in a fresh interpreter, from spawn to its ready line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    for _ in range(3):
        cal.tick()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        _die(f"set-up probe for {name} failed with exit code {code}")
    return ready


def _probe_main(name: str, seed: int) -> None:
    from workloads import WORKLOADS

    if WORKLOADS[name].in_process:
        _import_program()
    w = make_workload(name, seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    shutil.rmtree(w.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(out: Outcome, setup_s: float, rss_mb: float) -> dict:
    st = latency_stats(scaled_latencies(out))
    ok = out.attempted - len(out.failures)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "samples_per_s": {"value": st["n"] / st["sum_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * st["p50_s"], "unit": "ms"},
        "latency_tail_ms": {"value": 1e3 * st["tail_s"], "unit": "ms"},
        "ops_ok_ratio": {"value": ok / out.attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


LAYER_CALLS = (
    "hull.hull_full_dim", "polytope.convex_hull", "polytope.section",
    "geometry.flat_spanning", "geometry.projected_coordinates", "geometry.nullspace",
    "polytope.project", "polytope.contains", "silhouette.shadow_walk",
    "cones.visual_cone", "criteria.epsilon_certificate", "criteria.no_extreme_in_cone",
    "bodies.member", "cones.mirkil_scan", "bodies.sample_section_boundary",
    "criteria.polygonality_detect", "offio.load_polytope", "svg.render_polygon",
)
TESTER_SPANS = (
    "criteria.klee_section_test", "criteria.klee_projection_test", "criteria.visual_cone_test",
)


def per_layer(tracer, import_s: float, extra: dict) -> dict:
    stats = tracer.stats
    counts = tracer.counts

    def calls(name):
        return stats.get(name, [0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0])[1]

    m = {}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["bodies.support.calls"] = (calls("bodies.support"), "count")
    m["cones.cone_member.calls"] = (calls("cones.cone_member"), "count")
    for key in ("points_in", "vertices_out", "facets_out"):
        m[f"hull.hull_full_dim.{key}"] = (counts[f"hull.hull_full_dim.{key}"], "count")
    m["polytope.max_bits"] = (tracer.max_bits, "bits")
    m["polytope.section.misses"] = (counts["polytope.section.misses"], "count")
    m["silhouette.steps"] = (counts["silhouette.steps"], "count")
    m["criteria.tester.self_s"] = (sum(self_s(n) for n in TESTER_SPANS), "s")
    used = counts["criteria.samples_used"]
    effective = used - counts["criteria.coverage_samples"]
    m["criteria.effective_sample_ratio"] = (effective / used if used else 0.0, "ratio")
    m["cli.import_s"] = (import_s, "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.report_bytes"] = (extra.get("report_bytes", 0), "bytes")
    m["offio.bytes_in"] = (counts["offio.bytes_in"], "bytes")
    m["svg.bytes_out"] = (counts["svg.bytes_out"], "bytes")
    m.update(extra.get("overhead", {}))
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


# ---------------------------------------------------------------------------
# modes


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict, Outcome, dict]:
    cal = Calibration()
    probes = [probe_setup(name, seed, cal) for _ in range(SETUP_PROBES)]
    cal.tick()
    setup_s = statistics.median(probes) * cal.scale()
    from workloads import WORKLOADS

    if WORKLOADS[name].in_process:
        _import_program()
    w = make_workload(name, seed)
    out = run_passes(w, seconds=seconds)
    if w.in_process:
        rss = _self_rss_mb()
    else:
        rss = max(w.child_rss_kb) / 1024.0
    shutil.rmtree(w.work, ignore_errors=True)
    info = {
        "setup_probes_raw_s": probes,
        "latency_raw": latency_stats(out.latencies),
        "calibration_loop_s": statistics.median(out.cal.loops),
        "timeline": {
            "requests": [[k, t0, lat] for (k, lat), t0 in zip(out.latencies, out.starts)],
            "ticks": list(zip(out.cal.times, out.cal.loops)),
        },
    }
    return end_to_end(out, setup_s, rss), out, info


def run_traced(name: str, seed: int) -> tuple[dict, Outcome, dict]:
    from tracer import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    import_s = _import_program() if cls.in_process else 0.0
    plain = make_workload(name, seed)
    base = run_passes(plain, passes=cls.trace_passes)
    shutil.rmtree(plain.work, ignore_errors=True)

    tracer = Tracer()
    if cls.in_process:
        tracer.install()
    try:
        traced = make_workload(name, seed, tracer)
        setup_layers = tracer.snapshot()
        tracer.reset()
        if not cls.in_process:
            traced.child_import_s.clear()
            traced.report_bytes = 0
        tracer.request = "0.0"
        out = run_passes(traced, tracer, passes=cls.trace_passes)
    finally:
        tracer.uninstall()
    extra = {}
    if not cls.in_process:
        import_s = statistics.median(traced.child_import_s) if traced.child_import_s else 0.0
        extra["report_bytes"] = traced.report_bytes
    shutil.rmtree(traced.work, ignore_errors=True)
    plain_st = latency_stats(scaled_latencies(base))
    traced_st = latency_stats(scaled_latencies(out))
    sps_plain = plain_st["n"] / plain_st["sum_s"]
    sps_traced = traced_st["n"] / traced_st["sum_s"]
    extra["overhead"] = {
        "trace.samples_per_s_untraced": (sps_plain, "1/s"),
        "trace.samples_per_s_traced": (sps_traced, "1/s"),
        "trace.overhead_samples_per_s": (sps_plain - sps_traced, "1/s"),
    }
    metrics = per_layer(tracer, import_s, extra)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    spans = os.path.join(WORK, "results", f"{name}-seed{seed}-spans.jsonl")
    tracer.write_spans(spans)
    info = {
        "untraced_digest": base.digest.hexdigest(),
        "untraced_failures": base.failures,
        "spans_file": os.path.relpath(spans, ROOT),
        "span_count": len(tracer.spans),
        "all_spans": {k: v for k, v in sorted(tracer.stats.items())},
        "setup_layers": setup_layers,
    }
    if base.digest.hexdigest() != out.digest.hexdigest():
        out.failures.append(("trace", "traced and untraced passes gave different outputs"))
    return metrics, out, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _check_checkout()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.probe_setup:
        _probe_main(args.workload, args.seed)
        return 0
    if args.trace:
        metrics, out, info = run_traced(args.workload, args.seed)
    else:
        metrics, out, info = run_untraced(args.workload, args.seed, args.seconds)

    unexpected = [f for f in out.failures if not _known_breach(f[0])]
    st = latency_stats(scaled_latencies(out))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": out.passes, "elapsed_s": out.elapsed,
        "attempted": out.attempted, "failed": len(out.failures),
        "unexpected_failures": unexpected, "failures": out.failures,
        "latency": st, "digest": out.digest.hexdigest(),
        "per_kind_ms": _per_kind(out), "metrics": metrics, **info,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    _summary(record)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": metrics,
    }))
    return 0


def _per_kind(out: Outcome) -> dict:
    kinds: dict[str, list] = {}
    for kind, lat in out.latencies:
        kinds.setdefault(kind, []).append(lat)
    return {
        k: {"n": len(v), "median_ms": 1e3 * statistics.median(v), "max_ms": 1e3 * max(v)}
        for k, v in sorted(kinds.items())
    }


def _summary(rec: dict) -> None:
    err = sys.stderr
    st = rec["latency"]
    print(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
          f"{rec['passes']} passes, {rec['attempted']} attempted, {rec['failed']} failed "
          f"({len(rec['unexpected_failures'])} unexpected)", file=err)
    if not rec["trace"]:
        print(f"  latency_tail_ms is p{st['tail_percentile']:.1f} of {st['n']} samples "
              f"({st['tail_beyond']} beyond it)", file=err)
    for name, m in rec["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=err)
    for kind, why in rec["failures"]:
        print(f"  failed {kind}: {why}", file=err)


if __name__ == "__main__":
    sys.exit(main())
