"""Benchmark of qmpc: control-step latency, training time and controller quality.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evap-control --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs each of the workload's fixed episodes twice, once plain
and once with every layer function wrapped by the span tracer, and reports
the per-layer metrics and the tracer's overhead; the spans are written to
``.perfbench_out/``. Either way the program's outputs are checked, the
human-readable report comes first, and the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when a check failed and 2 when the program
could not be loaded.

The workloads are described in ``workloads.py``. ``BENCHMARK.json`` lists
evap-control and lqr-fit. evap-fit runs on request: its training time moves
with the seed by more than any bound the benchmark may set (the interquartile
range of five seeds' medians was half the median). The process runs the
closed loop on one thread, with BLAS pinned to one thread before numpy is
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("evap-control", "evap-fit", "lqr-fit")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("control_step_ms.p50", "ms"),
    ("episode_s", "s"),
    ("mean_cost", "cost"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-probe", action="store_true",
                   help="print the set-up time of a fresh process and exit")
    return p.parse_args(argv)


def _setup_probe(name):
    """Set-up time in this fresh process: import, plant, theta0, backend, first cold solve."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.Workload(name, seed=0)
    wl.first_solve()
    return time.perf_counter() - t0


def _probe_setups(name, n):
    times = []
    for _ in range(n):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.replace(' ', '-')} nproc={len(os.sched_getaffinity(0))} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} threads={threading.active_count()}")


def _run_plain(wl, recorder, seconds):
    """Episodes until the fixed ones are done and the time is used up."""
    episodes, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        episodes.append(wl.episode(len(episodes), recorder))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(episodes) >= wl.spec.episodes and elapsed + statistics.median(walls) > seconds:
            return episodes


def _run_traced(wl, recorder, tracer):
    """Each fixed episode plain, then traced; returns both lists."""
    plain, traced = [], []
    for e in range(wl.spec.episodes):
        plain.append(wl.episode(e, recorder))
        with tracer.installed():
            traced.append(wl.episode(e, recorder, tracer))
    return plain, traced


def _end_to_end(episodes, fixed, setups):
    """End-to-end metrics of an untraced run.

    Episodes are the run's replicates: each has its own disturbance stream
    and, on the fit workloads, its own learned controller. A timing is the
    lower quartile of the episodes' values: on a shared host the same
    episode can take half as long again when other tenants load the
    machine, for seconds or minutes at a time, and the faster episodes
    estimate the program's own cost, while the quartile, unlike the minimum,
    does not follow the single easiest episode. Pooled figures, the tail
    percentiles among them, are printed beside them: a tail percentile moved
    with those spells by more than any bound the benchmark may set.
    """
    timed = [ep for ep in episodes if ep.step_s]
    costs = [c for ep in episodes[:fixed] for c in ep.costs]
    return {
        "setup_s": statistics.median(setups),
        "control_step_ms.p50": 1e3 * _lower_quartile([_quantile(ep.step_s, 0.50) for ep in timed]),
        "episode_s": _lower_quartile([ep.loop_s for ep in episodes]),
        "mean_cost": statistics.fmean(costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _lower_quartile(values):
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def _pooled(episodes):
    steps = [s for ep in episodes for s in ep.step_s]
    return (f"pooled over {len(steps)} steps: mean {1e3 * statistics.fmean(steps):.4g}, "
            + ", ".join(f"p{q} {1e3 * _quantile(steps, q / 100):.4g}" for q in (50, 90, 99)) + " ms")


def _quantile(values, q):
    import numpy

    return float(numpy.quantile(values, q))


def _row(name, value, unit, note=""):
    print(f"  {name:30s} {value:>14.6g} {unit:6s} {note}")


def _report_quality(wl, episodes, fixed):
    """The outcome figures that hold on some workloads only; printed, not gated."""
    eps = episodes[:fixed]
    steps = sum(len(ep.costs) for ep in eps)
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    if wl.spec.train_steps:
        _row("train_s", statistics.median(ep.loop_s for ep in episodes), "s",
             f"learner.train, {wl.spec.train_steps} steps, median of {len(episodes)} episodes")
        ratios = [r for ep in eps for r in ep.sse_ratios]
        if ratios:
            _row("fit_sse_ratio", statistics.fmean(ratios), "ratio", f"sse_after/sse_before, {len(ratios)} windows")
        _row("fit_dropped_pairs", sum(ep.dropped_pairs for ep in episodes), "count", "pair solves dropped in fits")
    gains = [ep.gain_rel_err for ep in eps if ep.gain_rel_err is not None]
    if gains:
        _row("gain_rel_err", statistics.fmean(gains), "ratio", f"|K - K_riccati|/|K_riccati|, {len(gains)} episodes")
    if wl.env.spec.x_lo is not None:
        _row("violation_frac", sum(ep.violations for ep in eps) / max(steps, 1), "ratio",
             f"successor states outside the true bounds, {steps} steps")
    _row("warm_cold_gap", max(ep.warm_cold_gap for ep in episodes), "ratio",
         f"largest |u_warm - u_cold| over the control range, every {wl.spec.check_every}th step")
    _row("fail_frac", failed / max(attempted, 1), "ratio", f"{failed} failed of {attempted} operations")


def main(argv=None):
    args = _parse(argv)
    for var in PIN:
        os.environ[var] = "1"
    if args.setup_probe:
        print(f"{_setup_probe(args.workload):.9f}")
        return 0
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot load qmpc: {exc}", file=sys.stderr)
        return 2
    import tracing

    wl = workloads.Workload(args.workload, args.seed, tiny=args.tiny)
    wl.first_solve()
    fixed = wl.spec.episodes
    print(f"qmpc benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {_environment()}")
    with workloads.FitRecorder() as recorder:
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = _run_traced(wl, recorder, tracer)
            episodes = plain + traced
        else:
            episodes = _run_plain(wl, recorder, args.seconds)
    problems = [p for ep in episodes for p in ep.problems]
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans)
        base = sum(ep.loop_s for ep in plain)
        metrics["trace.overhead_pct"] = (100.0 * (sum(ep.loop_s for ep in traced) / base - 1.0), "%")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(span_file)
        print(f"per-layer metrics over {len(traced)} traced episodes ({len(tracer.spans)} spans in {span_file.name}):")
        for name, (value, unit) in metrics.items():
            _row(name, value, unit)
        if wl.spec.train_steps:
            train = sum(ep.loop_s for ep in traced)
            _row("learner.batch_fit.share", metrics["learner.batch_fit.s"][0] / train, "ratio",
                 "batch_fit time (self and children) over traced train time")
    else:
        setups = _probe_setups(args.workload, 1 if args.tiny else SETUP_PROBES)
        values = _end_to_end(episodes, fixed, setups)
        steps = sum(len(ep.step_s) for ep in episodes)
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes: " + " ".join(f"{t:.3f}" for t in setups),
            "control_step_ms.p50": f"lower quartile of {len(episodes)} episodes; {_pooled(episodes)}",
            "episode_s": (f"lower quartile of {len(episodes)} episodes; median "
                          f"{statistics.median(ep.loop_s for ep in episodes):.4g} s"),
            "mean_cost": f"stage cost of the first {fixed} episodes",
            "peak_rss_mb": "this process",
        }
        print("end-to-end metrics:")
        metrics = {}
        for name, unit in END_TO_END:
            metrics[name] = (values[name], unit)
            _row(name, values[name], unit, notes[name])
        print("outcome figures:")
        _report_quality(wl, episodes, fixed)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
