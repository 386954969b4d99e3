"""loamsim benchmark: one command, four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload fixed_weak_m4 --seed 1 --seconds 20 --trace 0

Workloads: fixed_weak_m4, rayleigh_m64, oracle_verify, design_scalar (see
workloads.py for why each exists). A run repeats work items for --seconds
seconds (at least 100 items, whole rounds), checks every output, and prints
one line per metric, a manifest line and, last, a JSON result. Results and
trace spans are also written under .bench_out/.

--trace 0 reports the end-to-end metrics, each in the workload's own terms:

    setup_s       fresh interpreter to first work: import loamsim and build
                  and validate the config or scenario list (median of 10)
    peak_rss_mib  the process high-water mark for the workload
    work_per_s    tail_events_per_s on the sweeps (sum over the tail points
                  of (1.96*ser/ci95)^2 per sweep second),
                  oracle_scenarios_per_s, designs_per_s
    item_p50_ms,  median and p90 wall of one item: a sweep, a scenario, or a
    item_p90_ms   ChannelState -> design_loam -> build_detector -> detect cycle

The correctness checks give `attempted` and `failed` (check_fail_frac).

--trace 1 runs each item untraced, traced with spans at loamsim's module
boundaries (spans.py) and, on the sweeps, untraced with one worker, rotating
the order from item to item. It reports per-layer metrics; a layer's time is its spans' self
time as a percentage of the traced wall, so a layer a workload never enters
reads 0 %. Absolute seconds are printed on the report lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 10
WORKLOAD_NAMES = ("fixed_weak_m4", "rayleigh_m64", "oracle_verify", "design_scalar")


def load_loamsim():
    """Import loamsim from this checkout's src/, never from elsewhere."""
    package = SRC / "loamsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no loamsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import loamsim

    if Path(loamsim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported loamsim from {loamsim.__file__}, not {package}")
    return loamsim


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def timed(wl, tally, inp, workers: int) -> float:
    """Run one item, record its output, and return its wall seconds."""
    start = time.perf_counter()
    out = wl.run(inp, workers)
    wall = time.perf_counter() - start
    wl.record(tally, inp, out)
    return wall


def measure(wl, tally, seconds: float, workers: int):
    """Time items until `seconds` have passed, at least `wl.min_items` items
    and a whole round are done; returns the wall seconds of each."""
    walls = []
    deadline = time.perf_counter() + seconds
    while (len(walls) < wl.min_items or len(walls) % wl.round_size
           or time.perf_counter() < deadline):
        walls.append(timed(wl, tally, wl.item(len(walls)), workers))
    return walls


def measure_interleaved(wl, variants, recorder, seconds: float):
    """Run each item once per variant, rotating which variant goes first.

    A variant is (tally, workers, traced). Interleaving keeps machine drift
    out of the differences between variants, such as the tracing overhead.
    Stops like `measure`, after one round at least; returns walls per variant.
    """
    walls = [[] for _ in variants]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.round_size or i % wl.round_size or time.perf_counter() < deadline:
        inp = wl.item(i)
        for k in range(len(variants)):
            v = (i + k) % len(variants)
            tally, workers, traced = variants[v]
            if traced:
                with recorder:
                    walls[v].append(timed(wl, tally, inp, workers))
            else:
                walls[v].append(timed(wl, tally, inp, workers))
        i += 1
    return walls


def setup_seconds(name: str, seed: int, repeats: int) -> list[float]:
    """Walls of fresh interpreters that only set the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _bit_generator(loamsim) -> str:
    # run_sweep does not report its generator; ask the private stream helper
    # and say so when it is gone.
    try:
        return type(loamsim.simulate._block_rng(0, 0, 0, 0).bit_generator).__name__
    except (AttributeError, TypeError):
        return "not measured"


def manifest(loamsim, workloads, name: str, seed: int, workers: int) -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "missing"
    hashes = {}
    for other in WORKLOAD_NAMES:
        text = json.dumps(workloads.WORKLOADS[other](seed).definition(), sort_keys=True)
        hashes[other] = hashlib.sha256(text.encode()).hexdigest()
    return {
        "workload": name,
        "seed": seed,
        "workers": workers,
        "nproc": nproc(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "loamsim": loamsim.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "bit_generator": _bit_generator(loamsim),
        "git_commit": _git_commit(),
        "workload_sha256": hashes,
    }


def _p90(walls) -> float:
    return statistics.quantiles(walls, n=10)[-1]


def end_to_end(wl, tally, walls, setup_s: float, rss: float):
    """JSON metrics and report lines (in the workload's own terms)."""
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss, "MiB"),
        "work_per_s": (tally.work / sum(walls), "1/s"),
        "item_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "item_p90_ms": (_p90(walls) * 1e3, "ms"),
    }
    scale, unit = wl.item_scale
    report = [
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", rss, "MiB"),
        (wl.work_name, metrics["work_per_s"][0], "1/s"),
        (f"{wl.item_name}_p50_{unit}", statistics.median(walls) * scale, unit),
        (f"{wl.item_name}_p90_{unit}", _p90(walls) * scale, unit),
        (f"{wl.item_name}s_timed", len(walls), "count"),
    ]
    return metrics, report


def per_layer(wl, workers, walls_a, tally_a, walls_b, tally_b, summary, walls_c, tally_c):
    """Per-layer JSON metrics and report lines from the traced phase."""
    wall_b = sum(walls_b)
    items_b = len(walls_b)

    def rows(prefix):
        return [row for name, row in summary.items() if name.startswith(prefix)]

    def calls(prefix):
        return sum(row["calls"] for row in rows(prefix))

    def self_s(prefix):
        return sum(row["self_s"] for row in rows(prefix))

    def pct(prefix):
        return 100.0 * self_s(prefix) / wall_b

    rate_n = tally_a.trials / sum(walls_a) if wl.sweeps else 0.0
    rate_1 = tally_c.trials / sum(walls_c) if wl.sweeps else 0.0
    detect_obs = sum(row["work"] for row in rows("detector.detect"))
    detect_s = self_s("detector.detect")
    overhead = wall_b - sum(walls_a)
    metrics = {
        "simulate.trials_per_s": (rate_n, "1/s"),
        "simulate.trials_per_s_1w": (rate_1, "1/s"),
        "simulate.scaling_eff": (rate_n / (workers * rate_1) if rate_1 else 0.0, "ratio"),
        "simulate.self_pct": (pct("simulate."), "%"),
        "simulate.zero_error_trial_frac": (
            tally_a.zero_error_trials / tally_a.trials if tally_a.trials else 0.0, "ratio"),
        "simulate.trials_per_sweep": (tally_a.trials / len(walls_a) if wl.sweeps else 0.0, "count"),
        "constellations.calls_per_item": (calls("constellations.") / items_b, "count"),
        "constellations.self_pct": (pct("constellations."), "%"),
        "detector.build_calls_per_item": (calls("detector.build_detector") / items_b, "count"),
        "detector.build_pct": (pct("detector.build_detector"), "%"),
        "detector.detect_calls_per_item": (calls("detector.detect") / items_b, "count"),
        "detector.detect_pct": (pct("detector.detect"), "%"),
        "detector.detect_obs_per_s": (detect_obs / detect_s if detect_s else 0.0, "1/s"),
        "channel.state_pct": (pct("channel.ChannelState"), "%"),
        "channel.min_distance_pct": (pct("channel.effective_min_distance"), "%"),
        "oracle.ray_calls_per_item": (calls("oracle.oracle_ray_search") / items_b, "count"),
        "oracle.ray_pct": (pct("oracle.oracle_ray_search"), "%"),
        "oracle.free_calls_per_item": (calls("oracle.oracle_free_search_m2") / items_b, "count"),
        "oracle.free_pct": (pct("oracle.oracle_free_search_m2"), "%"),
        "trace.overhead_s": (overhead, "s"),
    }
    report = [
        ("simulate.trials", tally_a.trials, "count"),
        ("simulate.zero_error_trial_frac", metrics["simulate.zero_error_trial_frac"][0], "ratio"),
        ("simulate.trials_per_s", rate_n, "1/s"),
        ("simulate.trials_per_s_1w", rate_1, "1/s"),
        ("simulate.scaling_eff", metrics["simulate.scaling_eff"][0], "ratio"),
        ("simulate.ns_per_trial",
         self_s("simulate.") * 1e9 / tally_b.trials if tally_b.trials else 0.0, "ns"),
        ("simulate.self_s", self_s("simulate."), "s"),
        ("constellations.calls", calls("constellations."), "count"),
        ("constellations.self_s", self_s("constellations."), "s"),
        ("detector.build_calls", calls("detector.build_detector"), "count"),
        ("detector.build_s", self_s("detector.build_detector"), "s"),
        ("detector.detect_calls", calls("detector.detect"), "count"),
        ("detector.detect_s", detect_s, "s"),
        ("detector.detect_ns_per_obs", detect_s * 1e9 / detect_obs if detect_obs else 0.0, "ns"),
        ("channel.state_s", self_s("channel.ChannelState"), "s"),
        ("channel.min_distance_s", self_s("channel.effective_min_distance"), "s"),
        ("oracle.ray_calls", calls("oracle.oracle_ray_search"), "count"),
        ("oracle.ray_s", self_s("oracle.oracle_ray_search"), "s"),
        ("oracle.free_calls", calls("oracle.oracle_free_search_m2"), "count"),
        ("oracle.free_s", self_s("oracle.oracle_free_search_m2"), "s"),
        ("trace.overhead_s", overhead, "s"),
        ("trace.wall_s", wall_b, "s"),
        ("trace.items", items_b, "count"),
    ]
    return metrics, report


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False, setup_repeats: int = SETUP_REPEATS, wl=None):
    """Run one workload.

    Returns the JSON result, the report lines (name, value, unit), the
    manifest, the recorded spans and the failed checks' descriptions.
    """
    import loamsim
    import spans as spanlib
    import workloads

    if wl is None:
        wl = workloads.WORKLOADS[name](seed, tiny=tiny)
    # Only run_sweep fans out; the other workloads run in this thread.
    workers = nproc() if wl.sweeps else 1
    # Set-up time drifts with the machine over seconds, so half the probes run
    # before the timed items and half after them.
    setup_probes = setup_seconds(name, seed, (setup_repeats + 1) // 2) if not trace else []
    wl.setup()
    wl.prepare()
    wl.run(wl.item(0), workers)  # warm-up, not timed
    recorded = []
    not_measured = []
    if not trace:
        tally = workloads.Tally()
        walls = measure(wl, tally, seconds, workers)
        rss = peak_rss_mib()
        setup_probes += setup_seconds(name, seed, setup_repeats // 2)
        wl.finish(tally)
        tallies = [tally]
        metrics, report = end_to_end(wl, tally, walls, statistics.median(setup_probes), rss)
    else:
        tally_a, tally_b, tally_c = workloads.Tally(), workloads.Tally(), workloads.Tally()
        recorder = spanlib.SpanRecorder()
        variants = [(tally_a, workers, False), (tally_b, workers, True)]
        if wl.sweeps:
            variants.append((tally_c, 1, False))  # the plain serial baseline
        walls_a, walls_b, *walls_c = measure_interleaved(wl, variants, recorder, seconds)
        walls_c = walls_c[0] if walls_c else []
        recorded = recorder.spans()
        not_measured = recorder.not_measured
        tallies = [t for t, _, _ in variants]
        for t in tallies:
            wl.finish(t)
        summary = spanlib.summarize(recorded)
        metrics, report = per_layer(
            wl, workers, walls_a, tally_a, walls_b, tally_b, summary, walls_c, tally_c)
        if wl.sweeps:
            # Self times partition the traced sweeps' wall, up to the tracing cost.
            covered = sum(row["self_s"] for row in summary.values())
            residual = sum(walls_b) - covered
            tally_b.check(abs(residual) <= max(abs(metrics["trace.overhead_s"][0]), 1e-3),
                          f"span self times miss the traced wall by {residual:.4g} s")
            report.append(("trace.self_residual_s", residual, "s"))
        report += [("trace.not_measured", target, "hook") for target in not_measured]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    report.append(("check_fail_frac", failed / attempted, "ratio"))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    failures = [f for t in tallies for f in t.failures]
    return result, report, manifest(loamsim, workloads, name, seed, workers), recorded, failures


def _write_outputs(name, seed, trace, result, report, info, recorded, failures) -> None:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    doc = {"manifest": info, "report": report, "failures": failures, "result": result}
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
    if trace:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(recorded[0]._fields if recorded else []) + "\n")
            for s in recorded:
                fh.write(json.dumps(s) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # One process supplies the load: keep numerical libraries single-threaded
    # so that run_sweep's workers are the only threads doing work.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    load_loamsim()
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed).setup()
        return 0
    result, report, info, recorded, failures = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    _write_outputs(args.workload, args.seed, args.trace, result, report, info, recorded, failures)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for metric, value, unit in report:
        print(f"{args.workload} {metric} {value:.6g} {unit}"
              if isinstance(value, float) and math.isfinite(value)
              else f"{args.workload} {metric} {value} {unit}")
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
