"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import json
import math

import pytest

import run

run.load_loamsim()

import loamsim  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3

# Metrics the report lines carry by the names the workloads are judged by.
REPORTED = {
    "fixed_weak_m4": {"tail_events_per_s": "1/s", "sweep_p50_ms": "ms", "sweep_p90_ms": "ms"},
    "rayleigh_m64": {"tail_events_per_s": "1/s", "sweep_p50_ms": "ms", "sweep_p90_ms": "ms"},
    "oracle_verify": {
        "oracle_scenarios_per_s": "1/s",
        "scenario_p50_ms": "ms",
        "scenario_p90_ms": "ms",
    },
    "design_scalar": {"designs_per_s": "1/s", "design_p50_us": "us", "design_p90_us": "us"},
}
REPORTED_ALWAYS = {"setup_s": "s", "peak_rss_mib": "MiB", "check_fail_frac": "ratio"}
REPORTED_TRACED = {
    "simulate.trials": "count",
    "simulate.zero_error_trial_frac": "ratio",
    "simulate.trials_per_s": "1/s",
    "simulate.trials_per_s_1w": "1/s",
    "simulate.scaling_eff": "ratio",
    "simulate.ns_per_trial": "ns",
    "simulate.self_s": "s",
    "constellations.calls": "count",
    "constellations.self_s": "s",
    "detector.build_calls": "count",
    "detector.build_s": "s",
    "detector.detect_calls": "count",
    "detector.detect_s": "s",
    "detector.detect_ns_per_obs": "ns",
    "channel.state_s": "s",
    "channel.min_distance_s": "s",
    "oracle.ray_calls": "count",
    "oracle.ray_s": "s",
    "oracle.free_calls": "count",
    "oracle.free_s": "s",
    "trace.overhead_s": "s",
    "check_fail_frac": "ratio",
}


def _run(name, trace, wl=None):
    result, report, _info, _spans, failures = run.run_workload(
        name, SEED, 0.0, trace, tiny=True, setup_repeats=1, wl=wl
    )
    return result, {metric: unit for metric, _value, unit in report}, failures


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, reported, failures = _run(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, failures
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    expected = REPORTED_TRACED if trace else {**REPORTED_ALWAYS, **REPORTED[name]}
    assert {k: reported.get(k) for k in expected} == expected


def _wrong_fixed():
    wl = workloads.FixedWeakM4(SEED, tiny=True)
    right = wl.reference_ser
    wl.reference_ser = lambda scheme, snr: min(1.0, 2.0 * right(scheme, snr))
    return wl


def _wrong_rayleigh():
    wl = workloads.RayleighM64(SEED, tiny=True)
    right = wl.reference_csv
    wl.reference_csv = lambda config: right(config).replace("loam,64,0,", "loam,64,1,")
    return wl


def _wrong_design():
    wl = workloads.DesignScalar(SEED, tiny=True)
    wl.reference_detect = lambda z, radii: (reference.nearest_level(z, radii) + 1) % len(radii)
    return wl


@pytest.mark.parametrize(
    "name, make",
    [
        ("fixed_weak_m4", _wrong_fixed),
        ("rayleigh_m64", _wrong_rayleigh),
        ("oracle_verify", None),
        ("design_scalar", _wrong_design),
    ],
)
def test_gate_fails_on_a_wrong_reference(name, make, monkeypatch):
    if make is None:
        # The ray-search oracle is the design's reference: make it 5 % off.
        right = loamsim.oracle_ray_search

        def wrong(*args, **kwargs):
            found = right(*args, **kwargs)
            return found._replace(min_distance=1.05 * found.min_distance)

        monkeypatch.setattr(loamsim, "oracle_ray_search", wrong)
        wl = None
    else:
        wl = make()
    result, reported, failures = _run(name, False, wl)
    assert result["failed"] > 0 and not result["correct"]
    assert failures


def test_missing_hook_target_is_not_measured():
    recorder = spans.SpanRecorder(
        hooks=(("loamsim", "no_such_function", "x.gone"), ("loamsim", "detect", "detector.detect"))
    )
    with recorder:
        loamsim.detect(loamsim.build_detector([0, 1], 1, 0), [0.2, 0.9])
    assert recorder.not_measured == ["loamsim.no_such_function"]
    assert [(s.name, s.work) for s in recorder.spans()] == [("detector.detect", 2)]
