import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

CONFIG = {
    "schemes": ["loam", "pam", "qam", "psk"],
    "order": 4,
    "snr_grid_db": [0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60],
    "trials_per_point": 2000,
    "seed": 42,
    "power": 1.0,
    "channel_mode": {"mode": "fixed_channel", "h": [1.0, 0.0]},
    "reference_mode": {"mode": "zero"},
}


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, **kwargs):
    # The child does not see conftest's sys.path insert, so it gets the
    # checkout's src first on PYTHONPATH, and the suite runs uninstalled.
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": _SRC + os.pathsep + path if path else _SRC}
    return subprocess.run(
        [sys.executable, "-m", "loamsim", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def test_version():
    result = run_cli("--version")
    assert result.returncode == 0
    assert "0.1.0" in result.stdout


def test_design_strong_reference_json():
    result = run_cli(
        "design", "--h-re", "1", "--h-im", "0", "--b-re", "2", "--b-im", "0",
        "--power", "1", "--order", "4", "--scheme", "loam",
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["regime"] == "StrongReference"
    assert doc["spacing"] == pytest.approx(0.894427, rel=1e-5)
    assert list(doc.keys()) == [
        "scheme", "order", "regime", "ray_phase", "spacing", "points", "magnitudes",
    ]


def test_design_baseline_json():
    result = run_cli("design", "--h-re", "1", "--power", "1", "--order", "4", "--scheme", "psk")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["scheme"] == "PSK"
    assert doc["regime"] is None
    assert doc["ray_phase"] is None
    assert doc["spacing"] is None
    assert np.allclose(doc["magnitudes"], 1.0)


def test_design_rejects_order_one():
    result = run_cli("design", "--h-re", "1", "--power", "1", "--order", "1")
    assert result.returncode == 2
    assert "usage: loamsim design" in result.stderr
    assert "order must be >= 2" in result.stderr
    assert result.stdout == ""


def test_design_rejects_non_square_qam():
    result = run_cli(
        "design", "--h-re", "1", "--power", "1", "--order", "8", "--scheme", "qam"
    )
    assert result.returncode == 2
    assert "usage: loamsim design" in result.stderr
    assert "square" in result.stderr


def test_design_out_file(tmp_path):
    out = tmp_path / "design.json"
    result = run_cli(
        "design", "--h-re", "1", "--power", "1", "--order", "4",
        "--scheme", "pam", "--b-re", "0.5", "--out", str(out),
    )
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["scheme"] == "PAM"
    assert doc["regime"] is None


@pytest.mark.parametrize(
    "scheme,flag,value",
    [("pam", "--power", "nan"), ("psk", "--power", "inf"), ("qam", "--h-re", "inf"),
     ("pam", "--b-im", "nan")],
)
def test_design_rejects_non_finite_inputs(scheme, flag, value):
    args = {"--h-re": "1", "--power": "1", flag: value}
    result = run_cli(
        "design", *(x for pair in args.items() for x in pair), "--order", "4",
        "--scheme", scheme,
    )
    assert result.returncode == 1
    assert "finite" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("scheme", ["pam", "qam", "psk", "loam"])
def test_design_rejects_zero_channel_gain(scheme):
    result = run_cli(
        "design", "--h-re", "0", "--h-im", "0", "--b-re", "1", "--power", "1",
        "--order", "4", "--scheme", scheme,
    )
    assert result.returncode == 1
    assert "design failed: channel gain h must be nonzero" in result.stderr
    assert result.stdout == ""


def test_sweep_rejects_integer_beyond_float_range(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG).replace('"power": 1.0', '"power": 1' + "0" * 400))
    result = run_cli("sweep", str(cfg))
    assert result.returncode == 1
    assert "invalid config: power:" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"channel_mode": {"mode": "fixed_channel", "h": [1e200, 0]}},
         "invalid config: channel_mode.h:"),
        ({"channel_mode": {"mode": "fixed_channel", "h": [1e-200, 0]}},
         "invalid config: channel_mode.h:"),
        ({"reference_mode": {"mode": "fixed_value", "b": [1e200, 0]}},
         "invalid config: reference_mode.b:"),
        ({"channel_mode": {"mode": "rayleigh_per_trial"}, "snr_grid_db": [0, -4000]},
         "invalid config: snr_grid_db[1]:"),
        ({"snr_grid_db": [4000]}, "invalid config: snr_grid_db[0]:"),
        # |b| so far above the spacing that LOAM's levels round together.
        ({"reference_mode": {"mode": "threshold_ratio", "ratio": 1e24}},
         "invalid config: reference_mode.ratio:"),
    ],
)
def test_sweep_rejects_values_whose_squares_leave_the_float_range(tmp_path, overrides, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, **overrides}))
    result = run_cli("sweep", str(cfg))
    assert result.returncode == 1
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "flags",
    [("--b-re", "1e200"), ("--h-re", "1e300", "--b-re", "1e300"),
     ("--h-re", "1e-200", "--b-re", "1e-201"), ("--power", "1e308"),
     ("--h-re", "1.5e308", "--h-im", "1.5e308"), ("--b-re", "1.5e308", "--b-im", "1.5e308"),
     # Within the range rule, but LOAM's receive levels round together.
     ("--b-re", "1e20")],
)
def test_design_reports_overflow_without_traceback(flags):
    args = {"--h-re": "1", "--power": "1", "--order": "4"}
    result = run_cli("design", *(x for pair in args.items() for x in pair), *flags)
    assert result.returncode == 1
    assert "design failed:" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("scheme,b_re", [("loam", "1e8"), ("loam", "1e11"), ("pam", "1e20")])
def test_design_refuses_only_folded_loam(scheme, b_re):
    """LOAM at b = 1e8 keeps its levels apart, and so at b = 1e11, where its
    gaps are 9e-12 of the levels; a baseline prints its fold."""
    result = run_cli("design", "--h-re", "1", "--power", "1", "--order", "4",
                     "--b-re", b_re, "--scheme", scheme)
    assert result.returncode == 0
    assert len(json.loads(result.stdout)["magnitudes"]) == 4


def test_sweep_row_count_and_reproducibility(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    first = run_cli("sweep", str(cfg))
    second = run_cli("sweep", str(cfg), "--threads", "8")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.strip().split("\n")
    assert lines[0] == "scheme,order,snr_db,trials,errors,ser,ci95"
    assert len(lines) - 1 == 52  # 4 schemes x 13 SNR points


def test_sweep_json_mirror(tmp_path):
    cfg = tmp_path / "cfg.json"
    doc = dict(CONFIG)
    doc["snr_grid_db"] = [0, 10]
    doc["schemes"] = ["pam"]
    cfg.write_text(json.dumps(doc))
    mirror = tmp_path / "points.json"
    result = run_cli("sweep", str(cfg), "--json-out", str(mirror))
    assert result.returncode == 0
    rows = json.loads(mirror.read_text())
    assert len(rows) == 2
    assert rows[0]["scheme"] == "pam"


def test_sweep_rejects_zero_trials(tmp_path):
    cfg = tmp_path / "cfg.json"
    doc = dict(CONFIG)
    doc["trials_per_point"] = 0
    cfg.write_text(json.dumps(doc))
    result = run_cli("sweep", str(cfg))
    assert result.returncode == 1
    assert "trials_per_point" in result.stderr


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sweep_rejects_threads_below_one(tmp_path, threads):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    result = run_cli("sweep", str(cfg), "--threads", threads)
    assert result.returncode == 2
    assert "usage: loamsim sweep" in result.stderr
    assert "--threads" in result.stderr
    assert result.stdout == ""


def test_sweep_rejects_bad_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    result = run_cli("sweep", str(cfg))
    assert result.returncode == 1
    assert "JSON" in result.stderr


def test_verify_m2_reports_collinearity():
    result = run_cli("verify", "--order", "2", "--scenarios", "1", "--seed", "7")
    assert result.returncode == 0
    assert "free-search collinearity" in result.stdout
    assert "free-search vs ray-search" in result.stdout
    assert "FAIL" not in result.stdout


def test_verify_m4_reports_spacing_check():
    result = run_cli("verify", "--order", "4", "--scenarios", "1")
    assert result.returncode == 0
    assert "ray-search vs closed-form spacing" in result.stdout
    assert "FAIL" not in result.stdout


def test_verify_deterministic():
    args = ("verify", "--order", "4", "--scenarios", "1", "--seed", "7")
    assert run_cli(*args).stdout == run_cli(*args).stdout


@pytest.mark.parametrize(
    "args,flag",
    [
        (("verify", "--order", "1"), "--order"),
        (("verify", "--order", "0"), "--order"),
        (("verify", "--order", "2", "--grid", "10"), "--grid"),  # retired: the free search is exact
        (("verify", "--scenarios", "0"), "--scenarios"),
        (("verify", "--scenarios", "-2"), "--scenarios"),
        (("verify", "--steps", "200"), "--steps"),  # retired: the ray search is exact
        # Rejected before the (missing) config is read, which would exit 1.
        (("sweep", "missing.json", "--bogus"), "--bogus"),
        (("design", "--h-re", "1", "--power", "1", "--order", "4", "--bogus", "3"), "--bogus"),
        # Rejected before numpy's generator refuses it with a traceback.
        (("verify", "--seed", "-1"), "--seed"),
    ],
)
def test_verify_rejects_bad_arguments(args, flag):
    """Usage errors, leftover arguments included, print the subcommand's usage."""
    result = run_cli(*args)
    assert result.returncode == 2
    assert flag in result.stderr
    if flag in ("--grid", "--steps", "--bogus"):
        assert "unrecognized arguments" in result.stderr
    assert f"usage: loamsim {args[0]}" in result.stderr
    assert result.stdout == ""
