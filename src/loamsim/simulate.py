"""Seeded, shardable Monte-Carlo symbol-error-rate engine.

Trials are grouped into fixed-size blocks; every (scheme, SNR point, block)
triple owns a private counter-based random stream derived from the sweep seed
via Philox, and block results reduce by integer summation. Sweep output is
therefore bit-identical for any worker count.

Two channel modes are supported: a fixed complex gain, and an independent
Rayleigh draw per trial. The adaptive scheme is redesigned for every channel
realization (the transmitter knows h and b); baseline alphabets stay fixed.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channel import ChannelState, snr_db_to_sigma2
from .constellations import (
    SCHEMES,
    _fmt,
    _spacing_root,
    _strong_reference,
    design_loam,
    spacing_strong,
    strong_reference_threshold,
)
from .detector import build_detector

__all__ = [
    "FixedChannel",
    "RayleighPerTrial",
    "ZeroReference",
    "FixedReference",
    "ThresholdRatioReference",
    "SweepConfig",
    "SerPoint",
    "ConfigError",
    "run_sweep",
    "sweep_config_from_dict",
    "theoretical_ser_asymptotic",
    "ser_points_to_csv",
    "ser_points_to_json",
]

_BLOCK = 16384  # trials per random-stream block; fixed so results never
# depend on how blocks are assigned to workers


@dataclass(frozen=True)
class FixedChannel:
    """Single channel realization used for every trial."""

    h: complex


@dataclass(frozen=True)
class RayleighPerTrial:
    """Independent complex Gaussian gain (unit mean power) per trial."""


@dataclass(frozen=True)
class ZeroReference:
    """No reference signal (b = 0)."""

    b: ClassVar[complex] = 0j


@dataclass(frozen=True)
class FixedReference:
    """Explicit complex reference value."""

    b: complex


@dataclass(frozen=True)
class ThresholdRatioReference:
    """Reference power pinned to a fraction of the strong-reference threshold.

    Sets |b|^2 = ratio * 3*P*(M-1)*|h|^2/(M+1). The phase of b is 0 under a
    fixed channel and uniform per trial under per-trial fading.
    """

    ratio: float


class ConfigError(ValueError):
    """Invalid sweep configuration; `path` names the first offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _real(x) -> bool:
    """An int or float; bools (JSON true/false) are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x) -> bool:
    """A finite int or float, the test validate applies to every number."""
    return _real(x) and (isinstance(x, int) or math.isfinite(x))


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite_complex(z) -> bool:
    z = complex(z)
    return _number(z.real) and _number(z.imag)


# Config readers check types only; validate rejects non-finite values under
# the same key path.
def _read_number(value, path: str) -> float:
    if not _real(value):
        raise ConfigError(path, f"must be a number, got {value!r}")
    return float(value)


def _read_pair(value, path: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_real, value))):
        raise ConfigError(path, f"must be a [re, im] pair of numbers, got {value!r}")
    return complex(value[0], value[1])


# Config name of every channel and reference mode. The fields of a mode's
# dataclass are its config keys besides "mode"; _FIELDS reads and checks each.
_MODES = {
    "channel_mode": {"fixed_channel": FixedChannel, "rayleigh_per_trial": RayleighPerTrial},
    "reference_mode": {
        "zero": ZeroReference,
        "fixed_value": FixedReference,
        "threshold_ratio": ThresholdRatioReference,
    },
}
_FIELDS = {  # field: (config reader, check, requirement)
    "h": (_read_pair, lambda h: _finite_complex(h) and h != 0, "finite and nonzero"),
    "b": (_read_pair, _finite_complex, "finite"),
    "ratio": (_read_number, lambda r: _number(r) and r >= 0, "a finite number >= 0"),
}


@dataclass(frozen=True)
class SweepConfig:
    schemes: tuple
    order: int
    snr_grid_db: tuple
    trials_per_point: int
    seed: int
    channel_mode: object
    reference_mode: object
    power: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))

    def validate(self) -> None:
        for i, scheme in enumerate(self.schemes):
            if not isinstance(scheme, str) or scheme not in SCHEMES:
                raise ConfigError(f"schemes[{i}]", f"unknown scheme {scheme!r}")
        if not self.schemes:
            raise ConfigError("schemes", "must list at least one scheme")
        if not _integer(self.order) or self.order < 2:
            raise ConfigError("order", f"must be an integer >= 2, got {self.order!r}")
        for i, scheme in enumerate(self.schemes):
            if scheme == "qam" and math.isqrt(self.order) ** 2 != self.order:
                raise ConfigError(
                    f"schemes[{i}]", f"qam requires a square order, got {self.order}"
                )
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db", "must list at least one SNR point")
        for i, snr in enumerate(self.snr_grid_db):
            if not _number(snr):
                raise ConfigError(f"snr_grid_db[{i}]", f"must be finite, got {snr!r}")
        if not _integer(self.trials_per_point) or self.trials_per_point < 1000:
            raise ConfigError(
                "trials_per_point",
                f"must be an integer >= 1000, got {self.trials_per_point!r}",
            )
        if not _integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed", f"must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (_number(self.power) and self.power > 0):
            raise ConfigError("power", f"must be a finite number > 0, got {self.power!r}")
        for key in ("channel_mode", "reference_mode"):
            mode = getattr(self, key)
            if type(mode) not in _MODES[key].values():
                raise ConfigError(key, f"unknown mode {mode!r}")
            for field in dataclasses.fields(mode):
                value = getattr(mode, field.name)
                _, ok, requirement = _FIELDS[field.name]
                if not ok(value):
                    raise ConfigError(
                        f"{key}.{field.name}", f"must be {requirement}, got {value!r}"
                    )


@dataclass(frozen=True)
class SerPoint:
    scheme: str
    order: int
    snr_db: float
    trials: int
    errors: int
    ser: float
    ci95_halfwidth: float


def _scheme_points(scheme: str, state: ChannelState) -> np.ndarray:
    gen = SCHEMES[scheme]
    if gen is None:
        return design_loam(state).points
    return gen(state.power, state.order).points


def theoretical_ser_asymptotic(delta: float, sigma2: float, order: int) -> float:
    """High-amplitude Gaussian approximation of the folded-noise SER.

    SER ~= 2*(M-1)/M * Q(delta / (2*sqrt(sigma2/2))): the amplitude noise is
    approximately Gaussian with deviation sqrt(sigma2/2) when the receive
    levels sit far above it, interior symbols err on two sides and edge
    symbols on one.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if order < 2:
        raise ValueError("order must be >= 2")
    q_arg = delta / (2.0 * math.sqrt(sigma2 / 2.0))
    q = 0.5 * math.erfc(q_arg / math.sqrt(2.0))
    return 2.0 * (order - 1) / order * q


# --------------------------------------------------------------------------
# Block simulation kernels
# --------------------------------------------------------------------------

def _block_rng(seed: int, scheme_idx: int, snr_idx: int, block_idx: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(scheme_idx, snr_idx, block_idx))
    return np.random.Generator(np.random.Philox(ss))


def _normal_pair(rng: np.random.Generator, n: int):
    return rng.standard_normal(n), rng.standard_normal(n)


def _fixed_block(rng, n, sigma2, order, mu, thresholds, decision_index):
    symbols = rng.integers(0, order, size=n)
    n_re, n_im = _normal_pair(rng, n)
    noise = (n_re + 1j * n_im) * math.sqrt(sigma2 / 2.0)
    z = np.abs(mu[symbols] + noise)
    slots = np.searchsorted(thresholds, z, side="left")
    return int(np.count_nonzero(decision_index[slots] != symbols))


def _resolve_fixed_reference(reference_mode, h: complex, power: float, order: int) -> complex:
    if isinstance(reference_mode, ThresholdRatioReference):
        ratio = reference_mode.ratio
        return complex(math.sqrt(ratio * strong_reference_threshold(power, order, abs(h))))
    return complex(reference_mode.b)


def _rayleigh_block(rng, n, sigma2, order, power, scheme, reference_mode):
    symbols = rng.integers(0, order, size=n)
    h_re, h_im = _normal_pair(rng, n)
    h = (h_re + 1j * h_im) / math.sqrt(2.0)

    if isinstance(reference_mode, ThresholdRatioReference):
        # A zero-magnitude fade is a measure-zero event but would divide below.
        h_mag = np.maximum(np.abs(h), 1e-300)
        mag = np.sqrt(reference_mode.ratio * strong_reference_threshold(power, order, h_mag))
        phase = rng.uniform(0.0, 2.0 * math.pi, size=n)
        b = mag * np.exp(1j * phase)
    else:
        b = np.full(n, complex(reference_mode.b))

    n_re, n_im = _normal_pair(rng, n)
    noise = (n_re + 1j * n_im) * math.sqrt(sigma2 / 2.0)

    if scheme == "loam":
        return _loam_fading_errors(symbols, h, b, noise, power, order)
    points = SCHEMES[scheme](power, order).points
    mu = h[:, None] * points[None, :] + b[:, None]
    r_mat = np.abs(mu)
    z = np.abs(mu[np.arange(n), symbols] + noise)
    detected = np.argmin(np.abs(z[:, None] - r_mat), axis=1)
    return int(np.count_nonzero(detected != symbols))


def _loam_fading_design(h, b, power, order):
    """design_loam for every trial of a fading block at once.

    Returns (ray, c_mag, rho0, d), one entry per trial: symbol i sits at
    ray * (c_mag - rho0 - i*d) on the ray through the null point -b/h.
    """
    # ray reuses the null point's buffer, which so stays alive for the whole
    # block. Freeing it before the block's n x M arrays made glibc trim and
    # re-fault the heap on every block: about 10^4 page faults and 40 % more
    # time per M=64 fading sweep.
    ray = -b / h
    c_mag = np.abs(ray)
    ray /= np.where(c_mag > 0, c_mag, 1.0)
    ray[~(c_mag > 0)] = 1.0

    strong = _strong_reference(np.abs(b), np.abs(h), power, order)
    d = np.full(h.shape, spacing_strong(power, order))
    # Weak rows have c_mag^2 < 3P(M-1)/(M+1) < 2P(2M-1)/(M+1), the largest
    # c_mag^2 at which the inward discriminant is still non-negative.
    d[~strong] = _spacing_root(c_mag[~strong], power, order, sqrt=np.sqrt)
    # Strong: centered on the origin. Weak: the first level anchors at zero.
    rho0 = np.where(strong, c_mag - (order - 1) * d / 2.0, 0.0)
    return ray, c_mag, rho0, d


def _loam_fading_levels(h, rho0, d, order):
    """Receive levels |h*x_i + b| = |h| * (rho0 + i*d), one row per trial."""
    return np.abs(h)[:, None] * (rho0[:, None] + np.arange(order)[None, :] * d[:, None])


def _loam_fading_errors(symbols, h, b, noise, power, order):
    """Vectorized per-trial redesign, observation, and detection."""
    ray, c_mag, rho0, d = _loam_fading_design(h, b, power, order)
    z = np.abs(h * ray * (c_mag - (rho0 + symbols * d)) + b + noise)
    levels = _loam_fading_levels(h, rho0, d, order)
    mids = 0.5 * (levels[:, :-1] + levels[:, 1:])
    detected = np.sum(z[:, None] > mids, axis=1)
    return int(np.count_nonzero(detected != symbols))


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def run_sweep(config: SweepConfig, workers: int | None = None) -> list[SerPoint]:
    """Simulate every (scheme, SNR) point of the sweep.

    Deterministic given the config seed, independent of `workers`.
    """
    config.validate()
    order, power = config.order, config.power
    trials = config.trials_per_point
    fixed = isinstance(config.channel_mode, FixedChannel)

    prepared = {}
    if fixed:
        h = complex(config.channel_mode.h)
        b = _resolve_fixed_reference(config.reference_mode, h, power, order)
        state = ChannelState(h=h, b=b, power=power, order=order)
        for scheme in set(config.schemes):
            points = _scheme_points(scheme, state)
            table = build_detector(points, h, b)
            mu = h * points + b
            prepared[scheme] = (mu, table.thresholds, table.decision_index)

    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    tasks = []
    for si, scheme in enumerate(config.schemes):
        for ni, snr in enumerate(config.snr_grid_db):
            if fixed:
                sigma2 = snr_db_to_sigma2(snr, state)
            else:
                # Fading gains are normalized to unit mean power, so the SNR
                # definition P*|h|^2/sigma2 is applied in expectation.
                sigma2 = power / 10.0 ** (snr / 10.0)
            for bi in range(n_blocks):
                n = min(_BLOCK, trials - bi * _BLOCK)
                tasks.append((si, ni, bi, scheme, sigma2, n))

    def run_block(task):
        si, ni, bi, scheme, sigma2, n = task
        rng = _block_rng(config.seed, si, ni, bi)
        if fixed:
            mu, thresholds, decision_index = prepared[scheme]
            return si, ni, _fixed_block(rng, n, sigma2, order, mu, thresholds, decision_index)
        return si, ni, _rayleigh_block(rng, n, sigma2, order, power, scheme, config.reference_mode)

    errors = np.zeros((len(config.schemes), len(config.snr_grid_db)), dtype=np.int64)
    max_workers = workers if workers else _default_workers()
    if max_workers <= 1:
        for si, ni, err in map(run_block, tasks):
            errors[si, ni] += err
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            for si, ni, err in pool.map(run_block, tasks):
                errors[si, ni] += err

    points = []
    for si, scheme in enumerate(config.schemes):
        for ni, snr in enumerate(config.snr_grid_db):
            err = int(errors[si, ni])
            ser = err / trials
            ci = 1.96 * math.sqrt(ser * (1.0 - ser) / trials)
            points.append(
                SerPoint(
                    scheme=scheme,
                    order=order,
                    snr_db=snr,
                    trials=trials,
                    errors=err,
                    ser=ser,
                    ci95_halfwidth=ci,
                )
            )
    return points


# --------------------------------------------------------------------------
# Config file schema
# --------------------------------------------------------------------------

def _mode_from_dict(doc, key: str):
    if not isinstance(doc, dict) or "mode" not in doc:
        raise ConfigError(key, "must be an object with a 'mode' key")
    modes = _MODES[key]
    name = doc["mode"]
    cls = modes.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigError(f"{key}.mode", f"must be one of {', '.join(modes)}, got {name!r}")
    fields = [field.name for field in dataclasses.fields(cls)]
    extra = sorted(set(doc) - {"mode", *fields})
    if extra:
        raise ConfigError(f"{key}.{extra[0]}", "unknown key")
    values = {}
    for field in fields:
        path = f"{key}.{field}"
        if field not in doc:
            raise ConfigError(path, f"required for {name}")
        values[field] = _FIELDS[field][0](doc[field], path)
    return cls(**values)


def sweep_config_from_dict(doc) -> SweepConfig:
    """Build a SweepConfig from a parsed JSON document.

    Raises ConfigError carrying the first offending key path.
    """
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    fields = dataclasses.fields(SweepConfig)
    for key in doc:
        if key not in {field.name for field in fields}:
            raise ConfigError(key, "unknown key")
    for field in fields:
        if field.name not in doc and field.default is dataclasses.MISSING:
            raise ConfigError(field.name, "missing required key")
    schemes = doc["schemes"]
    if not isinstance(schemes, list) or not all(isinstance(s, str) for s in schemes):
        raise ConfigError("schemes", f"must be a list of scheme names, got {schemes!r}")
    snr_grid = doc["snr_grid_db"]
    if not isinstance(snr_grid, list) or not all(map(_real, snr_grid)):
        raise ConfigError("snr_grid_db", f"must be a list of numbers, got {snr_grid!r}")
    power = _read_number(doc.get("power", 1.0), "power")
    config = SweepConfig(
        schemes=tuple(schemes),
        order=doc["order"],
        snr_grid_db=tuple(snr_grid),
        trials_per_point=doc["trials_per_point"],
        seed=doc["seed"],
        channel_mode=_mode_from_dict(doc["channel_mode"], "channel_mode"),
        reference_mode=_mode_from_dict(doc["reference_mode"], "reference_mode"),
        power=power,
    )
    config.validate()
    return config


# --------------------------------------------------------------------------
# Output formats
# --------------------------------------------------------------------------

def ser_points_to_csv(points: list[SerPoint]) -> str:
    """CSV with header scheme,order,snr_db,trials,errors,ser,ci95."""
    lines = ["scheme,order,snr_db,trials,errors,ser,ci95"]
    for p in points:
        lines.append(
            f"{p.scheme},{p.order},{_fmt(p.snr_db)},{p.trials},{p.errors},"
            f"{_fmt(p.ser)},{_fmt(p.ci95_halfwidth)}"
        )
    return "\n".join(lines) + "\n"


def ser_points_to_json(points: list[SerPoint]) -> str:
    """JSON mirror of the CSV rows (same fields, same float precision)."""
    rows = []
    for p in points:
        rows.append(
            "  {"
            f'"scheme": "{p.scheme}", "order": {p.order}, "snr_db": {_fmt(p.snr_db)}, '
            f'"trials": {p.trials}, "errors": {p.errors}, "ser": {_fmt(p.ser)}, '
            f'"ci95": {_fmt(p.ci95_halfwidth)}'
            "}"
        )
    return "[\n" + ",\n".join(rows) + "\n]\n"
