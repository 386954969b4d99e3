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
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .channel import ChannelState, snr_db_to_sigma2
from .constellations import (
    SCHEMES,
    _classify_reference,
    _fmt,
    _loam_layout,
    _member,
    design_loam,
    strong_reference_threshold,
)
from .detector import _acceptance_intervals, build_detector

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
    try:
        return _real(x) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_state(path: str, **field) -> None:
    """ConfigError at path if ChannelState's range rule rejects the one field given."""
    try:
        ChannelState(**{"h": 1.0, "b": 0.0, "power": 1.0, "order": 2, **field})
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _read_pair(value, path: str) -> complex:
    """A JSON [re, im] pair as a complex; validate checks the value."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_real, value))):
        raise ConfigError(path, f"must be a [re, im] pair of numbers, got {value!r}")
    try:
        return complex(*value)
    except OverflowError:
        raise ConfigError(path, "must be finite, got an integer too large for a float") from None


# Config name of every channel and reference mode. The fields of a mode's
# dataclass are its config keys besides "mode": the pairs h and b, and the
# number ratio.
_MODES = {
    "channel_mode": {"fixed_channel": FixedChannel, "rayleigh_per_trial": RayleighPerTrial},
    "reference_mode": {
        "zero": ZeroReference,
        "fixed_value": FixedReference,
        "threshold_ratio": ThresholdRatioReference,
    },
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
        object.__setattr__(self, "snr_grid_db", tuple(self.snr_grid_db))

    def validate(self) -> ChannelState:
        """Check the config; return its scenario, |h| = 1 standing in under fading."""
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
        if not _integer(self.trials_per_point) or self.trials_per_point < 1000:
            raise ConfigError(
                "trials_per_point",
                f"must be an integer >= 1000, got {self.trials_per_point!r}",
            )
        if not _integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed", f"must be a 64-bit unsigned integer, got {self.seed!r}")
        if not _number(self.power):
            raise ConfigError("power", f"must be a finite number, got {self.power!r}")
        _check_state("power", power=self.power)
        for key in ("channel_mode", "reference_mode"):
            mode = getattr(self, key)
            if type(mode) not in _MODES[key].values():
                raise ConfigError(key, f"unknown mode {mode!r}")
        h = self.channel_mode.h if isinstance(self.channel_mode, FixedChannel) else 1.0
        _check_state("channel_mode.h", h=h)
        if isinstance(self.reference_mode, ThresholdRatioReference):
            b_path, ratio = "reference_mode.ratio", self.reference_mode.ratio
            if not (_number(ratio) and ratio >= 0):
                raise ConfigError(b_path, f"must be a number >= 0, got {ratio!r}")
            threshold = strong_reference_threshold(self.power, self.order, abs(h))
            b = complex(math.sqrt(ratio * threshold))
        else:
            b_path, b = "reference_mode.b", self.reference_mode.b
        _check_state(b_path, b=b)
        state = ChannelState(h=h, b=b, power=self.power, order=self.order)
        # Levels that tie in floating point would fold LOAM's design. Under
        # fading the |h| = 1 stand-in is checked, for `fixed_value` too, whose
        # c = |b|/|h| differs per trial. run_sweep builds the table again for a
        # fixed channel, at tens of microseconds.
        if "loam" in self.schemes:
            if build_detector(design_loam(state).points, h, b).ambiguous:
                message = f"gives b = {b!r}, at which LOAM's receive levels round together"
                raise ConfigError(b_path, message)
        for i, snr in enumerate(self.snr_grid_db):
            try:
                sigma2 = snr_db_to_sigma2(snr, state) if _number(snr) else math.nan
            except (OverflowError, ZeroDivisionError):  # 10**(snr/10) leaves the float range
                sigma2 = math.nan
            if not np.finfo(float).tiny <= sigma2 < math.inf:
                raise ConfigError(
                    f"snr_grid_db[{i}]",
                    "must be finite and give a finite, normal noise variance "
                    f"P*|h|^2/10^(snr/10), got {snr!r}",
                )
        return state


@dataclass(frozen=True)
class SerPoint:
    scheme: str
    order: int
    snr_db: float
    trials: int
    errors: int
    ser: float
    ci95_halfwidth: float


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
#
# Every kernel takes `buffers`, the work arrays of the calling worker thread
# for one sweep, and writes its draws, observations, detection bounds and
# detection work there with the out= forms of the same operations. Per block
# it allocates only the drawn symbols and, under fading, the per-trial LOAM
# design, the reference magnitudes and the trials that go back to the
# trials x M matrix.
#
# Under fading, PAM and PSK detect each trial from a few candidate levels
# found in closed form (_candidate_detect). QAM, and the trials whose
# candidates cannot be certified, take the trials x M matrix
# (_matrix_errors). Both paths compute a level as np.abs(h*x + b), with h the
# first operand of np.multiply: numpy's SIMD complex product is not
# symmetric in its operands, and in `h * points.take(s)` numpy may write the
# product into the large temporary, which swaps them. So the detected
# symbols, and the artifacts, do not depend on the path.

# Levels either fading detection path holds at once, in row chunks: bounds
# its memory per worker whatever the order M.
_CHUNK = 1 << 15

# Candidate levels per trial of the PAM and PSK fading detection.
_CANDIDATES = 4
# A trial's candidates are certified when its least gap between adjacent
# levels exceeds this multiple of the largest magnitude in its arithmetic.
_CERTIFY_EPS = 64.0 * np.finfo(float).eps


def _block_rng(seed: int, scheme_idx: int, snr_idx: int, block_idx: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(scheme_idx, snr_idx, block_idx))
    return np.random.Generator(np.random.Philox(ss))


def _scratch(buffers: dict, name: str, n: int, dtype=np.float64) -> np.ndarray:
    """The first n entries of the worker's buffer `name`, grown when too short."""
    buf = buffers.get(name)
    if buf is None or buf.size < n:
        buf = buffers[name] = np.empty(n, dtype)
    return buf[:n]


def _complex_normal(rng: np.random.Generator, n: int, buffers: dict, name: str) -> np.ndarray:
    """n_re + 1j*n_im from two standard normal draws of n, into buffer `name`."""
    n_re = rng.standard_normal(out=_scratch(buffers, "n_re", n))
    n_im = rng.standard_normal(out=_scratch(buffers, "n_im", n))
    out = np.multiply(1j, n_im, out=_scratch(buffers, name, n, complex))
    return np.add(n_re, out, out=out)


def _outside(z, lo, hi, buffers: dict) -> np.ndarray:
    """Per trial, whether z falls outside (lo, hi], the interval that detects its symbol."""
    wrong = np.less_equal(z, lo, out=_scratch(buffers, "wrong", z.size, bool))
    above = np.greater(z, hi, out=_scratch(buffers, "above", z.size, bool))
    return np.logical_or(wrong, above, out=wrong)


def _fixed_block(rng, n, sigma2, buffers, mu, lo, hi):
    """Errors among n trials at receive values mu; symbol s is detected on (lo[s], hi[s]]."""
    symbols = rng.integers(0, mu.size, size=n)
    noise = _complex_normal(rng, n, buffers, "noise")
    np.multiply(noise, math.sqrt(sigma2 / 2.0), out=noise)
    # Symbols are in range, so take's "clip" skips only the bounds check.
    rx = mu.take(symbols, out=_scratch(buffers, "rx", n, complex), mode="clip")
    z = np.abs(np.add(rx, noise, out=rx), out=_scratch(buffers, "z", n))
    sym_lo = lo.take(symbols, out=_scratch(buffers, "sym_lo", n), mode="clip")
    sym_hi = hi.take(symbols, out=_scratch(buffers, "sym_hi", n), mode="clip")
    return int(np.count_nonzero(_outside(z, sym_lo, sym_hi, buffers)))


def _rayleigh_block(rng, n, sigma2, buffers, order, power, points, reference_mode, walk=None):
    """Errors among n fading trials; points is None for LOAM, redesigned per trial.

    walk is the baseline alphabet's _Walk (see _walk_of); without one, every
    trial is detected on the trials x M matrix.
    """
    symbols = rng.integers(0, order, size=n)
    h = _complex_normal(rng, n, buffers, "h")
    np.divide(h, math.sqrt(2.0), out=h)

    b = _scratch(buffers, "b", n, complex)
    if isinstance(reference_mode, ThresholdRatioReference):
        h_mag = np.abs(h, out=_scratch(buffers, "h_mag", n))
        mag = np.sqrt(reference_mode.ratio * strong_reference_threshold(power, order, h_mag))
        # uniform has no out=; uniform(0, 2*pi) is 0 + 2*pi*u for the same u.
        phase = rng.random(out=_scratch(buffers, "phase", n))
        np.multiply(phase, 2.0 * math.pi, out=phase)
        np.multiply(mag, np.exp(np.multiply(1j, phase, out=b), out=b), out=b)
    else:
        b.fill(complex(reference_mode.b))

    noise = _complex_normal(rng, n, buffers, "noise")
    np.multiply(noise, math.sqrt(sigma2 / 2.0), out=noise)

    if points is None:
        return _loam_fading_errors(symbols, h, b, noise, power, order, buffers)
    return _baseline_fading_errors(symbols, h, b, noise, points, buffers, walk)


def _baseline_fading_errors(symbols, h, b, noise, points, buffers, walk=None) -> int:
    """Nearest-level detection over each trial's levels |h*x + b|.

    With a walk (PAM and PSK), each trial is detected from four candidate
    levels, and the trials they cannot certify go to the trials x M matrix
    that QAM uses throughout. Either path holds _CHUNK levels at a time.
    """
    n = symbols.size
    rx = points.take(symbols, out=_scratch(buffers, "rx", n, complex), mode="clip")
    np.add(np.multiply(h, rx, out=rx), b, out=rx)
    z = np.abs(np.add(rx, noise, out=rx), out=_scratch(buffers, "z", n))
    # At b = 0 the PSK levels all tie, so no PSK trial would be certified.
    if walk is None or (walk.trace is _circle_walk and not b.any()):
        return _matrix_errors(symbols, h, b, z, points, buffers)
    errors = 0
    rows = _CHUNK // _CANDIDATES
    for start in range(0, n, rows):
        part = slice(start, min(start + rows, n))
        detected, certified = _candidate_detect(h[part], b[part], z[part], points, walk, buffers)
        m = part.stop - start
        wrong = np.not_equal(detected, symbols[part], out=_scratch(buffers, "wrong", m, bool))
        errors += int(np.count_nonzero(np.logical_and(wrong, certified, out=wrong)))
        if not certified.all():
            rest = start + np.flatnonzero(~certified)
            errors += _matrix_errors(symbols[rest], h[rest], b[rest], z[rest], points, buffers)
    return errors


def _candidate_detect(h, b, z, points, walk, buffers):
    """Per trial, the symbol that argmin over four candidate levels detects,
    and whether the trial is certified: no other level lies as near z.

    The walk gives each trial a V of levels over positions 0..M-1 (see
    _line_walk and _circle_walk), falling to its vertex at `turn` and rising
    after it, with crossings of z at `fall` and `rise`. The candidates are
    the two positions that bracket each crossing within its run; a crossing
    beyond an end of its run is bracketed by that end. Every other level of
    a run lies beyond one of its candidates, away from z. The certificate
    holds when the closed-form least gap between adjacent levels of a run
    exceeds the rounding of the level arithmetic, and the computed
    candidate levels lie on the sides of z that their brackets say.

    The detected symbols are floats. The per-trial work arrays reuse the
    buffers of the normal draws (n_re, n_im) and of the LOAM kernel (h_mag,
    j, lo, hi, offset), which are free here, so a worker that runs both
    kernels holds them once.
    """
    n, order = z.size, points.size
    with np.errstate(all="ignore"):  # a non-finite w or r fails the certificate
        # The observation's buffer is free once z is taken.
        w = np.divide(b, h, out=_scratch(buffers, "rx", n, complex))
        r = np.abs(h, out=_scratch(buffers, "h_mag", n))
        np.divide(z, r, out=r)
        start, turn, fall, rise, certified = walk.trace(points, w, r, buffers)

    # Integer positions; fmax and fmin map NaN to their bound. The falling run
    # ends at turn, so fall, fall + 1 bracket its crossing; the rising run
    # starts at turn + 1, so rise, rise + 1 bracket its crossing.
    last = order - 1.0
    np.floor(np.fmin(np.fmax(turn, -1.0, out=turn), last, out=turn), out=turn)
    np.floor(np.fmin(np.fmax(fall, -1.0, out=fall), turn, out=fall), out=fall)
    np.floor(np.fmin(np.fmax(rise, turn, out=rise), last, out=rise), out=rise)
    # Which candidates lie in their run and so carry a side to check.
    inside = _rows(buffers, "inside", n, bool)
    np.greater_equal(fall, 0.0, out=inside[0])
    np.less(fall, turn, out=inside[1])
    np.less(turn, rise, out=inside[2])
    np.less(rise, last, out=inside[3])

    # Each candidate's entry in the walk's table.
    pos = _rows(buffers, "pos", n, np.intp)
    np.add(fall, start, out=pos[0], casting="unsafe")
    np.add(pos[0], 1, out=pos[1])
    np.add(rise, start, out=pos[2], casting="unsafe")
    np.add(pos[2], 1, out=pos[3])
    # Levels as the matrix computes them: np.abs of h*x + b, h the first operand.
    x = walk.table.take(pos, out=_rows(buffers, "mu", n, complex), mode="clip")
    np.add(np.multiply(h, x, out=x), b, out=x)
    dist = np.abs(x, out=_rows(buffers, "level", n))
    np.subtract(z, dist, out=dist)
    # An outer candidate lies at or above z, an inner one at or below it.
    miss = _scratch(buffers, "miss", n, bool)
    for row, exists, misses in zip(dist, inside, (np.greater, np.less, np.less, np.greater)):
        np.logical_and(misses(row, 0.0, out=miss), exists, out=miss)
        np.logical_and(certified, np.logical_not(miss, out=miss), out=certified)

    # argmin's first-index rule: the lowest symbol among the nearest
    # candidates, the least label + M * (farther than the nearest).
    np.abs(dist, out=dist)
    nearest = np.minimum.reduce(dist, axis=0, out=r)
    key = np.multiply(np.not_equal(dist, nearest, out=inside), float(order), out=dist)
    np.add(key, walk.labels.take(pos, out=pos, mode="clip"), out=key)
    return np.minimum.reduce(key, axis=0, out=r), certified


def _rows(buffers: dict, name: str, n: int, dtype=np.float64) -> np.ndarray:
    """A (candidates, n) view of the worker's buffer `name`."""
    return _scratch(buffers, name, _CANDIDATES * n, dtype).reshape(_CANDIDATES, n)


def _line_walk(points, w, r, buffers):
    """PAM's levels |h|*|x + w| along the real axis, a V over the index.

    Returns (start, turn, fall, rise, certified): the table entry of
    position 0, the vertex and the crossings of r = z/|h| in index units, and the
    certificate. Levels adjacent on one side of the vertex differ by at
    least d^2 / (4*(2d + |Im w|)) in units of |h|.
    """
    n, order = w.size, points.size
    first = points[0].real
    d = (points[-1].real - first) / (order - 1)
    im = np.abs(w.imag, out=_scratch(buffers, "n_re", n))
    turn = np.add(w.real, first, out=_scratch(buffers, "j", n))
    np.multiply(turn, -1.0 / d, out=turn)
    # The crossings lie sqrt(r^2 - Im(w)^2) / d on either side of the vertex.
    rise = np.subtract(r, im, out=_scratch(buffers, "hi", n))
    fall = np.add(r, im, out=_scratch(buffers, "lo", n))
    np.sqrt(np.maximum(np.multiply(rise, fall, out=rise), 0.0, out=rise), out=rise)
    np.multiply(rise, 1.0 / d, out=rise)
    np.subtract(turn, rise, out=fall)
    np.add(turn, rise, out=rise)
    # gap > _CERTIFY_EPS * (x_max + |w| + r), multiplied out, with
    # |Re w| + |Im w| standing in for |w|.
    size = np.add(np.abs(w.real, out=_scratch(buffers, "offset", n)), r, out=r)
    np.add(size, im, out=size)
    np.add(size, max(-first, points[-1].real), out=size)
    np.multiply(size, np.add(im, 2.0 * d, out=im), out=size)
    certified = np.less(size, d * d / (4.0 * _CERTIFY_EPS),
                        out=_scratch(buffers, "certified", n, bool))
    return 0.0, turn, fall, rise, certified


def _circle_walk(points, w, r, buffers):
    """PSK's levels |h|*|x + w|, which peak at the phase of w and bottom out
    opposite it: a V over the positions counted from the first index at or
    past the peak.

    Returns what _line_walk does, with a start per trial into the points
    repeated three times. Levels adjacent on one side of the vertex differ
    by at least sqrt(P) |w| sin^2(pi/M) / (sqrt(P) + |w|) in units of |h|.
    """
    n, order = w.size, points.size
    radius = abs(points[0])
    scale = order / (2.0 * math.pi)
    w_mag = np.abs(w, out=_scratch(buffers, "n_re", n))
    peak = np.arctan2(w.imag, w.real, out=_scratch(buffers, "j", n))
    np.multiply(peak, scale, out=peak)
    start = np.ceil(peak, out=_scratch(buffers, "n_im", n))
    np.fmax(start, -order / 2.0, out=start)  # a NaN phase gives a finite start
    np.subtract(peak, start, out=peak)  # the peak's position, in (-1, 0]
    np.add(start, order, out=start)
    # The crossings lie arccos(q) * M/(2 pi) from the peak, where
    # q = (r^2 - P - |w|^2) / (2 sqrt(P) |w|).
    rise = np.multiply(w_mag, w_mag, out=_scratch(buffers, "hi", n))
    np.add(rise, radius * radius, out=rise)
    fall = np.multiply(r, r, out=_scratch(buffers, "lo", n))
    np.subtract(fall, rise, out=fall)
    np.divide(fall, np.multiply(w_mag, 2.0 * radius, out=rise), out=fall)
    np.arccos(np.clip(fall, -1.0, 1.0, out=fall), out=fall)
    np.multiply(fall, scale, out=fall)
    np.add(np.subtract(peak, fall, out=rise), float(order), out=rise)
    np.add(fall, peak, out=fall)
    turn = np.add(peak, order / 2.0, out=peak)
    # gap > _CERTIFY_EPS * (sqrt(P) + |w| + r), multiplied out.
    size = np.add(w_mag, radius, out=_scratch(buffers, "offset", n))
    np.multiply(size, np.add(size, r, out=r), out=size)
    np.multiply(w_mag, radius * math.sin(math.pi / order) ** 2 / _CERTIFY_EPS, out=w_mag)
    certified = np.less(size, w_mag, out=_scratch(buffers, "certified", n, bool))
    return start, turn, fall, rise, certified


class _Walk(NamedTuple):
    """How _candidate_detect walks the levels of one alphabet."""

    trace: Callable  # _line_walk or _circle_walk
    table: np.ndarray  # the points, repeated so that every start + p indexes them
    labels: np.ndarray  # the symbol of each table entry


def _walk_of(alphabet) -> _Walk | None:
    """The candidate walk of a PAM or PSK alphabet; None for the others."""
    labels = np.arange(alphabet.points.size)
    if alphabet.scheme == "PAM":
        return _Walk(_line_walk, alphabet.points, labels)
    if alphabet.scheme == "PSK":
        return _Walk(_circle_walk, np.tile(alphabet.points, 3), np.tile(labels, 3))
    return None


def _matrix_errors(symbols, h, b, z, points, buffers) -> int:
    """Errors of nearest-level detection of z over all M levels, in row chunks.

    Each row's operations are those of the whole trials x M matrix, so the
    detected symbols do not depend on the chunk size.
    """
    order = points.size
    rows = max(1, _CHUNK // order)
    errors = 0
    for start in range(0, symbols.size, rows):
        part = slice(start, min(start + rows, symbols.size))
        m = part.stop - start
        mu = _scratch(buffers, "mu", m * order, complex).reshape(m, order)
        np.add(np.multiply(h[part, None], points, out=mu), b[part, None], out=mu)
        dist = np.abs(mu, out=_scratch(buffers, "level", m * order).reshape(m, order))
        np.abs(np.subtract(z[part, None], dist, out=dist), out=dist)
        detected = np.argmin(dist, axis=1, out=_scratch(buffers, "detected", m, np.intp))
        wrong = np.not_equal(detected, symbols[part], out=_scratch(buffers, "wrong", m, bool))
        errors += int(np.count_nonzero(wrong))
    return errors


def _loam_fading_design(h, b, power, order):
    """design_loam for every trial of a fading block at once.

    Returns (ray, c_mag, rho0, d), one entry per trial: symbol i sits at
    ray * (c_mag - rho0 - i*d) on the ray through the null point -b/h. Regime
    and layout are design_loam's, row by row: LO-free rows take c_mag = 0 and
    ray -1, so symbol i sits at +i*d.
    """
    ray = -b / h
    c_mag = np.abs(ray)
    lo_free, strong = _classify_reference(np.abs(b), np.abs(h), power, order)
    c_mag[lo_free] = 0.0
    np.divide(ray, c_mag, out=ray, where=~lo_free)
    ray[lo_free] = -1.0

    d = np.empty(h.shape)
    rho0 = np.empty(h.shape)
    for rows, is_strong in ((strong, True), (~strong, False)):
        c_rows = c_mag[rows]
        d[rows], u0 = _loam_layout(is_strong, c_rows, power, order, sqrt=np.sqrt)
        rho0[rows] = c_rows - u0
    return ray, c_mag, rho0, d


def _loam_fading_errors(symbols, h, b, noise, power, order, buffers) -> int:
    """Vectorized per-trial redesign, observation, and detection."""
    n = symbols.size
    ray, c_mag, rho0, d = _loam_fading_design(h, b, power, order)
    offset = np.multiply(symbols, d, out=_scratch(buffers, "offset", n))
    np.subtract(c_mag, np.add(rho0, offset, out=offset), out=offset)
    rx = np.multiply(h, ray, out=_scratch(buffers, "rx", n, complex))
    np.multiply(rx, offset, out=rx)
    z = np.abs(np.add(np.add(rx, b, out=rx), noise, out=rx), out=_scratch(buffers, "z", n))
    return int(np.count_nonzero(_loam_fading_outside(z, symbols, h, rho0, d, order, buffers)))


def _loam_fading_level(j, h_mag, rho0, d, out):
    """Receive level |h*x_j + b| = |h| * (rho0 + j*d), j given per trial."""
    np.multiply(j, d, out=out)
    np.add(rho0, out, out=out)
    return np.multiply(h_mag, out, out=out)


def _loam_fading_outside(z, symbols, h, rho0, d, order, buffers) -> np.ndarray:
    """Per trial, whether nearest-level detection of z misses its symbol.

    A trial's levels ascend with i, and so do their float midpoints mid(i) =
    0.5*(level(i) + level(i+1)). Counting the midpoints below z therefore
    detects symbol s exactly when mid(s-1) < z <= mid(s).
    """
    n = symbols.size
    h_mag = np.abs(h, out=_scratch(buffers, "h_mag", n))
    j = _scratch(buffers, "j", n)
    level = _loam_fading_level(symbols, h_mag, rho0, d, _scratch(buffers, "level", n))
    lo = _loam_fading_level(np.add(symbols, -1.0, out=j), h_mag, rho0, d, _scratch(buffers, "lo", n))
    np.multiply(0.5, np.add(lo, level, out=lo), out=lo)
    hi = _loam_fading_level(np.add(symbols, 1.0, out=j), h_mag, rho0, d, _scratch(buffers, "hi", n))
    np.multiply(0.5, np.add(level, hi, out=hi), out=hi)
    edge = _scratch(buffers, "edge", n, bool)
    np.copyto(lo, -np.inf, where=np.equal(symbols, 0, out=edge))
    np.copyto(hi, np.inf, where=np.equal(symbols, order - 1, out=edge))
    return _outside(z, lo, hi, buffers)


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def run_sweep(config: SweepConfig, workers: int | None = None) -> list[SerPoint]:
    """Simulate every (scheme, SNR) point of the sweep.

    Deterministic given the config seed, independent of `workers`: the
    number of threads, one per CPU this process may run on by default.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    state = config.validate()
    h, b, power, order = state.h, state.b, state.power, state.order
    trials = config.trials_per_point
    fixed = isinstance(config.channel_mode, FixedChannel)

    kernels = {}  # scheme: block kernel taking (rng, n, sigma2, buffers)
    for scheme in set(config.schemes):
        gen = SCHEMES[scheme]
        if gen is not None:
            alphabet = gen(power, order)
        else:  # LOAM, designed for the fixed channel or per fading trial
            alphabet = design_loam(state) if fixed else None
        points = None if alphabet is None else alphabet.points
        if fixed:
            lo, hi = _acceptance_intervals(build_detector(points, h, b))
            kernels[scheme] = functools.partial(_fixed_block, mu=h * points + b, lo=lo, hi=hi)
        else:
            kernels[scheme] = functools.partial(
                _rayleigh_block,
                order=order,
                power=power,
                points=points,
                reference_mode=config.reference_mode,
                walk=None if alphabet is None else _walk_of(alphabet),
            )

    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    sigma2s = [snr_db_to_sigma2(snr, state) for snr in config.snr_grid_db]
    tasks = []
    for si, scheme in enumerate(config.schemes):
        for ni, sigma2 in enumerate(sigma2s):
            for bi in range(n_blocks):
                n = min(_BLOCK, trials - bi * _BLOCK)
                tasks.append((si, ni, bi, scheme, sigma2, n))

    worker = threading.local()  # each thread's block buffers, dropped with the sweep

    def run_block(task):
        si, ni, bi, scheme, sigma2, n = task
        if not hasattr(worker, "buffers"):
            worker.buffers = {}
        rng = _block_rng(config.seed, si, ni, bi)
        return si, ni, kernels[scheme](rng, n, sigma2, worker.buffers)

    errors = np.zeros((len(config.schemes), len(config.snr_grid_db)), dtype=np.int64)
    max_workers = _default_workers() if workers is None else workers
    # One worker runs in the caller's thread, so a caller's np.errstate reaches
    # the kernels; it does not reach a pool thread.
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
                    snr_db=float(snr),
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
        values[field] = doc[field] if field == "ratio" else _read_pair(doc[field], path)
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
    config = SweepConfig(
        schemes=tuple(schemes),
        order=doc["order"],
        snr_grid_db=tuple(snr_grid),
        trials_per_point=doc["trials_per_point"],
        seed=doc["seed"],
        channel_mode=_mode_from_dict(doc["channel_mode"], "channel_mode"),
        reference_mode=_mode_from_dict(doc["reference_mode"], "reference_mode"),
        power=doc.get("power", 1.0),
    )
    config.validate()
    return config


# --------------------------------------------------------------------------
# Output formats
# --------------------------------------------------------------------------

# CSV column and JSON key of each SerPoint field, in field order.
_SER_KEYS = ("scheme", "order", "snr_db", "trials", "errors", "ser", "ci95")


def ser_points_to_csv(points: list[SerPoint]) -> str:
    """CSV with header scheme,order,snr_db,trials,errors,ser,ci95."""
    lines = [",".join(_SER_KEYS)]
    for p in points:
        # Scheme names are bare words, unquoted in CSV.
        values = dataclasses.astuple(p)
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in values))
    return "\n".join(lines) + "\n"


def ser_points_to_json(points: list[SerPoint]) -> str:
    """JSON mirror of the CSV rows (same fields, same float precision)."""
    rows = [
        "  {" + ", ".join(map(_member, _SER_KEYS, dataclasses.astuple(p))) + "}" for p in points
    ]
    return "[\n" + ",\n".join(rows) + "\n]\n"
