"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one work item at a time
through loamsim's public functions, and checks every output against a
reference in `reference.py` (or, for the design, against loamsim's own
brute-force oracles). loamsim is always reached through the package module
at call time (`loamsim.design_loam(...)`), so the traced run can hook it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import loamsim
import reference

SCHEMES = ["loam", "pam", "qam", "psk"]
POWER = 1.0


def item_seed(seed: int, i: int) -> int:
    """Sweep seed of work item i: distinct per item, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


def strong_threshold(order: int, h_mag: float) -> float:
    """|b|^2 at which the centred design first fits one side of the null point."""
    return 3.0 * POWER * (order - 1) * h_mag**2 / (order + 1)


def draw_channel(rng: np.random.Generator, regime: str, order: int):
    """Random (h, b) in a regime, drawn as in the acceptance criteria."""
    h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    fraction = {
        "lofree": 0.0,
        "weak": rng.uniform(0.02, 0.98),
        "strong": rng.uniform(1.0, 5.0),
        "free": rng.uniform(0.05, 2.0),
    }[regime]
    b = math.sqrt(fraction * strong_threshold(order, abs(h))) * np.exp(
        1j * rng.uniform(0.0, 2.0 * math.pi)
    )
    return complex(h), complex(b)


class Tally:
    """What one measured phase produced: checks, useful work and trial counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.items = 0
        self.work = 0.0
        self.trials = 0
        self.zero_error_trials = 0
        self.rows: list = []
        self.first = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Workload:
    """Interface of a workload; `run` is the only timed call."""

    name = ""
    min_items = 100  # so that p90 has at least ten items beyond it
    round_size = 1  # a run ends on a round boundary, keeping the mix fixed
    sweeps = False
    work_name = ""  # what work_per_s counts on this workload
    item_name = ""  # what item_p50/p90 time on this workload
    item_scale = (1e3, "ms")

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def definition(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Build and validate the program's inputs (timed as setup_s)."""

    def prepare(self) -> None:
        """Untimed preparation between set-up and the first item."""

    def item(self, i: int):
        raise NotImplementedError

    def run(self, inp, workers: int):
        raise NotImplementedError

    def record(self, tally: Tally, inp, out) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks and work that need the whole phase."""


def _effective_events(ser: float, ci95: float) -> float:
    """(1.96*ser/ci95)^2: errors/(1-ser) for the binomial estimator.

    A point with no errors, or an estimator reporting no interval, adds none.
    """
    if ser <= 0.0 or ci95 <= 0.0:
        return 0.0
    return (1.96 * ser / ci95) ** 2


class _Sweep(Workload):
    sweeps = True
    work_name = "tail_events_per_s"
    item_name = "sweep"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.min_items = 3 if tiny else 100
        self.doc = self.config_doc()
        self.config = None

    def config_doc(self) -> dict:
        raise NotImplementedError

    def tail_points(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        self.config = loamsim.sweep_config_from_dict(self.doc)

    def item(self, i: int):
        return dataclasses.replace(self.config, seed=item_seed(self.seed, i))

    def run(self, config, workers: int):
        return loamsim.run_sweep(config, workers=workers)

    def record(self, tally: Tally, config, points) -> None:
        tally.items += 1
        tally.rows.append([(p.trials, p.errors, p.ser, p.ci95_halfwidth) for p in points])
        tally.trials += sum(p.trials for p in points)
        tally.zero_error_trials += sum(p.trials for p in points if p.errors == 0)
        if tally.first is None:
            tally.first = (config, loamsim.ser_points_to_csv(points))

    def keys(self) -> list:
        return [(s, float(snr)) for s in self.doc["schemes"] for snr in self.doc["snr_grid_db"]]

    def pooled(self, tally: Tally):
        rows = np.asarray(tally.rows, dtype=float)
        trials = rows[:, :, 0].sum(axis=0).astype(np.int64)
        errors = rows[:, :, 1].sum(axis=0).astype(np.int64)
        return trials, errors

    def finish(self, tally: Tally) -> None:
        keys = self.keys()
        tail = [keys.index((s, float(snr))) for s, snr in self.tail_points()]
        tally.work = sum(
            _effective_events(row[j][2], row[j][3]) for row in tally.rows for j in tail
        )


class FixedWeakM4(_Sweep):
    # The paper's headline point: h = e^{j*pi/3}, |b|^2 = threshold/3, M = 4,
    # all four schemes, 0-60 dB, fixed channel, run_sweep(workers=nproc). The
    # fixed-channel block kernel (Philox normal draws, integers, searchsorted)
    # does nearly all the work, design and detector build run once per sweep,
    # and over half the trials fall on zero-error points. Exact SER, faster
    # detection, another bit generator and early stopping all show up here.
    name = "fixed_weak_m4"
    _exact = None

    def config_doc(self) -> dict:
        return {
            "schemes": SCHEMES,
            "order": 4,
            "snr_grid_db": list(range(0, 61, 5)),
            # One 16384-trial block per point keeps a sweep short enough for
            # p90 over at least 100 sweeps; tail points pool across sweeps.
            "trials_per_point": 1000 if self.tiny else 16384,
            "seed": self.seed,
            "power": POWER,
            "channel_mode": {"mode": "fixed_channel", "h": [0.5, math.sqrt(3.0) / 2.0]},
            "reference_mode": {"mode": "threshold_ratio", "ratio": 1.0 / 3.0},
        }

    def _channel(self):
        h = complex(*self.doc["channel_mode"]["h"])
        threshold = strong_threshold(self.doc["order"], abs(h))
        b = complex(math.sqrt(self.doc["reference_mode"]["ratio"] * threshold))
        return h, b

    def reference_ser(self, scheme: str, snr_db: float) -> float:
        h, b = self._channel()
        order = self.doc["order"]
        if scheme == "loam":
            state = loamsim.ChannelState(h=h, b=b, power=POWER, order=order)
            points = loamsim.design_loam(state).points
        else:
            points = getattr(loamsim, f"gen_{scheme}")(POWER, order).points
        return reference.rice_ser(points, h, b, reference.sigma2_for_snr(snr_db, h, POWER))

    def exact(self) -> list[float]:
        if self._exact is None:
            self._exact = [self.reference_ser(s, snr) for s, snr in self.keys()]
        return self._exact

    def tail_points(self) -> list:
        # Points whose exact SER lies in [1e-4, 1e-2], so 100 sweeps give each
        # at least 160 errors. The law does not depend on the seed, so neither
        # does the list.
        return [k for k, ser in zip(self.keys(), self.exact()) if 1e-4 <= ser <= 1e-2]

    def definition(self) -> dict:
        return {"config": self.doc, "tail_points": self.tail_points()}

    def finish(self, tally: Tally) -> None:
        super().finish(tally)
        trials, errors = self.pooled(tally)
        for key, n, k, p in zip(self.keys(), trials, errors, self.exact()):
            tally.check(
                reference.binomial_consistent(int(k), int(n), p),
                f"{key}: {k}/{n} errors against exact SER {p:.4g}",
            )


class RayleighM64(_Sweep):
    # Per-trial Rayleigh fading, M = 64, threshold_ratio 1/3, all four schemes.
    # The per-trial LOAM redesign and the n x M baseline detect matrices
    # dominate, peak RSS grows with workers, and gen_* runs again in every
    # block. The fixed-channel kernel and the oracle are bypassed. Conditional
    # Monte Carlo and memory bounding show up here.
    name = "rayleigh_m64"

    # Points with SER in [1e-4, 1e-2], measured at 1e5 trials per point. The
    # fading law does not depend on the seed, so neither does the list.
    TAIL_POINTS = [("loam", 50), ("loam", 60), ("pam", 80), ("qam", 80), ("psk", 80)]

    def config_doc(self) -> dict:
        return {
            "schemes": SCHEMES,
            "order": 64,
            # 0-60 dB as in demos/configs/rayleigh_m64.json, plus 70 and 80 dB
            # where the baseline schemes reach their tail.
            "snr_grid_db": list(range(0, 81, 10)),
            # A quarter block per point keeps a sweep short enough for p90 over
            # at least 100 sweeps while each worker still holds n x 64 matrices.
            "trials_per_point": 1000 if self.tiny else 4096,
            "seed": self.seed,
            "power": POWER,
            "channel_mode": {"mode": "rayleigh_per_trial"},
            "reference_mode": {"mode": "threshold_ratio", "ratio": 1.0 / 3.0},
        }

    def tail_points(self) -> list:
        return self.TAIL_POINTS

    def definition(self) -> dict:
        return {"config": self.doc, "tail_points": self.TAIL_POINTS}

    def reference_csv(self, config) -> str:
        return loamsim.ser_points_to_csv(loamsim.run_sweep(config, workers=1))

    def finish(self, tally: Tally) -> None:
        super().finish(tally)
        config, csv = tally.first
        tally.check(csv == self.reference_csv(config), "CSV differs between nproc and 1 worker")
        trials, errors = self.pooled(tally)
        n_snr = len(self.doc["snr_grid_db"])
        for s, scheme in enumerate(self.doc["schemes"]):
            part = slice(s * n_snr, (s + 1) * n_snr)
            ser = errors[part] / trials[part]
            for k, ok in enumerate(reference.not_increasing(ser, trials[part])):
                rise = f"{ser[k]:.4g} -> {ser[k + 1]:.4g}"
                tally.check(ok, f"{scheme}: SER rises at point {k}: {rise}")


@dataclasses.dataclass
class OracleScenario:
    regime: str
    order: int
    h: complex
    b: complex
    search_seed: int
    state: object = None


class OracleVerify(Workload):
    # The design-certification path (`loamsim verify`, and most of the tier-1
    # wall time): criterion-1 ray searches over 3 regimes x M in {2, 4, 8}
    # plus unconstrained M = 2 free searches. Pure-Python coordinate ascent,
    # no Monte Carlo.
    name = "oracle_verify"
    round_size = 10
    work_name = "oracle_scenarios_per_s"
    item_name = "scenario"
    STRATA = [(r, m) for r in ("lofree", "weak", "strong") for m in (2, 4, 8)] + [("free", 2)]
    STEPS = 1500
    GRID = 60

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.min_items = 10 if tiny else 100
        # More rounds than a run reaches; a faster program cycles through them.
        self.pool_rounds = 1 if tiny else 60
        self.scenarios: list[OracleScenario] = []

    def definition(self) -> dict:
        return {
            "seed": self.seed,
            "strata": self.STRATA,
            "pool_rounds": self.pool_rounds,
            "steps": self.STEPS,
            "grid": self.GRID,
            "h": "U(0.25, 2) * exp(j U(0, 2pi))",
            "b_over_threshold": {
                "lofree": 0, "weak": [0.02, 0.98], "strong": [1, 5], "free": [0.05, 2]
            },
        }

    def setup(self) -> None:
        self.scenarios = []
        for i in range(self.pool_rounds * self.round_size):
            regime, order = self.STRATA[i % self.round_size]
            h, b = draw_channel(np.random.default_rng([self.seed, i]), regime, order)
            scenario = OracleScenario(regime, order, h, b, search_seed=i)
            if regime != "free":
                scenario.state = loamsim.ChannelState(h=h, b=b, power=POWER, order=order)
            self.scenarios.append(scenario)

    def item(self, i: int) -> OracleScenario:
        return self.scenarios[i % len(self.scenarios)]

    def run(self, s: OracleScenario, workers: int):
        if s.state is None:
            return loamsim.oracle_free_search_m2(s.h, s.b, POWER, grid=self.GRID)
        outcome = loamsim.design_loam(s.state)
        expected = loamsim.effective_min_distance(outcome.points, s.h, s.b)
        found = loamsim.oracle_ray_search(s.state, steps=self.STEPS, seed=s.search_seed)
        return expected, found.min_distance, outcome.points

    def record(self, tally: Tally, s: OracleScenario, out) -> None:
        tally.items += 1
        tally.work += 1.0
        label = f"{s.regime} M={s.order} h={s.h:.4g} b={s.b:.4g}"
        if s.state is None:
            # Same tolerance as `loamsim verify`: both points on the ray.
            ray = np.exp(-1j * np.angle(-s.b / s.h))
            off_ray = max(abs((out.x0 * ray).imag), abs((out.x1 * ray).imag))
            tally.check(off_ray < 0.02 * math.sqrt(POWER), f"{label}: off-ray {off_ray:.3g}")
            return
        expected, found, points = out
        gap = (found - expected) / expected
        tally.check(-1e-2 <= gap <= 1e-3, f"{label}: ray-search gap {gap:+.3e}")
        power = float(np.mean(np.abs(points) ** 2))
        tally.check(power <= POWER * (1.0 + 1e-9), f"{label}: design power {power!r}")


@dataclasses.dataclass
class DesignScenario:
    order: int
    h: complex
    b: complex
    snr_db: float
    z: np.ndarray = None
    expected: np.ndarray = None


class DesignScalar(Workload):
    # Per-channel adaptation: many seeded (h, b, M) draws across all regimes,
    # each running ChannelState -> design_loam -> build_detector -> detect on
    # a batch of amplitudes. The designer and detector run as many small
    # scalar calls here, where the sweeps call them a handful of times; this
    # guards per-call cost, e.g. when the scalar designer becomes the
    # length-1 case of a batched one.
    name = "design_scalar"
    work_name = "designs_per_s"
    item_name = "design"
    item_scale = (1e6, "us")
    ORDERS = (2, 4, 8, 16, 64)
    REGIMES = ("lofree", "weak", "strong")

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.min_items = 15 if tiny else 100
        self.pool = 15 if tiny else 480  # a multiple of the 15 strata
        self.batch = 256 if tiny else 4096
        self.scenarios: list[DesignScenario] = []

    def definition(self) -> dict:
        return {
            "seed": self.seed,
            "orders": self.ORDERS,
            "regimes": self.REGIMES,
            "pool": self.pool,
            "batch": self.batch,
            "snr_db": [5, 40],
        }

    def setup(self) -> None:
        self.scenarios = []
        strata = [(m, r) for m in self.ORDERS for r in self.REGIMES]
        for i in range(self.pool):
            order, regime = strata[i % len(strata)]
            rng = np.random.default_rng([self.seed, i])
            h, b = draw_channel(rng, regime, order)
            loamsim.ChannelState(h=h, b=b, power=POWER, order=order)
            self.scenarios.append(DesignScenario(order, h, b, float(rng.uniform(5.0, 40.0))))

    def reference_detect(self, z, radii) -> np.ndarray:
        return reference.nearest_level(z, radii)

    def prepare(self) -> None:
        for i, s in enumerate(self.scenarios):
            rng = np.random.default_rng([self.seed, i, 1])
            points = loamsim.design_loam(
                loamsim.ChannelState(h=s.h, b=s.b, power=POWER, order=s.order)
            ).points
            symbols = rng.integers(0, s.order, size=self.batch)
            scale = math.sqrt(reference.sigma2_for_snr(s.snr_db, s.h, POWER) / 2.0)
            noise = scale * (rng.standard_normal(self.batch) + 1j * rng.standard_normal(self.batch))
            s.z = np.abs(s.h * points[symbols] + s.b + noise)
            s.expected = self.reference_detect(s.z, np.abs(s.h * points + s.b))

    def item(self, i: int) -> DesignScenario:
        return self.scenarios[i % len(self.scenarios)]

    def run(self, s: DesignScenario, workers: int):
        state = loamsim.ChannelState(h=s.h, b=s.b, power=POWER, order=s.order)
        outcome = loamsim.design_loam(state)
        table = loamsim.build_detector(outcome.points, s.h, s.b)
        return loamsim.detect(table, s.z), outcome.points

    def record(self, tally: Tally, s: DesignScenario, out) -> None:
        tally.items += 1
        tally.work += 1.0
        detected, points = out
        label = f"M={s.order} h={s.h:.4g} b={s.b:.4g}"
        tally.check(np.array_equal(detected, s.expected), f"{label}: detect differs from argmin")
        power = float(np.mean(np.abs(points) ** 2))
        tally.check(power <= POWER * (1.0 + 1e-9), f"{label}: design power {power!r}")


WORKLOADS = {w.name: w for w in (FixedWeakM4, RayleighM64, OracleVerify, DesignScalar)}
