"""Command-line front end: design constellations, run sweeps, verify designs.

stdout carries only the artifact (JSON, CSV, or report); diagnostics go to
stderr. Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .channel import ChannelState, effective_min_distance
from .constellations import (
    SCHEMES,
    design_loam,
    design_to_json,
    mean_power,
    strong_reference_threshold,
)
from .detector import build_detector
from .oracle import oracle_free_search_m2, oracle_ray_search
from .simulate import (
    ConfigError,
    run_sweep,
    ser_points_to_csv,
    ser_points_to_json,
    sweep_config_from_dict,
)


def _write_artifact(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_design(args, parser: argparse.ArgumentParser) -> int:
    if args.order < 2:
        parser.error("order must be >= 2")
    h = complex(args.h_re, args.h_im)
    b = complex(args.b_re, args.b_im)
    if args.scheme == "qam" and math.isqrt(args.order) ** 2 != args.order:
        parser.error(f"qam requires a perfect-square order, got {args.order}")
    gen = SCHEMES[args.scheme]
    try:
        # ChannelState holds every scheme to h != 0 (with h = 0 all points
        # land on |b|) and to the range rule.
        state = ChannelState(h=h, b=b, power=args.power, order=args.order)
        if gen is None:
            design = design_loam(state)
            # The detector's tie rule decides whether the levels stay apart.
            if build_detector(design.points, state.h, state.b).ambiguous:
                raise ValueError(f"LOAM's receive levels round together at b = {b!r}")
            text = design_to_json(design)
        else:
            design = gen(args.power, args.order)
            design.magnitudes = np.abs(h * design.points + b)
            text = design_to_json(design)
    except ValueError as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        return 1
    _write_artifact(text, args.out)
    return 0


def _cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    if args.threads is not None and args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    try:
        config = sweep_config_from_dict(doc)
        points = run_sweep(config, workers=args.threads)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    _write_artifact(ser_points_to_csv(points), args.out)
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(ser_points_to_json(points))
    return 0


def _draw_state(rng: np.random.Generator, order: int, fraction) -> ChannelState:
    """A unit-power scenario: |h| ~ U(0.25, 2) and |b|^2 ~ U(*fraction) times the
    strong-reference threshold, each with a uniform phase; b = 0 if fraction is None."""
    h = rng.uniform(0.25, 2.0) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
    b = 0.0
    if fraction is not None:
        threshold = strong_reference_threshold(1.0, order, abs(h))
        b = math.sqrt(rng.uniform(*fraction) * threshold) * np.exp(
            1j * rng.uniform(0.0, 2 * math.pi)
        )
    return ChannelState(h=complex(h), b=complex(b), power=1.0, order=order)


def _verify_checks(order: int, scenarios: int, seed: int):
    """Yield (name, passed, detail) tuples for the verification report."""
    rng = np.random.default_rng(seed)
    regimes = {"lo-free": None, "weak": (0.05, 0.95), "strong": (1.0, 5.0)}
    for regime, fraction in regimes.items():
        for case in range(scenarios):
            state = _draw_state(rng, order, fraction)
            outcome = design_loam(state)
            expected = effective_min_distance(outcome.points, state.h, state.b)
            found = oracle_ray_search(state).min_distance
            rel_gap = (found - expected) / expected
            yield (
                f"ray-search vs closed-form spacing [{regime} #{case}]",
                abs(rel_gap) <= 1e-9,
                f"measured={found:.6g} expected={expected:.6g} rel_gap={rel_gap:.2e}",
            )
            power = mean_power(outcome.points)
            yield (
                f"design power feasibility [{regime} #{case}]",
                power <= state.power * (1 + 1e-9),
                f"mean_power={power:.9f} budget={state.power}",
            )
    if order == 2:
        for case in range(scenarios):
            state = _draw_state(rng, order, (0.05, 2.0))
            result = oracle_free_search_m2(state.h, state.b, state.power)
            # numpy's complex division, whose rounding the printed max_off_ray shows.
            ray_dir = np.exp(-1j * np.angle(np.divide(-state.b, state.h)))
            off_ray = max(
                abs((result.x0 * ray_dir).imag), abs((result.x1 * ray_dir).imag)
            )
            tolerance = 1e-9 * math.sqrt(state.power)
            yield (
                f"free-search collinearity [#{case}]",
                off_ray <= tolerance,
                f"max_off_ray={off_ray:.4g} tolerance={tolerance:.4g}",
            )
            ray = oracle_ray_search(state).min_distance
            rel_gap = (result.min_distance - ray) / ray
            yield (
                f"free-search vs ray-search [#{case}]",
                abs(rel_gap) <= 1e-9,
                f"free={result.min_distance:.6g} ray={ray:.6g} rel_gap={rel_gap:.2e}",
            )


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.order < 2:
        parser.error(f"--order must be >= 2, got {args.order}")
    if args.scenarios < 1:
        parser.error(f"--scenarios must be >= 1, got {args.scenarios}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    all_ok = True
    for name, ok, detail in _verify_checks(args.order, args.scenarios, args.seed):
        tag = "PASS" if ok else "FAIL"
        all_ok = all_ok and ok
        sys.stdout.write(f"{tag} {name}: {detail}\n")
    sys.stdout.write("verification PASSED\n" if all_ok else "verification FAILED\n")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loamsim",
        description="Adaptive constellation design and SER simulation for "
        "amplitude-only receivers",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="design a constellation and emit JSON")
    p_design.add_argument("--h-re", type=float, required=True)
    p_design.add_argument("--h-im", type=float, default=0.0)
    p_design.add_argument("--b-re", type=float, default=0.0)
    p_design.add_argument("--b-im", type=float, default=0.0)
    p_design.add_argument("--power", type=float, required=True)
    p_design.add_argument("--order", type=int, required=True)
    p_design.add_argument("--scheme", choices=tuple(SCHEMES), default="loam")
    p_design.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_design.set_defaults(run=_cmd_design, parser=p_design)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo SER sweep from a JSON config")
    p_sweep.add_argument("config", help="path to the sweep config (JSON)")
    p_sweep.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_sweep.add_argument("--json-out", default=None, help="also write a JSON mirror here")
    p_sweep.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads, >= 1; output does not depend on it "
        "(default: one per CPU this process may run on)",
    )
    p_sweep.set_defaults(run=_cmd_sweep, parser=p_sweep)

    p_verify = sub.add_parser("verify", help="check designs against the exact search oracles")
    p_verify.add_argument("--order", type=int, default=4)
    p_verify.add_argument("--scenarios", type=int, default=3, help="scenarios per regime")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(run=_cmd_verify, parser=p_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # Each subcommand reports usage errors, leftover arguments included,
    # through its own parser, so they print its usage.
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.run(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
