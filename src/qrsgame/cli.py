"""Command-line front end: payoff evaluation, calibration, sweeps, sampling.

Exit codes: 0 on success, 2 for invalid configuration or parse failures,
3 when calibration cannot certify a sound penalty rate. Computed values
are printed to 10 significant digits, inputs such as --W are echoed as
given, and every run is reproducible from its seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .game import (
    SQRT3,
    HonestQuantum,
    PayoffEstimate,
    canonical_game,
    estimate_payoff,
    exact_payoff,
    partial_bsm_povm,
    simulate_runs,
)
from .states import load_ensemble, referee_ideal, werner_state
from .witness import (
    W_CHSH,
    W_KNOWN_BELL,
    W_NO_BELL,
    CalibrationError,
    CountRecord,
    UnusedArgumentsError,
    calibrate,
    chsh_werner,
    regime_at,
    report_to_dict,
    rstar_oracle,
    werner_threshold,
)


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _round10(x: float) -> float:
    return float(_fmt(x))


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _game(args: argparse.Namespace) -> tuple:
    # The --ensemble (ideal by default) and the game at --r, which 'auto' calibrates on it.
    ensemble = referee_ideal() if args.ensemble_path is None else load_ensemble(args.ensemble_path)
    if args.r == "auto":
        return ensemble, canonical_game(max(rstar_oracle(ensemble), 1.0))
    try:
        r = float(args.r)
    except ValueError as exc:
        raise ValueError(f"--r must be a number or 'auto', got {args.r!r}") from exc
    return ensemble, canonical_game(r)


def _honest_strategies(weights, visibility: float) -> list[HonestQuantum]:
    """Honest Werner players, one per weight, sharing one analyzer."""
    shared = [werner_state(float(w)) for w in weights]  # a bad --W is reported first
    analyzer = partial_bsm_povm(visibility)
    return [HonestQuantum(rho, analyzer) for rho in shared]


def _estimate_dict(estimate: PayoffEstimate) -> dict:
    data = estimate.to_dict()
    data["value"] = _round10(data["value"])
    data["stderr"] = _round10(data["stderr"])
    return data


def cmd_payoff(args: argparse.Namespace) -> int:
    if args.n_per_setting < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n_per_setting}")
    if args.n_per_setting == 0 and args.seed is not None:
        raise ValueError("--seed is only used together with --n")
    ensemble, spec = _game(args)
    [strategy] = _honest_strategies([args.w], args.visibility)
    exact = exact_payoff(spec, strategy, ensemble)
    reference = 3.0 * args.visibility * args.w - SQRT3 * spec.r * (2.0 - args.visibility)
    regime = regime_at(args.w, werner_threshold(spec, strategy.bob_povm, ensemble))
    estimate = None
    if args.n_per_setting > 0:
        tally = simulate_runs(spec, strategy, ensemble, args.n_per_setting, args.seed or 0)
        estimate = estimate_payoff(spec, tally)
    if args.format == "json":
        data = {
            "W": args.w,
            "r": _round10(spec.r),
            "exact_payoff": _round10(exact),
            "linear_reference": _round10(reference),
            "regime": regime,
        }
        if estimate is not None:
            data["estimate"] = _estimate_dict(estimate)
        _emit(json.dumps(data, indent=2) + "\n", args.output_path)
    else:
        lines = [
            f"exact_payoff = {_fmt(exact)}",
            f"linear_reference = {_fmt(reference)}",
            f"regime = {regime}",
        ]
        if estimate is not None:
            lines.append(f"estimate = {_fmt(estimate.value)}")
            lines.append(f"estimate_stderr = {_fmt(estimate.stderr)}")
        _emit("\n".join(lines) + "\n", args.output_path)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    if (args.ensemble_path is None) == (args.counts_path is None):
        raise ValueError("calibrate needs exactly one of --ensemble or --counts")
    ensemble = None if args.ensemble_path is None else load_ensemble(args.ensemble_path)
    counts = None if args.counts_path is None else CountRecord.load(args.counts_path)
    try:
        report = calibrate(ensemble, counts, trials=args.trials, seed=args.seed)
    except UnusedArgumentsError as exc:  # calibrate's parameter names, printed as the flags
        flags = " or ".join(f"--{name}" for name in exc.args)
        raise ValueError(f"calibrate --ensemble does not use {flags}") from None
    data = report_to_dict(report)
    for key in ("r_star_oracle", "r_star_printed", "r_star_legal", "avg_fidelity"):
        data[key] = _round10(data[key])
    if data["bootstrap"] is not None:
        data["bootstrap"]["mean"] = _round10(data["bootstrap"]["mean"])
        data["bootstrap"]["std"] = _round10(data["bootstrap"]["std"])
    _emit(json.dumps(data, indent=2) + "\n", args.output_path)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise ValueError(f"sweep needs at least one grid point, got {args.steps}")
    if not (0.0 <= args.w_min <= args.w_max <= 1.0):
        raise ValueError(
            f"sweep grid bounds must satisfy 0 <= min <= max <= 1, "
            f"got [{args.w_min}, {args.w_max}]"
        )
    ensemble, spec = _game(args)
    grid = np.linspace(args.w_min, args.w_max, args.steps)
    strategies = _honest_strategies(grid, args.visibility)
    w_game = werner_threshold(spec, strategies[0].bob_povm, ensemble)
    lines = [
        f"# threshold this-game W = {_fmt(w_game)}",
        f"# threshold no-Bell-possible-below W = {_fmt(W_NO_BELL)}",
        f"# threshold known-Bell-above W = {_fmt(W_KNOWN_BELL)}",
        f"# threshold CHSH W = {_fmt(W_CHSH)}",
        "W,exact_payoff,regime",
    ]
    for w, strategy in zip(grid, strategies):
        payoff = exact_payoff(spec, strategy, ensemble)
        lines.append(f"{_fmt(w)},{_fmt(payoff)},{regime_at(float(w), w_game)}")
    _emit("\n".join(lines) + "\n", args.output_path)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.n_per_setting < 1:
        raise ValueError("simulate needs --n >= 1")
    ensemble, spec = _game(args)
    [strategy] = _honest_strategies([args.w], args.visibility)
    tally = simulate_runs(spec, strategy, ensemble, args.n_per_setting, args.seed or 0)
    estimate = estimate_payoff(spec, tally)
    if args.output_path is not None:
        tally.save(args.output_path)
    else:
        sys.stdout.write(tally.format())
    sys.stdout.write(json.dumps(_estimate_dict(estimate), indent=2) + "\n")
    return 0


def cmd_chsh(args: argparse.Namespace) -> int:
    value = chsh_werner(args.w)
    if args.format == "json":
        data = {"W": args.w, "chsh": _round10(value), "classical_bound": 2.0,
                "violated": value > 2.0}
        _emit(json.dumps(data, indent=2) + "\n", args.output_path)
    else:
        lines = [
            f"chsh = {_fmt(value)}",
            "classical_bound = 2",
            f"violated = {'yes' if value > 2.0 else 'no'}",
        ]
        _emit("\n".join(lines) + "\n", args.output_path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # No parser completes a flag's prefix: --vis is an error, not --visibility.
    parser = argparse.ArgumentParser(
        prog="qrs", description="Steering-game payoffs, calibration and sampling.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    def common(p: argparse.ArgumentParser, *, w: bool = False) -> None:
        if w:
            p.add_argument("--W", dest="w", type=float, required=True,
                           help="Werner weight in [0, 1]")
        p.add_argument("--r", default="1", help="penalty rate, or 'auto'")
        p.add_argument("--visibility", type=float, default=1.0,
                       help="analyzer interference visibility in [0, 1]")
        p.add_argument("--ensemble", dest="ensemble_path", default=None,
                       help="referee ensemble JSON (default: ideal)")
        p.add_argument("--out", dest="output_path", default=None)

    p = command("payoff", "exact payoff, optionally with a sampled estimate")
    common(p, w=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--n", dest="n_per_setting", type=int, default=0,
                   help="rounds per setting for the Monte Carlo estimate")
    p.set_defaults(func=cmd_payoff)

    p = command("calibrate", "calibration report from ensemble or counts")
    p.add_argument("--ensemble", dest="ensemble_path", default=None)
    p.add_argument("--counts", dest="counts_path", default=None,
                   help="tomography counts CSV")
    p.add_argument("--trials", type=int, default=None, help="bootstrap trials (default 200)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", dest="output_path", default=None)
    p.set_defaults(func=cmd_calibrate)

    p = command("sweep", "payoff and regime over a Werner-weight grid")
    common(p)
    p.add_argument("--w-min", dest="w_min", type=float, default=0.0)
    p.add_argument("--w-max", dest="w_max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=0, help="number of grid points")
    p.set_defaults(func=cmd_sweep)

    p = command("simulate", "sample a tally and estimate the payoff")
    common(p, w=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", dest="n_per_setting", type=int, default=0,
                   help="rounds per setting")
    p.set_defaults(func=cmd_simulate)

    p = command("chsh", "CHSH value of the Werner state")
    p.add_argument("--W", dest="w", type=float, required=True)
    p.add_argument("--out", dest="output_path", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_chsh)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CalibrationError as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
