"""Command-line pipeline: measure, recover, factorize, bench.

Exit codes: 0 success, 2 validation error, 3 solver non-convergence (or, on
augmented data, an estimate that fails the min-phase certificate, checked
at every N), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as pio
from .bench import SOLVERS, ExperimentConfig, aggregate_and_persist, \
    check_thresholds, run_experiment
from .measurement import (AugmentationSpec, add_noise, deaugment,
                          default_delta, margin_violated, measure_augmented)
from .signals import (MeasurementSet, correlation_psd_check,
                      default_transform_length, global_phase_distance)
from .specfact import ROOT_SF_MAX_N, SfOptions, is_min_phase, \
    kolmogorov_sf, root_sf

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_signal(path: str) -> np.ndarray:
    try:
        return pio.load_signal_file(path)
    except FileNotFoundError as exc:
        raise CliError(f"input not found: {path}", EXIT_IO) from exc
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc


def cmd_measure(args) -> int:
    s = _load_signal(args.input)
    n = s.size
    if args.impulse == "three-sigma":
        delta = 3.0 * args.sigma * n
    else:
        delta = default_delta(s)
    m = args.m if args.m else int(np.ceil(args.oversampling * (n + args.gap + 1)))
    try:
        spec = AugmentationSpec(delta, gap=args.gap, side="prefix")
        ms = measure_augmented(s, spec, m, real_signal=args.real)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc
    if args.noise_sigma2 > 0:
        ms = add_noise(ms, args.noise_sigma2, args.seed)
    pio.save_measurement_file(args.output, ms)
    info = {"m": ms.m, "n": ms.n, "delta": delta,
            "margin_violated": margin_violated(s, delta),
            "snr_db": ms.snr_db() if np.isfinite(ms.snr_db()) else None}
    print(json.dumps(info))
    return EXIT_OK


def _load_measurement(path: str) -> MeasurementSet:
    try:
        return pio.load_measurement_file(path)
    except FileNotFoundError as exc:
        raise CliError(f"input not found: {path}", EXIT_IO) from exc
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc


def cmd_recover(args) -> int:
    ms = _load_measurement(args.input)
    diagnostics: dict = {"solver": args.solver, "m": ms.m, "n": ms.n}
    direct_mode = ms.augmentation is None
    if direct_mode:
        diagnostics["warning"] = (
            "no augmentation metadata: direct mode; the minimum-phase "
            "estimate is one of many signals with these intensities")

    l = default_transform_length(ms.n, args.l_factor)
    ms.real_signal = ms.real_signal or args.real
    try:
        xmin, diag = SOLVERS[args.solver](ms, l, args.seed,
                                          max_iters=args.max_iters, tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc
    diagnostics[args.solver] = diag
    if not diag["converged"]:
        diagnostics["converged"] = False

    if ms.real_signal:
        xmin = xmin.real.astype(complex)
    flag, margin = is_min_phase(xmin)
    diagnostics["min_phase"] = {"flag": flag, "margin": margin}
    estimate = xmin if direct_mode else deaugment(xmin, ms.augmentation)
    if args.reference:
        ref = _load_signal(args.reference)
        if ref.size == estimate.size:
            diagnostics["ref_error_rel"] = global_phase_distance(ref, estimate) \
                / max(float(np.linalg.norm(ref) ** 2), 1e-300)
    pio.save_signal_file(args.output, estimate)
    print(json.dumps(diagnostics))
    if diagnostics.get("converged") is False:
        return EXIT_NO_CONVERGENCE
    # deaugment is exact only for a minimum-phase estimate
    if not direct_mode and not flag:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_factorize(args) -> int:
    r = _load_signal(args.input)
    try:
        if not correlation_psd_check(r)[2]:
            raise CliError("input is not a valid correlation (sampled "
                           "spectrum has negative entries)", EXIT_VALIDATION)
        if args.exact:
            x = root_sf(r)
        else:
            l = default_transform_length(r.size, args.l_factor)
            x = kolmogorov_sf(r, SfOptions(l=l))
    except ValueError as exc:  # r0 not real or below 0, or N out of range
        raise CliError(str(exc), EXIT_VALIDATION) from exc
    pio.save_signal_file(args.output, x)
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"config not found: {args.config}", EXIT_IO) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.config}: invalid JSON: {exc}", EXIT_VALIDATION) from exc
    try:
        config = ExperimentConfig.from_json(obj)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad config: {exc}", EXIT_VALIDATION) from exc
    output_dir = args.output or config.output_dir
    if not output_dir:
        raise CliError("no output directory (pass --output or set output_dir)",
                       EXIT_VALIDATION)
    results = run_experiment(config)
    paths = aggregate_and_persist(results, output_dir)
    failures = check_thresholds(config, results)
    print(json.dumps({"paths": paths, "failures": failures}))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseret",
        description="1D Fourier phase retrieval via autocorrelation retrieval")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="augment a signal and measure intensities")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--oversampling", type=float, default=4.0,
                   help="M as a multiple of the augmented length (>= 2)")
    p.add_argument("--m", type=int, default=0, help="explicit M (overrides oversampling)")
    p.add_argument("--impulse", choices=["l1", "three-sigma"], default="l1")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="per-element deviation for the three-sigma impulse")
    p.add_argument("--gap", type=int, default=0)
    p.add_argument("--noise-sigma2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--real", action="store_true")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("recover", help="reconstruct a signal from measurements")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--solver", choices=list(SOLVERS), default="cork")
    p.add_argument("--l-factor", type=int, default=32)
    p.add_argument("--max-iters", type=int, help="default: the solver's own")
    p.add_argument("--tol", type=float, help="default: the solver's own")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--real", action="store_true")
    p.add_argument("--reference", default=None,
                   help="optional true signal for error reporting")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("factorize", help="minimum-phase factor of a correlation")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--l-factor", type=int, default=32)
    p.add_argument("--exact", action="store_true",
                   help=f"use the root method (N <= {ROOT_SF_MAX_N})")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("bench", help="run a Monte-Carlo experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "oversampling", None) is not None and args.command == "measure":
        if args.oversampling < 2 and not args.m:
            parser.exit(EXIT_VALIDATION,
                        "oversampling must be >= 2 (identifiability needs M >= 2N)\n")
    if getattr(args, "l_factor", 2) < 2:
        parser.exit(EXIT_VALIDATION,
                    "l-factor must be >= 2 (the transform length must reach 2N)\n")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
