"""Command-line pipeline: measure, recover, factorize, bench.

``recover`` and ``factorize`` sample the correlation spectrum at the default
transform length (the smallest power of two above 32N); ``recover`` takes
signal realness from the measurement file, which ``measure --real`` sets.

Exit codes: 0 success, 2 malformed input or invalid option, 3 solver
non-convergence (or, on augmented data, an estimate that fails the min-phase
certificate, checked at every N), 4 I/O error.  Commands raise; ``main``
alone turns a ``ValueError`` into 2 and an ``OSError`` into 4.
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
from .signals import correlation_psd_check, global_phase_distance
from .specfact import ROOT_SF_MAX_N, is_min_phase, kolmogorov_sf, root_sf

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


def cmd_measure(args) -> int:
    s = pio.load_signal_file(args.input)
    n = s.size
    if args.impulse == "three-sigma":
        delta = 3.0 * args.sigma * n
    else:
        delta = default_delta(s)
    m = args.m if args.m else int(np.ceil(args.oversampling * (n + args.gap + 1)))
    spec = AugmentationSpec(delta, gap=args.gap, side="prefix")
    ms = measure_augmented(s, spec, m, real_signal=args.real)
    if args.noise_sigma2 > 0:
        ms = add_noise(ms, args.noise_sigma2, args.seed)
    pio.save_measurement_file(args.output, ms)
    info = {"m": ms.m, "n": ms.n, "delta": delta,
            "margin_violated": margin_violated(s, delta),
            "snr_db": ms.snr_db() if np.isfinite(ms.snr_db()) else None}
    print(json.dumps(info))
    return EXIT_OK


def cmd_recover(args) -> int:
    ms = pio.load_measurement_file(args.input)
    ref = pio.load_signal_file(args.reference) if args.reference else None
    diagnostics: dict = {"solver": args.solver, "m": ms.m, "n": ms.n}
    direct_mode = ms.augmentation is None
    if direct_mode:
        diagnostics["warning"] = (
            "no augmentation metadata: direct mode; the minimum-phase "
            "estimate is one of many signals with these intensities")

    xmin, diag = SOLVERS[args.solver](ms, args.seed,
                                      max_iters=args.max_iters, tol=args.tol)
    diagnostics[args.solver] = diag
    if not diag["converged"]:
        diagnostics["converged"] = False

    if ms.real_signal:
        xmin = xmin.real.astype(complex)
    flag, margin = is_min_phase(xmin)
    diagnostics["min_phase"] = {"flag": flag, "margin": margin}
    estimate = xmin if direct_mode else deaugment(xmin, ms.augmentation)
    if ref is not None and ref.size == estimate.size:
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
    r = pio.load_signal_file(args.input)
    if not correlation_psd_check(r)[2]:
        raise ValueError("input is not a valid correlation (sampled "
                         "spectrum has negative entries)")
    x = root_sf(r) if args.exact else kolmogorov_sf(r)
    pio.save_signal_file(args.output, x)
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        with open(args.config) as fh:
            config = ExperimentConfig.from_json(json.load(fh))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad config {args.config}: {exc}") from exc
    output_dir = args.output or config.output_dir
    if not output_dir:
        raise ValueError("no output directory (pass --output or set output_dir)")
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
    p.add_argument("--max-iters", type=int, help="default: the solver's own")
    p.add_argument("--tol", type=float, help="default: the solver's own; "
                   "cork has none and rejects it, phaselift-sf ignores it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", default=None,
                   help="optional true signal for error reporting")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("factorize", help="minimum-phase factor of a correlation")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
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
    if args.command == "measure" and args.oversampling < 2 and not args.m:
        parser.exit(EXIT_VALIDATION,
                    "oversampling must be >= 2 (identifiability needs M >= 2N)\n")
    try:
        return args.func(args)
    except ValueError as exc:  # also malformed JSON and undecodable text
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
