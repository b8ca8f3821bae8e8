"""Minimum/maximum-phase measurement augmentation and noise injection.

Prepending an impulse ``delta`` with ``|delta| >= ||s||_1`` to a signal makes
the result minimum phase (all z-transform zeros strictly inside the unit
circle when the inequality is strict), restoring identifiability from
Fourier intensities.  Appending it instead gives the maximum-phase mirror.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .signals import MeasurementSet, as_rows, as_signal, intensity_measure

__all__ = [
    "AugmentationSpec",
    "ImpulseMarginWarning",
    "default_delta",
    "margin_violated",
    "augment_min_phase",
    "augment_max_phase",
    "conjugate_reversal",
    "deaugment",
    "add_noise",
    "measure_augmented",
]


class ImpulseMarginWarning(UserWarning):
    """Raised (as a warning) when |delta| < ||s||_1, so the minimum-phase
    certificate does not hold deterministically."""


@dataclass
class AugmentationSpec:
    """Impulse placement: value, number of gap zeros, and which side."""

    delta: complex
    gap: int = 0
    side: str = "prefix"

    def __post_init__(self):
        if self.gap < 0:
            raise ValueError("gap must be >= 0")
        if self.side not in ("prefix", "suffix"):
            raise ValueError("side must be 'prefix' or 'suffix'")


def default_delta(s, margin: float = 1e-3) -> float:
    """Deterministic impulse value ||s||_1 * (1 + margin), real positive.

    The strict margin keeps z-transform zeros off the unit circle, which
    the FFT spectral factorization needs.
    """
    s = as_signal(s)
    return float(np.sum(np.abs(s)) * (1.0 + margin))


def margin_violated(s, delta) -> bool:
    """True when |delta| < ||s||_1, so the impulse does not certify the
    augmented signal minimum (or maximum) phase."""
    return abs(delta) < float(np.sum(np.abs(as_signal(s))))


def _check_margin(s: np.ndarray, spec: AugmentationSpec) -> None:
    if margin_violated(s, spec.delta):
        warnings.warn(
            f"|delta|={abs(spec.delta):.6g} < ||s||_1={np.sum(np.abs(s)):.6g}: "
            "augmented signal is not certified minimum/maximum phase",
            ImpulseMarginWarning,
        )


def augment_min_phase(s, spec: AugmentationSpec) -> np.ndarray:
    """Return [delta, 0 x gap, s_0, ..., s_{N-1}] (requires side='prefix')."""
    s = as_signal(s)
    if spec.side != "prefix":
        raise ValueError("augment_min_phase requires a prefix spec")
    _check_margin(s, spec)
    return np.concatenate(([complex(spec.delta)], np.zeros(spec.gap, dtype=complex), s))


def augment_max_phase(s, spec: AugmentationSpec) -> np.ndarray:
    """Return [s_0, ..., s_{N-1}, 0 x gap, delta] (requires side='suffix')."""
    s = as_signal(s)
    if spec.side != "suffix":
        raise ValueError("augment_max_phase requires a suffix spec")
    _check_margin(s, spec)
    return np.concatenate((s, np.zeros(spec.gap, dtype=complex), [complex(spec.delta)]))


def conjugate_reversal(x) -> np.ndarray:
    """Conjugate and reverse (each row of a 2D stack); maps max phase to min
    phase, preserving the Fourier intensity for every transform length
    (zeros map to conjugate reciprocals)."""
    x = as_rows(x)
    return np.conj(x[..., ::-1])


def deaugment(xmin, spec: AugmentationSpec) -> np.ndarray:
    """Undo the impulse augmentation on a reconstructed signal (or on each
    row of a 2D stack of them).

    Rotates the global phase so the impulse entry is real positive, then
    strips the impulse and gap zeros.  For a suffix spec the reconstruction
    is the minimum-phase mirror [conj(delta), 0 x gap, conj(reversed s)], so
    the stripped core is conjugate-reversed back to recover s.
    """
    xmin = as_rows(xmin)
    if xmin.shape[-1] < spec.gap + 2:
        raise ValueError("augmented signal too short for this spec")
    pivot = xmin[..., :1]
    if np.any(pivot == 0):
        raise ValueError("impulse entry is exactly zero; cannot fix global phase")
    # np.hypot rounds |pivot| as abs() of one complex number does (np.abs
    # of a complex array can differ in the last bit), so a stack of rows
    # and a single estimate are rotated by the same factor
    rotated = xmin * (np.hypot(pivot.real, pivot.imag) / pivot)
    core = rotated[..., 1 + spec.gap:]
    if spec.side == "suffix":
        core = conjugate_reversal(core)
    return core


def add_noise(ms: MeasurementSet, sigma2: float, seed: int) -> MeasurementSet:
    """Add i.i.d. real Gaussian noise of variance ``sigma2`` to every entry.

    Deterministic for a fixed seed.  Negative noisy entries pass through
    unchanged (least-squares solvers handle them).
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    if sigma2 == 0.0:
        noisy = ms.b.copy()
    else:
        rng = np.random.default_rng(seed)
        noisy = ms.b + rng.normal(scale=np.sqrt(sigma2), size=ms.b.shape)
    return MeasurementSet(noisy, ms.n, sigma2=sigma2,
                          real_signal=ms.real_signal, augmentation=ms.augmentation)


def measure_augmented(s, spec: AugmentationSpec, m: int,
                      real_signal: bool = False) -> MeasurementSet:
    """Augment ``s`` per ``spec``, measure M-point Fourier intensities, and
    record the spec so the reconstruction can be de-augmented."""
    if spec.side == "prefix":
        smin = augment_min_phase(s, spec)
    else:
        smin = augment_max_phase(s, spec)
    b = intensity_measure(smin, m)
    return MeasurementSet(b, smin.size, real_signal=real_signal, augmentation=spec)
