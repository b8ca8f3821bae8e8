"""Minimum-phase measurement augmentation and noise injection.

Prepending an impulse ``delta`` with ``|delta| >= ||s||_1`` to a signal makes
the result minimum phase (all z-transform zeros strictly inside the unit
circle when the inequality is strict), restoring identifiability from
Fourier intensities.  The prefix impulse is the package's one augmentation.
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
    "deaugment",
    "add_noise",
    "measure_augmented",
]


class ImpulseMarginWarning(UserWarning):
    """Raised (as a warning) when |delta| < ||s||_1, so the minimum-phase
    certificate does not hold deterministically."""


@dataclass
class AugmentationSpec:
    """Prefix impulse: its value, known to the receiver, which also fixes
    the global phase of the de-augmented estimate."""

    delta: complex

    def __post_init__(self):
        # a zero impulse certifies nothing and de-augments to a wrong
        # estimate; a non-finite one poisons every measurement
        if not (np.isfinite(self.delta) and self.delta != 0):
            raise ValueError(f"delta must be finite and nonzero, got {self.delta}")


def default_delta(s, margin: float = 1e-3) -> float:
    """Deterministic impulse value ||s||_1 * (1 + margin), real positive.

    The strict margin keeps z-transform zeros off the unit circle, which
    the FFT spectral factorization needs.
    """
    s = as_signal(s)
    return float(np.sum(np.abs(s)) * (1.0 + margin))


def margin_violated(s, delta) -> bool:
    """True when |delta| < ||s||_1, so the impulse does not certify the
    augmented signal minimum phase."""
    return abs(delta) < float(np.sum(np.abs(as_signal(s))))


def augment_min_phase(s, spec: AugmentationSpec) -> np.ndarray:
    """Return [delta, s_0, ..., s_{N-1}]."""
    s = as_signal(s)
    if margin_violated(s, spec.delta):
        warnings.warn(
            f"|delta|={abs(spec.delta):.6g} < ||s||_1={np.sum(np.abs(s)):.6g}: "
            "augmented signal is not certified minimum phase",
            ImpulseMarginWarning,
        )
    return np.concatenate(([complex(spec.delta)], s))


def deaugment(xmin, spec: AugmentationSpec) -> np.ndarray:
    """Undo the impulse augmentation on a reconstructed signal (or on each
    row of a 2D stack of them).

    Rotates the global phase so the impulse entry takes the phase of the
    known ``spec.delta``, then strips the impulse.
    """
    xmin = as_rows(xmin)
    if xmin.shape[-1] < 2:
        raise ValueError("augmented signal too short for this spec")
    pivot = xmin[..., :1]
    if np.any(pivot == 0):
        raise ValueError("impulse entry is exactly zero; cannot fix global phase")
    # np.hypot rounds |pivot| as abs() of one complex number does (np.abs
    # of a complex array can differ in the last bit), so a stack of rows
    # and a single estimate are rotated by the same factor; for a real
    # delta > 0 the phase factor is exactly 1
    phase = spec.delta / abs(spec.delta)
    rotated = xmin * (np.hypot(pivot.real, pivot.imag) * phase / pivot)
    return rotated[..., 1:]


def add_noise(ms: MeasurementSet, sigma2: float, seed: int) -> MeasurementSet:
    """Add i.i.d. real Gaussian noise of variance ``sigma2`` to every entry.

    Deterministic for a fixed seed.  Negative noisy entries pass through
    unchanged (least-squares solvers handle them).
    """
    if not 0.0 <= sigma2 < np.inf:  # also NaN
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
    if sigma2 == 0.0:
        noisy = ms.b.copy()
    else:
        rng = np.random.default_rng(seed)
        noisy = ms.b + rng.normal(scale=np.sqrt(sigma2), size=ms.b.shape)
    return MeasurementSet(noisy, ms.n, sigma2=sigma2,
                          real_signal=ms.real_signal, augmentation=ms.augmentation)


def measure_augmented(s, spec: AugmentationSpec, m: int,
                      real_signal: bool = False) -> MeasurementSet:
    """Prepend the impulse of ``spec``, measure M-point Fourier intensities,
    and record the spec so the reconstruction can be de-augmented.  With
    ``real_signal``, an augmented signal with a nonzero imaginary part, in
    ``s`` or in the impulse, raises ``ValueError``."""
    smin = augment_min_phase(s, spec)
    if real_signal and np.any(smin.imag):
        raise ValueError("real_signal is set, but the augmented signal has a "
                         "nonzero imaginary part")
    b = intensity_measure(smin, m)
    return MeasurementSet(b, smin.size, real_signal=real_signal, augmentation=spec)
