"""1D Fourier phase retrieval toolkit.

Recovers a complex signal from the squared magnitude of its over-sampled
DFT by retrieving its autocorrelation with a convex program and factoring
the result into the unique minimum-phase signal.  Includes impulse
augmentation for identifiability, PhaseLift-family SDP solvers at desk
scale, classical alternating-projection baselines, and a Monte-Carlo
benchmark harness.
"""

from .baselines import IterativeOptions, fienup_sf, fienup_solve, gs_solve
from .cork import AdmmOptions, CorkDiagnostics, solve_cork
from .crb import compute_crb
from .measurement import (AugmentationSpec, ImpulseMarginWarning, add_noise,
                          augment_max_phase, augment_min_phase,
                          conjugate_reversal, deaugment, default_delta,
                          margin_violated, measure_augmented)
from .sdp import SdpOptions, phaselift_sf, phaselift_value, psd_project
from .signals import (MeasurementSet, autocorrelation, correlation_psd_check,
                      correlation_to_intensity, default_transform_length,
                      dft_partial, global_phase_distance, intensity_measure)
from .specfact import (InvalidCorrelationError, SfOptions, is_min_phase,
                       kolmogorov_sf, root_sf)

__version__ = "0.1.0"
