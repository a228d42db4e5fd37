"""fracspec: spectral solver for time-fractional subdiffusion on the torus.

The package solves D_t^rho u - Lap u = f on T^N = (-pi, pi]^N with a Caputo
time derivative of order rho in (0, 1], by eigenfunction expansion.  The
pieces are importable on their own:

* :mod:`fracspec.mlf` -- two-parameter Mittag-Leffler evaluation on the
  negative real axis, the relaxation kernel, and its exact antiderivative;
* :mod:`fracspec.spectra` -- torus Fourier analysis/synthesis, Liouville
  norms and their tail verdicts, fractional powers, embedding-constant scans;
* :mod:`fracspec.modal` -- the per-mode fractional Cauchy problem, solved
  one eigenvalue shell at a time: singular convolution quadrature plus the
  L1 Caputo differentiator;
* :mod:`fracspec.solver` -- full-field assembly, termwise operators,
  residual reports, truncation-tail indicators;
* :mod:`fracspec.counterexample` -- the Hardy-Littlewood datum and the
  growth-law / critical-exponent diagnostics that witness sharpness of the
  a > N/2 regularity threshold;
* :mod:`fracspec.cli` -- the ``fracspec`` command-line front end.
"""

from __future__ import annotations

from .errors import (
    AccuracyError,
    AliasError,
    ConfigError,
    ConvergenceError,
    DomainError,
    FracspecError,
    HypothesisError,
    InconclusiveError,
    MeshError,
    RegularityError,
    ZeroModeError,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "AliasError",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "FracspecError",
    "HypothesisError",
    "InconclusiveError",
    "MeshError",
    "RegularityError",
    "ZeroModeError",
    "__version__",
]
