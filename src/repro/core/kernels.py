"""Kernel functions for kernel density estimation (paper Section 4).

The paper uses the Epanechnikov kernel because it "is easy to integrate":
range queries over the density estimate reduce to evaluating the kernel's
CDF at the two interval endpoints (Equations 5 and 6).  The choice of
kernel function is not significant for the quality of the approximation
(Scott, 1992), so a Gaussian kernel is provided as well and exercised in
the ablation benchmarks.

Each kernel is expressed in *standardised* form: :meth:`Kernel.profile`
is a univariate density with unit scale, and the d-dimensional product
kernel of Equation 2 is assembled by the estimator from per-dimension
bandwidths.
"""

from __future__ import annotations

import abc
import math
from types import MappingProxyType

import numpy as np
from scipy.special import ndtr

__all__ = [
    "Kernel",
    "EpanechnikovKernel",
    "GaussianKernel",
    "EPANECHNIKOV",
    "GAUSSIAN",
    "kernel_by_name",
]


class Kernel(abc.ABC):
    """A standardised univariate smoothing kernel.

    Sub-classes implement the density (:meth:`profile`) and its
    antiderivative (:meth:`cdf`); both are vectorised over numpy arrays.
    """

    #: Short identifier used in configuration and reporting.
    name: str = "kernel"

    @abc.abstractmethod
    def profile(self, u: np.ndarray) -> np.ndarray:
        """Density of the standardised kernel at ``u``."""

    @abc.abstractmethod
    def cdf(self, u: np.ndarray) -> np.ndarray:
        """Cumulative distribution of the standardised kernel at ``u``."""

    @property
    @abc.abstractmethod
    def support_radius(self) -> float:
        """Radius ``s`` such that :meth:`profile` vanishes outside ``[-s, s]``.

        ``math.inf`` for kernels with unbounded support.  A finite ``s``
        also promises that :meth:`cdf` is exactly 0 at ``-s`` and below
        and exactly 1 at ``s`` and above: the estimator's Theorem 2
        pruning relies on it to leave out centres beyond that reach.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class EpanechnikovKernel(Kernel):
    """The Epanechnikov kernel ``k(u) = 3/4 (1 - u^2)`` on ``[-1, 1]``.

    This is the kernel of Equation 2 in the paper (with the product over
    dimensions and per-dimension bandwidths applied by the estimator).
    It is the unique mean-squared-error-optimal kernel and, crucially for
    sensors, its CDF is a cubic polynomial, so range queries need no
    numeric integration.
    """

    name = "epanechnikov"

    def profile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) <= 1.0
        return np.where(inside, 0.75 * (1.0 - u * u), 0.0)

    def cdf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        clipped = np.clip(u, -1.0, 1.0)
        return 0.25 * (2.0 + 3.0 * clipped - clipped * clipped * clipped)

    @property
    def support_radius(self) -> float:
        return 1.0


class GaussianKernel(Kernel):
    """The standard normal kernel.

    Included to demonstrate the paper's claim (after Scott, 1992) that the
    kernel choice does not materially affect the results.  The support is
    unbounded (the tails are small, not zero), so its range queries are
    never pruned.
    """

    name = "gaussian"

    def profile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

    def cdf(self, u: np.ndarray) -> np.ndarray:
        return ndtr(np.asarray(u, dtype=float))

    @property
    def support_radius(self) -> float:
        return math.inf


#: Shared immutable kernel instances (kernels are stateless).
EPANECHNIKOV = EpanechnikovKernel()
GAUSSIAN = GaussianKernel()

#: Read-only name -> shared instance view; immutable so shard workers
#: can never diverge through it (RL009).
_KERNELS = MappingProxyType({k.name: k for k in (EPANECHNIKOV, GAUSSIAN)})


def kernel_by_name(name: str) -> Kernel:
    """Look up a shared kernel instance by its :attr:`Kernel.name`."""
    try:
        return _KERNELS[name]
    except KeyError:
        known = ", ".join(sorted(_KERNELS))
        raise KeyError(f"unknown kernel {name!r}; known kernels: {known}") from None
