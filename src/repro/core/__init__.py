"""The paper's primary contribution: non-parametric sliding-window density
models and the outlier tests built on them (Sections 3-8).
"""

from repro.core.bandwidth import scott_bandwidths, silverman_bandwidths
from repro.core.baselines import (
    brute_force_distance_outliers,
    brute_force_distance_outliers_naive,
    brute_force_mdef_outliers,
    chebyshev_neighbor_counts,
)
from repro.core.divergence import (
    jensen_shannon_divergence,
    kl_divergence,
    model_js_divergence,
)
from repro.core.estimator import KernelDensityEstimator, merge_estimators
from repro.core.histogram import EquiDepthHistogram
from repro.core.kernels import (
    EPANECHNIKOV,
    GAUSSIAN,
    EpanechnikovKernel,
    GaussianKernel,
    Kernel,
    kernel_by_name,
)
from repro.core.mdef import (
    MDEFDecision,
    MDEFOutlierDetector,
    MDEFSpec,
    mdef_statistic,
)
from repro.core.model import DensityModel
from repro.core.outliers import (
    DistanceOutlierDecision,
    DistanceOutlierDetector,
    DistanceOutlierSpec,
    is_distance_outlier,
)

__all__ = [
    "DensityModel",
    "Kernel",
    "EpanechnikovKernel",
    "GaussianKernel",
    "EPANECHNIKOV",
    "GAUSSIAN",
    "kernel_by_name",
    "scott_bandwidths",
    "silverman_bandwidths",
    "KernelDensityEstimator",
    "merge_estimators",
    "EquiDepthHistogram",
    "kl_divergence",
    "jensen_shannon_divergence",
    "model_js_divergence",
    "DistanceOutlierSpec",
    "DistanceOutlierDecision",
    "DistanceOutlierDetector",
    "is_distance_outlier",
    "MDEFSpec",
    "MDEFDecision",
    "MDEFOutlierDetector",
    "mdef_statistic",
    "brute_force_distance_outliers",
    "brute_force_distance_outliers_naive",
    "brute_force_mdef_outliers",
    "chebyshev_neighbor_counts",
]
