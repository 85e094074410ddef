"""repro -- a from-scratch reproduction of

    S. Subramaniam, T. Palpanas, D. Papadopoulos, V. Kalogeraki,
    D. Gunopulos.  "Online Outlier Detection in Sensor Data Using
    Non-Parametric Models."  VLDB 2006.

The package implements the paper's full system: sliding-window kernel
density estimation from chain samples and variance sketches
(:mod:`repro.core`, :mod:`repro.streams`), the distributed D3 and MGDD
outlier-detection algorithms over a hierarchical sensor network
(:mod:`repro.detectors`, :mod:`repro.network`), the Section 9
applications (:mod:`repro.apps`), dataset generators
(:mod:`repro.data`), and a harness reproducing every table and figure of
the evaluation (:mod:`repro.eval`).

Quickstart::

    import numpy as np
    from repro import KernelDensityEstimator, DistanceOutlierSpec

    window = np.random.default_rng(0).normal(0.4, 0.03, 5_000)
    model = KernelDensityEstimator.from_window(window, sample_size=250)
    spec = DistanceOutlierSpec(radius=0.01, count_threshold=20)
    n = model.neighborhood_count(0.7, spec.radius)
    print("outlier" if n < spec.count_threshold else "normal")

See README.md for the architecture overview and examples/ for runnable
scenarios.
"""

from repro._exceptions import (
    EmptyModelError,
    ParameterError,
    ReproError,
    SimulationError,
    TopologyError,
)
from repro.core import (
    DistanceOutlierDetector,
    DistanceOutlierSpec,
    EquiDepthHistogram,
    KernelDensityEstimator,
    MDEFOutlierDetector,
    MDEFSpec,
    brute_force_distance_outliers,
    brute_force_mdef_outliers,
    jensen_shannon_divergence,
    kl_divergence,
    merge_estimators,
    model_js_divergence,
)
from repro.detectors import (
    D3Config,
    OnlineOutlierDetector,
    MGDDConfig,
    build_centralized_network,
    build_d3_network,
    build_mgdd_network,
)
from repro.network import (
    DetectionLog,
    Hierarchy,
    MessageCounter,
    NetworkSimulator,
    build_hierarchy,
)
from repro.streams import (
    ChainSample,
    MultiDimVarianceSketch,
    ReservoirSample,
    SlidingWindow,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ParameterError",
    "EmptyModelError",
    "TopologyError",
    "SimulationError",
    # core models and tests
    "KernelDensityEstimator",
    "merge_estimators",
    "EquiDepthHistogram",
    "DistanceOutlierSpec",
    "DistanceOutlierDetector",
    "MDEFSpec",
    "MDEFOutlierDetector",
    "brute_force_distance_outliers",
    "brute_force_mdef_outliers",
    "kl_divergence",
    "jensen_shannon_divergence",
    "model_js_divergence",
    # streaming substrate
    "SlidingWindow",
    "ChainSample",
    "ReservoirSample",
    "MultiDimVarianceSketch",
    # network + detectors
    "Hierarchy",
    "build_hierarchy",
    "NetworkSimulator",
    "MessageCounter",
    "DetectionLog",
    "OnlineOutlierDetector",
    "D3Config",
    "build_d3_network",
    "MGDDConfig",
    "build_mgdd_network",
    "build_centralized_network",
]
