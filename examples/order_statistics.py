"""Order statistics and moment monitoring from window summaries.

Section 9's closing applications: once a sensor keeps an online
approximation of its window distribution, it can answer order-statistic
queries (median, quantiles, IQR) and monitor the first moments (mean,
standard deviation, skew) without storing the window.  This example
runs two summaries side by side over a stream with a regime change:

* the window kernel model (this paper's approach): the chain sample and
  the variance sketch, whose sample also gives the window's skew,
* a Greenwald-Khanna quantile summary (the related-work comparator,
  which never forgets -- watch its median lag after the shift).

Run:  python examples/order_statistics.py
"""

from __future__ import annotations

import numpy as np

from repro import ChainSample, KernelDensityEstimator, MultiDimVarianceSketch
from repro.apps import estimate_iqr, estimate_median, estimate_quantile
from repro.streams.quantiles import GKQuantileSummary
from repro.streams.stats import summarize

WINDOW, SAMPLE = 2_000, 150


def main() -> None:
    rng = np.random.default_rng(17)
    # Regime A: a clean band.  Regime B: hotter, with a heavy right tail.
    regime_a = rng.normal(0.35, 0.02, 6_000)
    regime_b = np.concatenate([rng.normal(0.6, 0.03, 5_700),
                               rng.uniform(0.7, 0.95, 300)])
    rng.shuffle(regime_b)
    stream = np.concatenate([regime_a, regime_b])

    sample = ChainSample(WINDOW, SAMPLE, rng=rng)
    sketch = MultiDimVarianceSketch(WINDOW, 1)
    gk = GKQuantileSummary(0.01)

    checkpoints = (5_900, 8_000, 11_900)
    for tick, value in enumerate(stream):
        sample.offer([value])
        sketch.insert([value])
        gk.insert(float(value))
        if tick + 1 in checkpoints:
            window = stream[tick + 1 - WINDOW:tick + 1]
            model = KernelDensityEstimator(
                sample.values(), stddev=sketch.std(), window_size=WINDOW)
            print(f"--- tick {tick + 1} "
                  f"({'regime A' if tick < 6_000 else 'regime B'}) ---")
            print(f"  window median : model {estimate_median(model):.3f}  "
                  f"exact {np.median(window):.3f}  "
                  f"GK(all history) {gk.median():.3f}")
            print(f"  window p90    : model "
                  f"{estimate_quantile(model, 0.9):.3f}  "
                  f"exact {np.quantile(window, 0.9):.3f}")
            print(f"  window IQR    : model {estimate_iqr(model):.3f}  "
                  f"exact "
                  f"{np.quantile(window, 0.75) - np.quantile(window, 0.25):.3f}")
            print(f"  window skew   : sample "
                  f"{summarize(sample.values()[:, 0]).skew:+.2f}  "
                  f"exact {summarize(window).skew:+.2f}")
            print(f"  footprints    : sample {sample.memory_words()}w, "
                  f"sketch {sketch.memory_words()}w, "
                  f"GK {gk.memory_words()}w "
                  f"(window itself would be {WINDOW}w)")
    print("\nNote how the GK median (whole-history) lags the window after "
          "the regime change,\nwhile the window summaries track it -- the "
          "paper's case for sliding-window semantics.")


if __name__ == "__main__":
    main()
