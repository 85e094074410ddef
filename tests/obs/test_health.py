"""Model-health monitors: signals, SLOs, events, and non-interference."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro._exceptions import ParameterError
from repro.detectors._state import StreamModelState
from repro.eval.harness import ExperimentConfig, run_accuracy_run
from repro.obs.health import (HealthMonitor, HealthThresholds, ModelHealth,
                              PENALTIES)
from repro.obs.schema import validate_events


class _Node:
    """Minimal monitored node: just a ``state`` attribute."""

    def __init__(self, state):
        self.state = state


def _observe(state, values):
    """Feed ``values`` (one row per reading) to ``state`` in order."""
    for row in values:
        state.observe(row)


def _fed_state(values, *, window=64, sample_size=16, n_dims=1, seed=0):
    """A StreamModelState that has observed ``values`` and built a model."""
    state = StreamModelState(window, sample_size, n_dims,
                             model_refresh=1,
                             rng=np.random.default_rng(seed))
    _observe(state, np.asarray(values, dtype=float).reshape(-1, n_dims))
    state.model()
    return state


class TestThresholds:
    def test_defaults_valid(self):
        thresholds = HealthThresholds()
        assert 0.0 <= thresholds.min_sample_fill <= 1.0
        assert thresholds.drift_tol > 0

    @pytest.mark.parametrize("kwargs", [
        {"min_sample_fill": -0.1},
        {"min_sample_fill": 1.5},
        {"drift_tol": 0.0},
        {"max_staleness_ratio": 0.0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ParameterError):
            HealthThresholds(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"n_probes": 0},
        {"probe_radius": 0.0},
        {"probe_radius": 0.6},
    ])
    def test_monitor_rejects_bad_probe_config(self, kwargs):
        with pytest.raises(ParameterError):
            HealthMonitor({}, **kwargs)


class TestScore:
    def test_no_violations_is_perfect(self):
        rng = np.random.default_rng(1)
        node = _Node(_fed_state(rng.uniform(0.2, 0.8, size=200)))
        monitor = HealthMonitor({0: node})
        report = monitor.check(tick=0)[0]
        assert isinstance(report, ModelHealth)
        assert report.violations == ()
        assert report.score == 1.0

    def test_penalties_clamp_to_zero(self):
        assert PENALTIES["bandwidth-collapse"] == pytest.approx(0.40)
        # A pile of violations cannot push the score below zero.
        from repro.obs.health import _score
        assert _score(tuple(PENALTIES)) == 0.0

    def test_bandwidth_collapse_detected(self):
        # A constant stream has zero sketched deviation in every
        # dimension: Scott bandwidths collapse, the model degenerates.
        node = _Node(_fed_state(np.full(200, 0.5)))
        monitor = HealthMonitor({0: node})
        report = monitor.check(tick=0)[0]
        assert report.bandwidth_collapsed
        assert "bandwidth-collapse" in report.violations
        assert report.score <= 1.0 - PENALTIES["bandwidth-collapse"]


class TestDrift:
    def _monitor_and_node(self):
        state = StreamModelState(64, 16, 1, model_refresh=1,
                                 rng=np.random.default_rng(2))
        node = _Node(state)
        return HealthMonitor({0: node}, probe_seed=3), state

    def test_no_drift_until_two_models(self):
        monitor, state = self._monitor_and_node()
        rng = np.random.default_rng(4)
        _observe(state, rng.uniform(0.2, 0.4, size=(100, 1)))
        state.model()
        report = monitor.check(tick=0)[0]
        assert report.drift_linf is None

    def test_mean_shift_raises_drift(self):
        monitor, state = self._monitor_and_node()
        rng = np.random.default_rng(5)
        _observe(state, rng.normal(0.25, 0.02, size=(200, 1)).clip(0, 1))
        state.model()
        monitor.check(tick=0)
        # Shift the distribution far enough to displace the window.
        _observe(state, rng.normal(0.75, 0.02, size=(200, 1)).clip(0, 1))
        state.model()
        report = monitor.check(tick=1)[0]
        assert report.drift_linf is not None
        assert report.drift_linf >= monitor.thresholds.drift_tol
        assert "drift" in report.violations

    def test_unchanged_model_not_reprobed(self):
        monitor, state = self._monitor_and_node()
        rng = np.random.default_rng(6)
        _observe(state, rng.uniform(0.2, 0.8, size=(100, 1)))
        state.model()
        first = monitor.check(tick=0)[0]
        second = monitor.check(tick=1)[0]   # same cached model object
        assert first.drift_linf is None
        assert second.drift_linf is None    # identity-compared, no probe

    def test_check_is_a_pure_read(self):
        # The monitor must never trigger a rebuild: cached_model identity
        # is unchanged across a check even when a rebuild would be due.
        monitor, state = self._monitor_and_node()
        rng = np.random.default_rng(7)
        _observe(state, rng.uniform(0.2, 0.8, size=(100, 1)))
        state.model()
        before = state.cached_model
        _observe(state, rng.uniform(0.2, 0.8, size=(50, 1)))
        monitor.check(tick=0)               # rebuild is due, but not ours
        assert state.cached_model is before


class TestEventsAndHooks:
    def test_events_schema_valid_when_active(self):
        node = _Node(_fed_state(np.full(200, 0.5)))   # collapsed -> violation
        monitor = HealthMonitor({0: node})
        with obs.enabled():
            monitor.check(tick=3)
        events = obs.tracer().events()
        kinds = {record["event"] for record in events}
        assert "health.check" in kinds
        assert "health.node" in kinds
        assert "health.slo_violation" in kinds
        assert validate_events(events) == []

    def test_inactive_monitor_emits_nothing(self):
        node = _Node(_fed_state(np.full(200, 0.5)))
        monitor = HealthMonitor({0: node})
        report = monitor.check(tick=0)[0]
        assert report.violations            # signal computed...
        assert obs.tracer().n_emitted == 0  # ...but nothing emitted

    def test_gauges_published(self):
        rng = np.random.default_rng(8)
        node = _Node(_fed_state(rng.uniform(0.2, 0.8, size=200)))
        monitor = HealthMonitor({0: node})
        with obs.enabled():
            monitor.check(tick=0)
        snapshot = obs.metrics().snapshot()
        assert snapshot["gauges"]["health.node.0.score"] == 1.0
        assert snapshot["counters"]["health.checks"] == 1

    def test_on_violation_hook_fires(self):
        node = _Node(_fed_state(np.full(200, 0.5)))
        seen = []
        monitor = HealthMonitor(
            {0: node}, on_violation=lambda nid, rep: seen.append((nid, rep)))
        monitor.check(tick=0)
        assert len(seen) == 1
        assert seen[0][0] == 0
        assert "bandwidth-collapse" in seen[0][1].violations

    def test_nodes_without_state_skipped(self):
        monitor = HealthMonitor({0: object()})
        assert monitor.check(tick=0) == {}


class TestSummary:
    def test_shape_and_peak_drift(self):
        rng = np.random.default_rng(9)
        node = _Node(_fed_state(rng.uniform(0.2, 0.8, size=200)))
        monitor = HealthMonitor({0: node})
        monitor.check(tick=0)
        summary = monitor.summary()
        assert summary["n_checks"] == 1
        assert summary["n_nodes"] == 1
        assert summary["min_score"] == 1.0
        node_entry = summary["nodes"]["0"]
        assert set(node_entry) == {"score", "drift_linf", "peak_drift",
                                   "violations"}


def _run(dataset, *, health_every=20, obs_flag=True):
    config = ExperimentConfig(
        algorithm="d3", dataset=dataset, n_leaves=4, window_size=120,
        sample_ratio=0.25, measure_ticks=160,
        health_check_every=health_every)
    return run_accuracy_run(config, seed=7, obs=obs_flag)


class TestHarnessIntegration:
    def test_drift_injection_raises_drift_and_emits(self):
        # The acceptance criterion: a seeded drift-injection run must
        # provably raise the drift score vs the stationary baseline and
        # emit schema-valid health.drift events.
        drifted = _run("drift")
        stationary = _run("synthetic")

        def peak(result):
            nodes = result.network_stats["health"]["nodes"].values()
            return max(entry["peak_drift"] for entry in nodes
                       if entry["peak_drift"] is not None)

        assert peak(drifted) > peak(stationary)
        by_kind = drifted.network_stats["obs"]["events_by_kind"]
        assert by_kind.get("health.drift", 0) >= 1
        assert by_kind.get("health.drift", 0) > \
            stationary.network_stats["obs"]["events_by_kind"].get(
                "health.drift", 0)

    def test_monitor_does_not_change_detections(self):
        # Attaching the monitor is observation only: detection results
        # are identical with and without health checks.
        with_monitor = _run("synthetic", obs_flag=False)
        without = ExperimentConfig(
            algorithm="d3", dataset="synthetic", n_leaves=4,
            window_size=120, sample_ratio=0.25, measure_ticks=160)
        baseline = run_accuracy_run(without, seed=7, obs=False)
        assert with_monitor.levels == baseline.levels
        assert with_monitor.n_true_outliers == baseline.n_true_outliers

    def test_summary_embedded_in_network_stats(self):
        result = _run("synthetic")
        health = result.network_stats["health"]
        assert health["n_checks"] > 0
        assert health["n_nodes"] > 0
