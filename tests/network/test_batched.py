"""Epoch-batched simulation reproduces the per-tick simulation exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_mixture_streams, make_plateau_streams
from repro.detectors.d3 import D3Config, build_d3_network
from repro.detectors.mgdd import MGDDConfig, build_mgdd_network
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy


def build_d3(seed, **sim_kwargs):
    hierarchy = build_hierarchy(8, 4)
    config = D3Config(
        spec=DistanceOutlierSpec(radius=0.01, count_threshold=5),
        window_size=300, sample_size=30, sample_fraction=0.5, warmup=300)
    network = build_d3_network(hierarchy, config, 1,
                               rng=np.random.default_rng(seed))
    streams = StreamSet.from_arrays(make_mixture_streams(8, 600, seed=seed))
    sim = NetworkSimulator(hierarchy, network.nodes, streams, **sim_kwargs)
    return network, sim


def build_mgdd(seed):
    hierarchy = build_hierarchy(8, 4)
    config = MGDDConfig(
        spec=MDEFSpec(sampling_radius=0.08, counting_radius=0.01,
                      min_mdef=0.8),
        window_size=300, sample_size=30, sample_fraction=0.5, warmup=300)
    network = build_mgdd_network(hierarchy, config, 1,
                                 rng=np.random.default_rng(seed))
    streams = StreamSet.from_arrays(make_plateau_streams(8, 600, seed=seed))
    sim = NetworkSimulator(hierarchy, network.nodes, streams)
    return network, sim


def snapshot(network, sim):
    detections = [(d.tick, d.node_id, d.origin, d.level)
                  for d in network.log.detections]
    return detections, dict(sim.counter.counts), sim.tick


def loss_snapshot(network, sim):
    """Snapshot extended with the per-attempt outcome accounting."""
    return (snapshot(network, sim), sim.messages_lost,
            dict(sim.counter.delivered), dict(sim.counter.dropped),
            sim.drops_by_reason)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("epoch_size", [64, 17, 1])
    def test_d3_run_batched_identical(self, epoch_size):
        network_a, sim_a = build_d3(seed=9)
        sim_a.run()
        network_b, sim_b = build_d3(seed=9)
        sim_b.run_batched(epoch_size=epoch_size)
        assert snapshot(network_a, sim_a) == snapshot(network_b, sim_b)

    @pytest.mark.parametrize("epoch_size", [64, 17, 1])
    def test_mgdd_run_batched_identical(self, epoch_size):
        network_a, sim_a = build_mgdd(seed=4)
        sim_a.run()
        network_b, sim_b = build_mgdd(seed=4)
        reads = []
        for leaf in sim_b.hierarchy.leaf_ids:
            node = network_b.nodes[leaf]

            def on_reading(value, tick, _read=node.on_reading):
                reads.append(tick)
                return _read(value, tick)
            node.on_reading = on_reading
        sim_b.run_batched(epoch_size=epoch_size)
        assert snapshot(network_a, sim_a) == snapshot(network_b, sim_b)
        # MGDD leaves have no block path: at every epoch size each
        # reading goes through on_reading.
        assert len(reads) == len(sim_b.hierarchy.leaf_ids) * sim_b.tick

    def test_step_epoch_resumable_mid_run(self):
        """Interleaving epochs of different sizes matches one run()."""
        network_a, sim_a = build_d3(seed=3)
        sim_a.run()
        network_b, sim_b = build_d3(seed=3)
        for n_ticks in (100, 1, 37, 462):
            sim_b.step_epoch(n_ticks)
        assert snapshot(network_a, sim_a) == snapshot(network_b, sim_b)

    def test_on_tick_callback_fires_per_tick(self):
        _, sim = build_d3(seed=5)
        seen = []
        sim.run_batched(200, epoch_size=64, on_tick=seen.append)
        assert seen == list(range(200))


class TestLossyBatchedEquivalence:
    """Satellite (d): the two ingestion paths consume the loss rng in the
    same order, so detections, counters, and loss patterns all match."""

    @pytest.mark.parametrize("epoch_size", [64, 17])
    def test_d3_lossy_runs_identical(self, epoch_size):
        network_a, sim_a = build_d3(seed=9, loss_rate=0.2,
                                    rng=np.random.default_rng(11))
        sim_a.run()
        network_b, sim_b = build_d3(seed=9, loss_rate=0.2,
                                    rng=np.random.default_rng(11))
        sim_b.run_batched(epoch_size=epoch_size)
        assert loss_snapshot(network_a, sim_a) \
            == loss_snapshot(network_b, sim_b)
        assert sim_a.messages_lost > 0

    def test_d3_lossy_step_vs_step_epoch(self):
        network_a, sim_a = build_d3(seed=3, loss_rate=0.3,
                                    rng=np.random.default_rng(5))
        for _ in range(600):
            sim_a.step()
        network_b, sim_b = build_d3(seed=3, loss_rate=0.3,
                                    rng=np.random.default_rng(5))
        for n_ticks in (100, 1, 37, 462):
            sim_b.step_epoch(n_ticks)
        assert loss_snapshot(network_a, sim_a) \
            == loss_snapshot(network_b, sim_b)

    def test_d3_crash_plan_runs_identical(self):
        from repro.network.faults import CrashWindow, FaultPlan
        # Crash a leaf (stops sending) and an L2 leader (node 8: its
        # children's forwards drop while it is down).
        faults = FaultPlan(crashes=[CrashWindow(node=1, start=350, end=450),
                                    CrashWindow(node=8, start=400, end=500)])
        network_a, sim_a = build_d3(seed=9, loss_rate=0.1, faults=faults,
                                    rng=np.random.default_rng(2))
        sim_a.run()
        network_b, sim_b = build_d3(seed=9, loss_rate=0.1, faults=faults,
                                    rng=np.random.default_rng(2))
        sim_b.run_batched(epoch_size=64)
        assert loss_snapshot(network_a, sim_a) \
            == loss_snapshot(network_b, sim_b)
        assert sim_a.drops_by_reason.get("crash", 0) > 0
