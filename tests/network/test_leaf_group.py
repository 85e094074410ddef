"""A D3 network's leaf group equals leaves that each keep their own state.

Every leaf that a simulator feeds through the batch protocol joins the
network's :class:`~repro.detectors.d3.D3LeafGroup`, whose state is one
cross-stream engine; a leaf with a crash window keeps its own
``StreamModelState`` and reads tick by tick.  A crash window that opens
after the last tick never takes a leaf down but keeps it out of the
group, so crashing every leaf that way runs the whole network on the
per-reading path: the reference the grouped runs must match in
detections, messages, every node's state bytes and the lineage of every
flag.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import obs
from repro._exceptions import SimulationError
from repro.core.outliers import DistanceOutlierSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_mixture_streams
from repro.detectors.d3 import D3Config, D3LeafNode, build_d3_network
from repro.engine.snapshot import encode_snapshot
from repro.network.faults import CrashWindow, FaultPlan
from repro.network.node import DetectionLog
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy

N_LEAVES = 8
N_TICKS = 600


def build(*, scalar: bool, seed: int = 9):
    hierarchy = build_hierarchy(N_LEAVES, 4)
    config = D3Config(
        spec=DistanceOutlierSpec(radius=0.01, count_threshold=5),
        window_size=300, sample_size=30, sample_fraction=0.5, warmup=300)
    network = build_d3_network(hierarchy, config, 1,
                               rng=np.random.default_rng(seed))
    streams = StreamSet.from_arrays(
        make_mixture_streams(N_LEAVES, N_TICKS, seed=seed))
    faults = FaultPlan(crashes=[
        CrashWindow(node=leaf, start=N_TICKS)
        for leaf in hierarchy.leaf_ids]) if scalar else None
    sim = NetworkSimulator(hierarchy, network.nodes, streams,
                           loss_rate=0.1, faults=faults,
                           rng=np.random.default_rng(seed + 1))
    return network, sim


def outcome(network, sim):
    keys = [(d.tick, d.node_id, d.origin, d.level, d.value.tobytes())
            for d in network.log.detections]
    states = {node_id: hashlib.sha256(encode_snapshot(node.state)).digest()
              for node_id, node in network.nodes.items()}
    return keys, dict(sim.counter.counts), sim.messages_lost, states


def flag_lineage():
    return [(e["node"], e["reading_tick"], e["prob"], e["model_seq"])
            for e in obs.tracer().events() if e["event"] == "detector.flag"]


@pytest.mark.parametrize("epoch_size", [1, 17, 64])
def test_group_equals_per_reading_leaves(epoch_size):
    network_a, sim_a = build(scalar=True)
    sim_a.run_batched(epoch_size=epoch_size)
    network_b, sim_b = build(scalar=False)
    sim_b.run_batched(epoch_size=epoch_size)
    reference = outcome(network_a, sim_a)
    assert reference[0], "the reference run flags nothing"
    assert outcome(network_b, sim_b) == reference


def test_flag_lineage_equals_per_reading_leaves():
    obs.reset()
    try:
        with obs.enabled():
            network_a, sim_a = build(scalar=True)
            sim_a.run()
        reference = flag_lineage()
        obs.reset()
        with obs.enabled():
            network_b, sim_b = build(scalar=False)
            sim_b.run_batched(epoch_size=17)
        grouped = flag_lineage()
        assert obs.tracer().n_dropped == 0
    finally:
        obs.reset()
    assert any(level == 1 for _, _, _, level, _ in outcome(network_a,
                                                            sim_a)[0])
    assert grouped == reference


def test_membership_is_fixed_by_the_simulator():
    network, sim = build(scalar=False)
    leaves = [network.nodes[leaf] for leaf in sim.hierarchy.leaf_ids]
    assert all(leaf._row is not None for leaf in leaves)
    scalar_network, _ = build(scalar=True)
    assert all(scalar_network.nodes[leaf]._row is None
               for leaf in sim.hierarchy.leaf_ids)
    with pytest.raises(SimulationError):
        leaves[0].on_reading(np.array([0.5]), 0)


def test_leaf_with_its_own_state_cannot_join():
    config = D3Config(spec=DistanceOutlierSpec(radius=0.01,
                                               count_threshold=5),
                      window_size=50, sample_size=5)
    leaf = D3LeafNode(0, None, 1, config, 1, DetectionLog(),
                      np.random.default_rng(0))
    leaf.on_reading(np.array([0.5]), 0)
    with pytest.raises(SimulationError):
        leaf.join_batch()
    with pytest.raises(SimulationError):
        leaf.on_readings(np.array([[0.5]]), 1)

