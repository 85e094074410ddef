"""Golden bitstream: fixed scripts reproduce recorded outputs exactly.

The literals below were recorded from the implementation in which
``ChainSample`` kept one list of chain objects per slot and
``DetectorEngine`` kept its own copy of the chain and EH-lane state.
Any change to the stream stores' layout must leave every generator draw
where it was, so these scripts must keep producing the same values,
chain lengths and detection digests bit for bit.  The D3 node-state
digests and the faulted-network literals were recorded from the
implementation in which every D3 leaf kept its own one-stream
``StreamModelState`` and ingested its epoch block by itself.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_mixture_streams
from repro.detectors.d3 import D3Config, build_d3_network
from repro.engine.core import DetectorEngine
from repro.engine.snapshot import encode_snapshot
from repro.network.faults import CrashWindow, FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy
from repro.streams.sampling import ChainSample

#: n_dims -> (values(), chain_lengths()) after :func:`_chain_script`.
GOLDEN_CHAIN = {
    1: ([[0.07741221315534767], [1.484724572140023], [-0.83203693258301],
         [0.11922350051412166], [0.7840573304471662],
         [0.5561445311177896], [-0.5124864904956771]],
        [2, 2, 2, 1, 1, 1, 2]),
    2: ([[-1.6479856055446562, 0.2936038576447663],
         [0.11996674213767772, 1.4933997905305438],
         [0.5750271976203465, -0.18865499989803866],
         [-0.17564064692011247, -2.062300318893085],
         [0.4335442099660097, -0.029212854356842077],
         [0.5718171729396522, -0.3743854007470789],
         [1.4893468438471174, -0.27123502692325857]],
        [2, 2, 2, 1, 1, 1, 2]),
}

#: sha256 over every ingest call's flag matrix and ``last_flags``.
GOLDEN_ENGINE = {
    "distance": "17f5ec555c37931984216d777a58b8250a8b73193363b4b397fe15a1580f6913",
    "mdef": "ce8290caffadb3427b42a671359be5d38355ab9078f443da3acace0a3f795005",
}

#: (detections, sha256 of their (tick, node, origin, level) keys).
GOLDEN_NETWORK = (
    158, "f0d3417458e5d5e76b6e52051e9b27d972feed9ad8ffc6aafda4749282fc8bd0")

#: node id -> sha256 of ``encode_snapshot(node.state)`` after that run.
GOLDEN_NODE_STATES = {
    0: "685dc277c00703647edcf3e4116cf20d5cea0650bfdf81caee7a697b529893da",
    1: "4517028f240f5df3f28552e44b478946c4b791f98f26ee0b0eed077163aeaefe",
    2: "70e50abb559c01432b7a28917b9ddad15af4efe63ac9c13f60c81af68b23e0c9",
    3: "4dcaf197fed884697820a3c3db07534728abbd10ae3c69efa8e9ca7c945d00b8",
    4: "b2d339516eafe84d41c9fae9aff98ed842d5b90f0ae21f13240ccfcce637cd6a",
    5: "e1b8db70ee87d061b5b60c1bc62e0d815051ff2423420b6c35dea509ee7f5448",
    6: "069037bfa0e3f0067b0e212df5011b13880c2a07f863c042e7e26dfc932a6192",
    7: "243ca237400d4d0ce56f0de249f2e7f4100538ddf7bbac7fa8c6c495f34de28d",
    8: "90b7c03a8d1a54d4540459d56fd399996340017bbf0081c476aba2689389e783",
    9: "9729ac7ee66d7411bb590b1fe69cb9e1bee97d4bfcf6222ccda48981ba96bbd8",
    10: "8269f85c8fb2edc3d9d03040bcaca1b03726fc99ea726970f01de239a55e6a33",
    11: "af0ef0cdb5738ae0b5f3612d7afddebe30d80e1715c673c82966cdb53e137fb9",
    12: "8e1e095e0c2327bb2477672e683aec84d7d47d15f860f863da0402a67cfc7db8",
}

#: The same network with leaf 4 down over ticks [350, 480) and 10% loss:
#: (detections, sha256 of their keys, ``counter.counts``).
GOLDEN_FAULTED_NETWORK = (
    123, "b3883093f52e1d1aba91a2d395bb00e41cb350ab43bffac48837f1a7af9dfcb5",
    {"OutlierReport": 101, "ValueForward": 687})


def _chain_script(n_dims: int) -> ChainSample:
    """Mixed one-at-a-time and batched offers over 300 arrivals."""
    data = np.random.default_rng(2024).normal(size=(300, n_dims))
    sample = ChainSample(40, 7, n_dims=n_dims, rng=np.random.default_rng(11))
    i = 0
    for kind, k in (("one", 5), ("many", 13), ("one", 3), ("many", 60),
                    ("many", 1), ("one", 2), ("many", 97), ("one", 19),
                    ("many", 100)):
        if kind == "one":
            for row in data[i:i + k]:
                sample.offer(row)
        else:
            sample.offer_many(data[i:i + k])
        i += k
    assert i == 300
    return sample


@pytest.mark.parametrize("n_dims", [1, 2])
def test_chain_sample_script(n_dims):
    sample = _chain_script(n_dims)
    values, lengths = GOLDEN_CHAIN[n_dims]
    assert sample.values().tolist() == values
    assert sample.chain_lengths().tolist() == lengths


@pytest.mark.parametrize("spec_name", sorted(GOLDEN_ENGINE))
def test_engine_flags(spec_name):
    mdef = spec_name == "mdef"
    spec = MDEFSpec(sampling_radius=0.5, counting_radius=0.1, k_sigma=1.5) \
        if mdef else DistanceOutlierSpec(radius=0.5, count_threshold=3)
    n_dims = 2 if mdef else 1
    rng = np.random.default_rng(77)
    data = rng.normal(size=(240, 3, n_dims))
    data[rng.random((240, 3)) < 0.06] += 6.0
    if mdef:
        data = 0.5 + 0.05 * data     # clustered, so MDEF flags the spikes
    engine = DetectorEngine(3, spec, window_size=24, sample_size=8,
                            n_dims=n_dims, model_refresh=8,
                            rng=np.random.default_rng(5))
    digest = hashlib.sha256()
    start = flagged = 0
    for size in (1, 7, 32, 5, 64, 11, 1, 1, 118):
        flags = engine.ingest(data[start:start + size])
        digest.update(flags.tobytes())
        # The literals were recorded when a flag's ``model_seq`` was its
        # stream's model version at the end of the call; hash that
        # version, so the digest still pins the rebuild schedule.  The
        # version each flag was decided with is tested against the
        # scalar detector in tests/engine/test_core.py.
        ends = [engine.stream_state(s).model_seq for s in range(3)]
        digest.update(repr([{**flag, "model_seq": ends[flag["stream"]]}
                            for flag in engine.last_flags]).encode())
        flagged += int(flags.sum())
        start += size
    assert start == 240 and flagged > 0
    assert digest.hexdigest() == GOLDEN_ENGINE[spec_name]


def _d3_network(**sim_kwargs):
    """The 9-leaf D3 network the network literals were recorded on."""
    hierarchy = build_hierarchy(9, 3)
    config = D3Config(
        spec=DistanceOutlierSpec(radius=0.01, count_threshold=5),
        window_size=300, sample_size=30, sample_fraction=0.5, warmup=300)
    network = build_d3_network(hierarchy, config, 1,
                               rng=np.random.default_rng(13))
    streams = StreamSet.from_arrays(make_mixture_streams(9, 700, seed=13))
    return network, NetworkSimulator(hierarchy, network.nodes, streams,
                                     **sim_kwargs)


def _keys(network):
    return [(d.tick, d.node_id, d.origin, d.level)
            for d in network.log.detections]


def test_d3_network_detection_log():
    network, sim = _d3_network()
    sim.run_batched(epoch_size=64)
    keys = _keys(network)
    assert (len(keys), hashlib.sha256(repr(keys).encode()).hexdigest()) \
        == GOLDEN_NETWORK
    digests = {node_id: hashlib.sha256(
        encode_snapshot(node.state)).hexdigest()
        for node_id, node in sorted(network.nodes.items())}
    assert digests == GOLDEN_NODE_STATES


def test_d3_network_with_crashed_leaf():
    """Group members beside a leaf that runs the per-tick path."""
    faults = FaultPlan(crashes=[CrashWindow(node=4, start=350, end=480)])
    network, sim = _d3_network(loss_rate=0.1, faults=faults,
                               rng=np.random.default_rng(3))
    sim.run_batched(epoch_size=64)
    keys = _keys(network)
    assert (len(keys), hashlib.sha256(repr(keys).encode()).hexdigest(),
            dict(sim.counter.counts)) == GOLDEN_FAULTED_NETWORK
