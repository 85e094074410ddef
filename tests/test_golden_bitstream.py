"""Golden bitstream: fixed scripts reproduce recorded outputs exactly.

The literals below were recorded from the implementation in which
``ChainSample`` draws each successor timestamp from a counter-based
function of a per-stream 64-bit key, the slot and the arrival timestamp
(:func:`repro.streams.sampling.draw_successor`), and snapshots store
those keys (snapshot schema version 4).  They replaced literals
recorded when every slot drew its successors from its own spawned
generator.  Any change to the stream stores' layout must leave every
generator draw where it was, so these scripts must keep producing the
same values, chain lengths and detection digests bit for bit.

``GOLDEN_FAULTED_TRACES`` pins the whole event stream of the two faulted
traced runs of tests/obs/test_conservation.py (loss, crashes,
duplication, reliable transport and leader repair): every event, its
fields in emission order and the order of events, less the wall-clock
``t`` and ``dur_s`` fields.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_mixture_streams
from repro.detectors.d3 import D3Config, build_d3_network
from repro.engine.core import DetectorEngine
from repro.engine.snapshot import encode_snapshot
from repro.eval.harness import run_accuracy_run
from repro.network.faults import CrashWindow, FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy
from repro.obs import report
from repro.streams.sampling import ChainSample
from tests.obs.test_conservation import _faulted_config

#: n_dims -> (values(), chain_lengths()) after :func:`_chain_script`.
GOLDEN_CHAIN = {
    1: ([[0.07741221315534767], [0.19406186902635922], [0.6599992334690813],
         [-0.20552776074310697], [0.7840573304471662],
         [0.5561445311177896], [-0.5124864904956771]],
        [3, 2, 1, 2, 1, 1, 1]),
    2: ([[-1.6479856055446562, 0.2936038576447663],
         [1.4616801371722374, -0.37400201106867914],
         [1.2120799873927248, -0.3782029491860633],
         [0.06772794967749733, -0.26708459912924415],
         [0.4335442099660097, -0.029212854356842077],
         [0.5718171729396522, -0.3743854007470789],
         [1.4893468438471174, -0.27123502692325857]],
        [3, 2, 1, 2, 1, 1, 1]),
}

#: sha256 over every ingest call's flag matrix and ``last_flags``.
GOLDEN_ENGINE = {
    "distance": "9c6f0fae69ec9b72667f0f3a1527efcd1347a6026d33fb9600f6baabc663dd37",
    "mdef": "a6ff83e5358ba96e73d884e58c4257b96d5e4f562f9b408af1d26a72488a189d",
}

#: (detections, sha256 of their (tick, node, origin, level) keys).
GOLDEN_NETWORK = (
    170, "aa31eacf1280cfbe5b615338222dd3e418e20abaf940f450beede5b1a37a5a24")

#: node id -> sha256 of ``encode_snapshot(node.state)`` after that run.
GOLDEN_NODE_STATES = {
    0: "e5efff7156c14decbd2c665dfe6831aa1e2371f488f8e83c5d80885151dc9032",
    1: "cb090b5bc2721248b86d614c36ace53c3444c079879361ac6bc0792ff31118db",
    2: "06a26baaa6994f5db9fec052bbe7c83b5f294027586a2fdf172bf5cfb62f5ca6",
    3: "3cf8e866b8ad25412458914878b5535141950d419414500f1b2d4c13691bbd54",
    4: "06536182330299f8515c7841c31ab6a69420311b9ae199a1fa6d7608b5294b82",
    5: "67f375c7c3898e0a63b604e3c27bbd79cba0346c552bbc47313ce8a1bbed9a08",
    6: "52e0ef8ea39b2fe856a6377181e621e91326cdef0f74bb677ce68a3e3ce52230",
    7: "08af673187b496deb5f07c6ef4222dec274344b5749982c2ea4ce41eb19a55e2",
    8: "fd6cf5aae2a60395c2d0fd96088e219029380615939fd2b877cba25a599ebfed",
    9: "1de263cf579e1dfd1858a8d7807a7e49ff24e1a2aab43ce68d9bd0e6a3184295",
    10: "de5729da5a23446c397416d7515bdb2fcc836c29be6b9942c12f9e1437b489e9",
    11: "430be6338a76ce4c9d7b15cf5e98c3478760b085432c7453354da9e33fb4ae18",
    12: "dccbe2bb8fd98236bd7ecbbcb8c3ef9ab0c18822bcff3e86a1b362a4d3fc3fe6",
}

#: The same network with leaf 4 down over ticks [350, 480) and 10% loss:
#: (detections, sha256 of their keys, ``counter.counts``).
GOLDEN_FAULTED_NETWORK = (
    126, "a2b2007bc44241fbc93141d0716e11027bc644aaa79c492fe9062555646ddfe2",
    {"OutlierReport": 105, "ValueForward": 686})

#: algorithm -> (events, sha256 over the events less ``t``/``dur_s``) of
#: ``run_accuracy_run(_faulted_config(algorithm), seed=3)`` traced.
GOLDEN_FAULTED_TRACES = {
    "d3": (6247,
           "517897fee8dbfd2d4a26a059d1c8137a6a6d55274a4471cc0a9807c65e5be0cb"),
    "mgdd": (9767,
             "6a28e292324c0288a399ce8ed567438b2a57cc1c17afe139ec957a60eb104899"),
}


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


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_FAULTED_TRACES))
def test_faulted_trace_event_stream(algorithm, tmp_path):
    path = tmp_path / "trace.jsonl"
    run_accuracy_run(_faulted_config(algorithm), seed=3, obs=str(path))
    events = report.load_events(str(path))
    digest = hashlib.sha256()
    for event in events:
        stable = {key: value for key, value in event.items()
                  if key not in ("t", "dur_s")}
        digest.update(json.dumps(stable).encode() + b"\n")
    assert (len(events), digest.hexdigest()) \
        == GOLDEN_FAULTED_TRACES[algorithm]
