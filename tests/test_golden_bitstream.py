"""Golden bitstream: fixed scripts reproduce recorded outputs exactly.

The literals below were recorded from the implementation in which
``ChainSample`` kept one list of chain objects per slot and
``DetectorEngine`` kept its own copy of the chain and EH-lane state.
Any change to the stream stores' layout must leave every generator draw
where it was, so these scripts must keep producing the same values,
chain lengths and detection digests bit for bit.
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
        digest.update(repr(engine.last_flags).encode())
        flagged += int(flags.sum())
        start += size
    assert start == 240 and flagged > 0
    assert digest.hexdigest() == GOLDEN_ENGINE[spec_name]


def test_d3_network_detection_log():
    hierarchy = build_hierarchy(9, 3)
    config = D3Config(
        spec=DistanceOutlierSpec(radius=0.01, count_threshold=5),
        window_size=300, sample_size=30, sample_fraction=0.5, warmup=300)
    network = build_d3_network(hierarchy, config, 1,
                               rng=np.random.default_rng(13))
    streams = StreamSet.from_arrays(make_mixture_streams(9, 700, seed=13))
    NetworkSimulator(hierarchy, network.nodes, streams).run_batched(
        epoch_size=64)
    keys = [(d.tick, d.node_id, d.origin, d.level)
            for d in network.log.detections]
    assert (len(keys), hashlib.sha256(repr(keys).encode()).hexdigest()) \
        == GOLDEN_NETWORK
