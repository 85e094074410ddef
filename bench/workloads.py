"""The four workloads: inputs, set-up, the measured cycles, checks.

One call of :func:`run` is one run of one workload in the current
process.  Inputs are the paper's Section 10 mixture (three Gaussians
plus 0.5% uniform noise), generated from ``--seed`` before any timer
starts; the program receives only those arrays and per-stream seeds
derived from the same seed.

A run has two timed parts:

* **set-up**: construction plus a warm-up of ``2 |W|`` ticks, after
  which chain-sample expiry is at steady state (rounds timed after a
  ``1 |W|`` warm-up still drift down by about 10%).  An untraced run sets
  up :data:`SETUPS` times and reports the median; the last copy is the
  one measured.
* **measured cycles**, until ``--seconds`` have passed.  A cycle is a
  *tick block* of :attr:`Workload.tick_block` ticks, each ingested alone
  as it arrives (the paper's deployment: every sensor reads once per
  period; a call's duration is the latency from a reading's arrival to
  its flag decision), then a *batch round* of
  :attr:`Workload.round_ticks` ticks in back-to-back calls of up to
  :attr:`Workload.batch_ticks` ticks (throughput).  Latency is the
  median call and throughput the median round over the whole run.

Latency and throughput are sampled in alternation over the whole run,
in many short samples, because the shared two-core machine slows down
in bursts of a few seconds; and every group of set-up calls, tick block
and batch round is scaled by the host-speed yardstick probed just before
and just after it (:mod:`bench.yardstick`), because it also slows down
for minutes.

Both are closed loops: the next call starts when the previous returns.
An open loop at a fixed tick rate was tried first; on a two-core shared
machine the engine workloads sit close enough to saturation that
queueing turned a 4% change in machine speed into a 25% change in
latency, more than any bound could hold.

A traced run sets up once and alternates untraced and traced cycles,
so the tracing overhead is measured on the same state; the traced
cycles are the measured phase of the layer ledger.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from bench import layers
from bench.spec import ROOT, WORKLOAD_METRICS
from bench.yardstick import Yardstick
from repro import _sanitize, obs
from repro.core.backend import backend_name
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_mixture_streams
from repro.detectors.d3 import D3Config, build_d3_network
from repro.detectors.single import OnlineOutlierDetector
from repro.engine import DetectorEngine, SupervisedEngine, encode_snapshot
from repro.network.faults import EngineCrash, FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Warm-up calls between two yardstick probes in a set-up (about half a
#: second of work on the larger workloads).
SETUP_GROUP = 4

#: Fewest cycles a run makes, whatever ``--seconds`` says (a traced run
#: alternates untraced and traced cycles).
MIN_CYCLES = 4

#: ``words_per_reading`` is counted over this many first cycles: a span
#: of fixed length, so the figure repeats exactly for a seed.
FIXED_CYCLES = 4

#: Engine parameters the scalar reference detectors must share.
MODEL_REFRESH = 32
EPSILON = 0.2

#: D3 forward probability ``f`` of the network workload.
SAMPLE_FRACTION = 0.5

#: Layer counters every traced run reports, zero where a workload has no
#: such layer: name -> unit.
COUNTERS = {
    "network.messages.ValueForward": "count",
    "network.messages.OutlierReport": "count",
    "engine.supervisor.journal_bytes": "B",
    "engine.supervisor.checkpoint_bytes": "B",
    "engine.supervisor.replayed_ticks": "count",
}


@dataclass(frozen=True)
class Workload:
    """Sizes and rates of one workload (see ``bench/README.md``)."""

    name: str
    target: type
    n_streams: int           # sensor streams (network leaves)
    n_dims: int
    spec: "DistanceOutlierSpec | MDEFSpec"
    window: int              # |W|
    sample: int              # |R|
    batch_ticks: int         # most ticks one batch-round call carries
    #: One-tick calls per cycle; about as long as the batch round, so
    #: both metrics get about half of the run.
    tick_block: int
    round_ticks: int         # ticks per batch round
    #: Ticks per second the input buffer is sized for (about 8x the
    #: program's speed when the workload was defined).
    max_rate: float
    checked_streams: int = 0  # streams replayed through the scalar path
    checkpoint_every: int = 0  # supervised only; also its cycle length
    crash_offset: int = 0      # crash ticks sit this far past a checkpoint

    @property
    def warmup_ticks(self) -> int:
        return 2 * self.window

    @property
    def cycle_ticks(self) -> int:
        return self.tick_block + self.round_ticks


@dataclass
class Inputs:
    """Everything generated from the seed, before any timer starts."""

    data: np.ndarray          # (ticks, streams, dims)
    stream_seeds: "list[int]"
    model_seed: int
    crash_ticks: "list[int]"


# ----------------------------------------------------------------------
# Targets: the program under test behind one ``feed(start, stop)`` call
# ----------------------------------------------------------------------


class EngineTarget:
    """``DetectorEngine.ingest`` over per-stream seeds."""

    def __init__(self, wl: Workload, inputs: Inputs, state_dir: Path) -> None:
        self.wl = wl
        self.data = inputs.data
        self.engine = DetectorEngine(
            wl.n_streams, wl.spec, window_size=wl.window,
            sample_size=wl.sample, n_dims=wl.n_dims,
            model_refresh=MODEL_REFRESH, epsilon=EPSILON,
            stream_seeds=inputs.stream_seeds)
        self.front: "DetectorEngine | SupervisedEngine" = self.engine
        self.detections: "list[np.ndarray]" = []

    def feed(self, start: int, stop: int) -> None:
        self.detections.append(self.front.ingest(self.data[start:stop]))

    def live_engine(self) -> DetectorEngine:
        return self.engine

    def mark(self, phase: str) -> None:
        """Note the start of the measured cycles (``measured``) or the end
        of the first :data:`FIXED_CYCLES` of them (``fixed``)."""

    def state_bytes(self) -> int:
        return len(encode_snapshot(self.live_engine()))

    def counters(self) -> "dict[str, float]":
        return {}

    def workload_metrics(self, factor: float) -> "dict[str, float]":
        """Metrics of this workload only; ``factor`` is the batch rounds'
        median yardstick factor, for timings taken inside them."""
        return {}

    def checks(self, inputs: Inputs, seed: int, ticks: int,
               measured_start: int) -> "dict[str, bool]":
        """Scalar replay of sampled streams, and flags at all."""
        detections = np.concatenate(self.detections)
        out = {"ticks fed": detections.shape[0] == ticks,
               "flags > 0": bool(detections.any())}
        picks = np.random.default_rng(seed).choice(
            self.wl.n_streams, size=self.wl.checked_streams, replace=False)
        for stream in sorted(int(s) for s in picks):
            detector = OnlineOutlierDetector(
                self.wl.window, self.wl.sample, self.wl.spec,
                n_dims=self.wl.n_dims, model_refresh=MODEL_REFRESH,
                epsilon=EPSILON,
                rng=np.random.default_rng(inputs.stream_seeds[stream]))
            expected = np.zeros(ticks, dtype=bool)
            for tick in range(ticks):
                decision = detector.process(inputs.data[tick, stream])
                expected[tick] = decision is not None and decision.is_outlier
            out[f"stream {stream} equals scalar process loop"] = bool(
                np.array_equal(detections[:ticks, stream], expected))
        return out

    def digest(self) -> str:
        packed = np.packbits(np.concatenate(self.detections))
        return hashlib.sha256(packed.tobytes()).hexdigest()

    def close(self) -> None:
        pass


class SupervisedTarget(EngineTarget):
    """``SupervisedEngine.ingest``: journal, checkpoints, scheduled kills."""

    def __init__(self, wl: Workload, inputs: Inputs, state_dir: Path) -> None:
        super().__init__(wl, inputs, state_dir)
        self.crash_ticks = inputs.crash_ticks
        self.supervised = SupervisedEngine(
            self.engine, state_dir, checkpoint_every=wl.checkpoint_every,
            fault_plan=FaultPlan(engine_crashes=[
                EngineCrash(tick=t) for t in inputs.crash_ticks]))
        self.front = self.supervised

    def live_engine(self) -> DetectorEngine:
        return self.supervised.engine

    def counters(self) -> "dict[str, float]":
        checkpoints = sorted(self.supervised.store.directory.iterdir())
        return {
            "engine.supervisor.journal_bytes":
                self.supervised.journal.path.stat().st_size,
            "engine.supervisor.checkpoint_bytes":
                checkpoints[-1].stat().st_size,
            "engine.supervisor.replayed_ticks": sum(
                r["replayed_ticks"] for r in self.supervised.recoveries),
        }

    def workload_metrics(self, factor: float) -> "dict[str, float]":
        # Every recovery falls in a batch round.
        times = [r["recovery_s"] for r in self.supervised.recoveries]
        return {"recovery_ms_p50": statistics.median(times) * factor * 1e3}

    def checks(self, inputs: Inputs, seed: int, ticks: int,
               measured_start: int) -> "dict[str, bool]":
        out = super().checks(inputs, seed, ticks, measured_start)
        fired = [t for t in self.crash_ticks if t < ticks]
        recoveries = self.supervised.recoveries
        out[f"{len(fired)} recoveries"] = len(recoveries) == len(fired) > 0
        out[f"each replays {self.wl.crash_offset} ticks"] = all(
            r["replayed_ticks"] == self.wl.crash_offset for r in recoveries)
        return out

    def close(self) -> None:
        self.supervised.close()


class NetworkTarget:
    """``NetworkSimulator.run_batched`` over a D3 hierarchy."""

    #: Fan-out of the virtual-grid hierarchy.
    BRANCHING = 4

    def __init__(self, wl: Workload, inputs: Inputs, state_dir: Path) -> None:
        self.wl = wl
        self.sim, self.network = self.build(wl, inputs, inputs.data)
        #: phase -> (tick, total words, message counts) at its start.
        self.marks: "dict[str, tuple[int, int, dict[str, int]]]" = {}

    @classmethod
    def build(cls, wl: Workload, inputs: Inputs,
              data: np.ndarray) -> "tuple[NetworkSimulator, Any]":
        hierarchy = build_hierarchy(wl.n_streams, cls.BRANCHING)
        config = D3Config(spec=wl.spec, window_size=wl.window,
                          sample_size=wl.sample,
                          sample_fraction=SAMPLE_FRACTION)
        network = build_d3_network(
            hierarchy, config, wl.n_dims,
            rng=np.random.default_rng(inputs.model_seed))
        streams = StreamSet.from_arrays(
            data[:, leaf] for leaf in range(wl.n_streams))
        return NetworkSimulator(hierarchy, network.nodes, streams), network

    def feed(self, start: int, stop: int) -> None:
        if start != self.sim.tick:
            raise RuntimeError(f"simulator at tick {self.sim.tick}, "
                               f"asked to start at {start}")
        self.sim.run_batched(stop - start, epoch_size=self.wl.batch_ticks)

    def mark(self, phase: str) -> None:
        counter = self.sim.counter
        self.marks[phase] = (self.sim.tick, counter.total_words,
                             dict(counter.counts))

    def state_bytes(self) -> int:
        return sum(len(encode_snapshot(node.state))
                   for node in self.network.nodes.values())

    def counters(self) -> "dict[str, float]":
        counts, before = self.sim.counter.counts, self.marks["measured"][2]
        return {f"network.messages.{kind}":
                counts.get(kind, 0) - before.get(kind, 0)
                for kind in ("ValueForward", "OutlierReport")}

    def workload_metrics(self, factor: float) -> "dict[str, float]":
        (tick0, words0, _), (tick1, words1, _) = \
            self.marks["measured"], self.marks["fixed"]
        return {"words_per_reading":
                (words1 - words0) / ((tick1 - tick0) * self.wl.n_streams)}

    def _keys(self, detections: "list[Any]", limit: int) -> "list[tuple]":
        return [(d.tick, d.node_id, d.level, d.origin, d.value.tobytes())
                for d in detections if d.tick < limit]

    def checks(self, inputs: Inputs, seed: int, ticks: int,
               measured_start: int) -> "dict[str, bool]":
        """Stepped ``run()`` agreement over the warm-up, and conservation."""
        limit = self.wl.warmup_ticks
        stepped, stepped_network = self.build(self.wl, inputs,
                                          inputs.data[:limit])
        stepped.run(limit)
        return {
            "ticks fed": self.sim.tick == ticks,
            "flags > 0": any(d.tick >= measured_start
                             for d in self.network.log.detections),
            f"detections before tick {limit} equal a stepped run()":
                self._keys(self.network.log.detections, limit)
                == self._keys(stepped_network.log.detections, limit),
            "message conservation":
                not self.sim.counter.conservation_failures(),
        }

    def digest(self) -> str:
        text = repr(self._keys(self.network.log.detections, self.sim.tick))
        return hashlib.sha256(text.encode()).hexdigest()

    def close(self) -> None:
        pass


_D3_SPEC = DistanceOutlierSpec(radius=0.01, count_threshold=9)

WORKLOADS: "dict[str, Workload]" = {wl.name: wl for wl in (
    Workload("engine-d3", EngineTarget, n_streams=256, n_dims=1,
             spec=_D3_SPEC, window=1000, sample=50, batch_ticks=32,
             tick_block=6, round_ticks=32, max_rate=1100.0,
             checked_streams=4),
    Workload("engine-mgdd-2d", EngineTarget, n_streams=16, n_dims=2,
             spec=MDEFSpec(sampling_radius=0.16, counting_radius=0.02),
             window=1000, sample=100, batch_ticks=32, tick_block=32,
             round_ticks=32, max_rate=1600.0, checked_streams=2),
    # t=5, not 9: neighbourhood counts scale with |W|=300.  Escalations
    # then cost about 0.33 words per reading.
    Workload("network-d3", NetworkTarget, n_streams=64, n_dims=1,
             spec=DistanceOutlierSpec(radius=0.01, count_threshold=5),
             window=300, sample=30, batch_ticks=64, tick_block=16,
             round_ticks=64, max_rate=3200.0),
    # A cycle is one checkpoint period, so every batch round holds one
    # checkpoint and one crash and the tick blocks hold neither.
    Workload("supervised-d3", SupervisedTarget, n_streams=64, n_dims=1,
             spec=_D3_SPEC, window=1000, sample=50, batch_ticks=32,
             tick_block=32, round_ticks=224, max_rate=1700.0,
             checked_streams=4, checkpoint_every=256, crash_offset=128),
)}


def smoke(wl: Workload) -> Workload:
    """The same workload on four streams, for the test suite.

    Windows keep their sizes: the MDEF test flags nothing below
    ``|W| = 1000, |R| = 100`` on this mixture.
    """
    return replace(wl, n_streams=4,
                   checked_streams=min(wl.checked_streams, 2))


# ----------------------------------------------------------------------
# The gateway, set-up and the measured cycles
# ----------------------------------------------------------------------


class Gateway:
    """Counts and guards every call into the program."""

    def __init__(self, target: Any, recorder: "layers.Recorder | None") -> None:
        self.target = target
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0

    def feed(self, start: int, stop: int) -> None:
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.batch = self.attempted
        # The gateway must keep running: a failing call is counted and
        # reported, and the checks afterwards fail the run.
        try:
            self.target.feed(start, stop)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)


def feed_range(target: Any, start: int, stop: int, batch: int) -> None:
    for tick in range(start, stop, batch):
        target.feed(tick, min(tick + batch, stop))


def set_up(wl: Workload, inputs: Inputs, state_dir: Path,
           yardstick: Yardstick) -> "tuple[Any, float, float]":
    """Construct and warm up a target: (target, raw s, scaled s).

    The yardstick is probed before construction and after it and every
    :data:`SETUP_GROUP` warm-up calls; its own time is not set-up time.
    """
    before = yardstick.probe()
    t0 = time.perf_counter()
    target = wl.target(wl, inputs, state_dir)
    raw_s = time.perf_counter() - t0
    after = yardstick.probe()
    scaled_s = raw_s * yardstick.factor(before, after)
    starts = range(0, wl.warmup_ticks, wl.batch_ticks)
    for group in range(0, len(starts), SETUP_GROUP):
        before = after
        t0 = time.perf_counter()
        for tick in starts[group:group + SETUP_GROUP]:
            target.feed(tick, min(tick + wl.batch_ticks, wl.warmup_ticks))
        took = time.perf_counter() - t0
        after = yardstick.probe()
        raw_s += took
        scaled_s += took * yardstick.factor(before, after)
    return target, raw_s, scaled_s


@dataclass
class Samples:
    """What the measured cycles collected: (raw seconds, yardstick
    factor) per one-tick call and per batch round."""

    latencies: "list[tuple[float, float]]"  # untraced cycles only
    rounds: "list[tuple[float, float]]"
    traced_rounds: "list[tuple[float, float]]"
    cycles: int
    next_tick: int


def scaled(samples: "list[tuple[float, float]]") -> "list[float]":
    return [raw * factor for raw, factor in samples]


def cycle_loop(gateway: Gateway, wl: Workload, start: int, cap: int,
               seconds: float, yardstick: Yardstick,
               all_sites: "tuple[layers.Site, ...]" = ()) -> Samples:
    """Tick blocks and batch rounds in alternation until time is up.

    The yardstick is probed between blocks and rounds.  With
    ``all_sites`` given, every second cycle runs with the sites wrapped
    by the gateway's recorder (the probes stay outside the wrapping).
    """
    def scope(tracing: bool) -> "contextlib.AbstractContextManager[None]":
        return gateway.recorder.installed(all_sites) if tracing \
            else contextlib.nullcontext()

    out = Samples([], [], [], 0, start)
    tick = start
    began = time.perf_counter()
    after = yardstick.probe()
    while tick + wl.cycle_ticks <= cap and (
            out.cycles < MIN_CYCLES
            or time.perf_counter() - began < seconds):
        tracing = bool(all_sites) and out.cycles % 2 == 1
        before = after
        block = []
        with scope(tracing):
            for one in range(tick, tick + wl.tick_block):
                t0 = time.perf_counter()
                gateway.feed(one, one + 1)
                block.append(time.perf_counter() - t0)
        tick += wl.tick_block
        after = yardstick.probe()
        if not tracing:
            factor = yardstick.factor(before, after)
            out.latencies.extend((took, factor) for took in block)
        before = after
        with scope(tracing):
            t0 = time.perf_counter()
            feed_range(gateway, tick, tick + wl.round_ticks, wl.batch_ticks)
            took = time.perf_counter() - t0
        tick += wl.round_ticks
        after = yardstick.probe()
        (out.traced_rounds if tracing else out.rounds).append(
            (took, yardstick.factor(before, after)))
        out.cycles += 1
        if out.cycles == FIXED_CYCLES:
            gateway.target.mark("fixed")
    out.next_tick = tick
    return out


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def require_quiet_program() -> None:
    """The program's own tracing and sanitizers must be off."""
    if obs.ACTIVE or _sanitize.ACTIVE:
        raise RuntimeError(
            "repro.obs or repro._sanitize is active; unset REPRO_TRACE and "
            "REPRO_SANITIZE before benchmarking")


def make_inputs(wl: Workload, seed: int, n_ticks: int) -> Inputs:
    data_seq, model_seq = np.random.SeedSequence(seed).spawn(2)
    streams = make_mixture_streams(
        wl.n_streams, n_ticks, wl.n_dims,
        seed=int(data_seq.generate_state(1)[0]))
    seeds = model_seq.generate_state(wl.n_streams + 1, dtype=np.uint64)
    # Crashes fall in batch rounds only: a one-tick call that recovers
    # would be a latency sample of the recovery.
    crash_ticks = [t for t in range(wl.warmup_ticks, n_ticks)
                   if wl.checkpoint_every
                   and t % wl.checkpoint_every == wl.crash_offset
                   and (t - wl.warmup_ticks) % wl.cycle_ticks
                   >= wl.tick_block]
    return Inputs(data=np.stack(streams, axis=1),
                  stream_seeds=[int(s) for s in seeds[1:]],
                  model_seed=int(seeds[0]), crash_ticks=crash_ticks)


def fingerprint(seed: int) -> "dict[str, Any]":
    """What a result must be compared on: machine, versions, seed."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "backend": backend_name(), "git_sha": checkout_sha(), "seed": seed}


def checkout_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree.

    Only a ``.git`` at the checkout root counts: git would otherwise
    search the directories above the checkout.
    """
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(wl: Workload, *, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> "dict[str, Any]":
    """Run one workload; return the result document."""
    require_quiet_program()
    cycles_cap = max(MIN_CYCLES, math.ceil(
        wl.max_rate * seconds / wl.cycle_ticks))
    n_ticks = wl.warmup_ticks + cycles_cap * wl.cycle_ticks
    inputs = make_inputs(wl, seed, n_ticks)

    out_dir.mkdir(parents=True, exist_ok=True)
    state_root = out_dir / f"state-{wl.name}-{os.getpid()}"
    recorder = layers.Recorder() if trace else None
    all_sites = layers.sites() if trace else ()
    yardstick = Yardstick()
    try:
        raw_setups: "list[float]" = []
        setups: "list[float]" = []
        target: Any = None
        for i in range(1 if trace else SETUPS):
            if target is not None:
                target.close()
                target = None
            target, raw, setup = set_up(wl, inputs, state_root / f"setup-{i}",
                                        yardstick)
            raw_setups.append(raw)
            setups.append(setup)
        # Steady-state size, taken at a tick every run of the seed shares.
        state_bytes = target.state_bytes()

        gateway = Gateway(target, recorder)
        target.mark("measured")
        samples = cycle_loop(gateway, wl, wl.warmup_ticks, n_ticks, seconds,
                             yardstick, all_sites)
        counters = target.counters()
        target.close()
        require_quiet_program()
        checks = target.checks(inputs, seed, samples.next_tick,
                               wl.warmup_ticks)
        checks["no call failed"] = gateway.failed == 0

        readings = wl.round_ticks * wl.n_streams
        rates = [readings / s for s in scaled(samples.rounds)]
        latencies = scaled(samples.latencies)
        metrics: "dict[str, tuple[float, str]]" = {
            "readings_per_s": (statistics.median(rates), "readings/s"),
            "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "state_bytes_per_stream": (state_bytes / wl.n_streams, "B"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "ops_failed_frac": (gateway.failed / gateway.attempted,
                                "share"),
        }
        round_factor = statistics.median(
            factor for _, factor in samples.rounds + samples.traced_rounds)
        for name, value in target.workload_metrics(round_factor).items():
            metrics[name] = (value, WORKLOAD_METRICS[name][0])
        for name, unit in COUNTERS.items():
            metrics[name] = (counters.get(name, 0), unit)
        trace_file = None
        if recorder is not None:
            book = layers.ledger(recorder.windows, recorder.spans)
            metrics.update(layers.layer_metrics(
                book, tuple(site.name for site in all_sites)))
            metrics["trace_overhead_frac"] = (
                1 - statistics.median(scaled(samples.rounds))
                / statistics.median(scaled(samples.traced_rounds)), "share")
            trace_file = out_dir / f"{wl.name}-seed{seed}.trace.jsonl"
            recorder.write(trace_file, {"workload": wl.name, "seed": seed})
    finally:
        shutil.rmtree(state_root, ignore_errors=True)

    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fingerprint(seed),
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": gateway.attempted,
        "failed": gateway.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "detail": {
            "setup_s": setups,
            "rounds_readings_per_s": rates,
            "cycles": samples.cycles,
            "latency_samples": len(latencies),
            "latencies_ms": [x * 1e3 for x in latencies],
            "latency_ms_mean": statistics.fmean(latencies) * 1e3,
            "latency_ms_p90": float(np.percentile(latencies, 90)) * 1e3,
            "latency_ms_p99": float(np.percentile(latencies, 99)) * 1e3,
            # Wall-clock values, before scaling by the yardstick.
            "raw_setup_s": raw_setups,
            "raw_readings_per_s": statistics.median(
                readings / raw for raw, _ in samples.rounds),
            "raw_latency_ms_p50": statistics.median(
                raw for raw, _ in samples.latencies) * 1e3,
            "yardstick_ms": [t * 1e3 for t in yardstick.times],
            "ticks": samples.next_tick,
            "detections_sha256": target.digest(),
            "trace_file": str(trace_file) if trace_file else None,
        },
    }
