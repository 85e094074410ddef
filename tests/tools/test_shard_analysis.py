"""Golden tests for the project-wide shard-safety passes (RL009-RL013).

The fixtures under ``tests/tools/fixtures/shardpkg`` form a tiny package
seeded with one known-bad file per interprocedural pass plus one file
that must stay silent.  The assertions here pin exact (rule, path, line)
triples so a regression in the index or any dataflow pass shows up as a
diff against the goldens rather than a silent pass.
"""

from __future__ import annotations

from pathlib import Path

from tools.repro_lint import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
PKG_ROOT = "tests/tools/fixtures"


def _analyze():
    return analyze_paths(
        [FIXTURES / "shardpkg"], REPO_ROOT, package_roots=(PKG_ROOT,))


def _triples(result, rule=None):
    return sorted(
        (f.rule, Path(f.path).name, f.line)
        for f in result.findings
        if rule is None or f.rule == rule)


class TestGoldenFindings:
    def test_exact_finding_set(self):
        """Every seeded defect fires, nothing else does."""
        assert _triples(_analyze()) == [
            ("RL009", "bad_globals.py", 5),
            ("RL009", "bad_globals.py", 7),
            ("RL009", "bad_globals.py", 9),
            ("RL010", "bad_state.py", 20),
            ("RL010", "bad_state.py", 21),
            ("RL010", "bad_state.py", 22),
            ("RL010", "bad_state.py", 23),
            ("RL010", "bad_state.py", 24),
            ("RL011", "bad_rng.py", 30),
            ("RL012", "bad_obs.py", 9),
            ("RL012", "bad_obs.py", 14),
            ("RL013", "bad_snapshot.py", 7),
            ("RL013", "bad_snapshot.py", 7),
            ("RL013", "bad_snapshot.py", 15),
        ]

    def test_clean_module_is_silent(self):
        """Seeded rng, guarded obs and picklable fields produce nothing."""
        result = _analyze()
        assert not [f for f in result.findings if "clean.py" in f.path]

    def test_rl009_symbols_name_the_global(self):
        symbols = {f.symbol for f in _analyze().findings
                   if f.rule == "RL009"}
        assert symbols == {
            "shardpkg.bad_globals.REGISTRY",
            "shardpkg.bad_globals._SEEN",
            "shardpkg.bad_globals._next_id",
        }

    def test_rl010_reports_transitive_chain(self):
        """The unsafety inside the unmarked _Inner helper is attributed
        to the marked class through the field chain."""
        transitive = [f for f in _analyze().findings
                      if f.rule == "RL010" and f.line == 24]
        assert len(transitive) == 1
        assert "_inner" in transitive[0].message
        assert "_lock" in transitive[0].message

    def test_rl011_fires_at_constructor_site_not_rng_creation(self):
        """The taint travels two hops: entry() -> _build() -> RngState().
        The finding lands where the generator enters shard state."""
        (finding,) = [f for f in _analyze().findings if f.rule == "RL011"]
        assert Path(finding.path).name == "bad_rng.py"
        assert finding.line == 30

    def test_rl012_interprocedural_helper(self):
        """_helper is flagged because run() calls it unguarded, even
        though _helper itself never mentions the guard."""
        lines = {f.line for f in _analyze().findings if f.rule == "RL012"}
        assert lines == {9, 14}

    def test_rl013_names_each_missing_protocol_method(self):
        """A class with neither method gets one finding per method; a
        half-implemented class is flagged only for the missing half."""
        symbols = sorted(f.symbol for f in _analyze().findings
                         if f.rule == "RL013")
        assert symbols == [
            "shardpkg.bad_snapshot.FrozenOut.restore_state",
            "shardpkg.bad_snapshot.FrozenOut.snapshot_state",
            "shardpkg.bad_snapshot.HalfDone.restore_state",
        ]

    def test_rl013_inherited_protocol_is_accepted(self):
        """CleanChild defines nothing itself; the protocol inherited
        from CleanState must satisfy the rule."""
        result = _analyze()
        assert "shardpkg.clean.CleanChild" in {
            cls.qualname for cls in result.index.shard_state_classes()}
        assert not [f for f in result.findings
                    if f.rule == "RL013" and "clean.py" in f.path]


class TestLiveTreeContracts:
    """The shard-safety contracts the analyzer certifies on src/repro."""

    def _src(self):
        return analyze_paths(["src"], REPO_ROOT)

    def test_src_has_no_shard_state_violations(self):
        """RL010-RL013 must be fixed, never baselined: all shard-state
        classes are picklable, seed-threaded, obs-pure and snapshot-
        capable."""
        result = self._src()
        bad = [f for f in result.findings
               if f.rule in ("RL010", "RL011", "RL012", "RL013")]
        assert bad == [], "\n".join(f.render() for f in bad)

    def test_src_snapshot_registry_covers_every_marked_class(self):
        """Every marked class in src/repro is registered with the
        snapshot codec, so checkpoints can decode all detector state."""
        from repro.engine.snapshot import REGISTERED_CLASSES
        registered = {cls.__name__ for cls in REGISTERED_CLASSES}
        marked = {cls.name for cls in self._src().index.shard_state_classes()}
        assert marked <= registered

    def test_src_rl009_is_exactly_the_baseline(self):
        """The process-local singletons are enumerated, not open-ended."""
        result = self._src()
        symbols = sorted(f.symbol for f in result.findings
                         if f.rule == "RL009")
        assert symbols == [
            "repro._rng._root_sequence",
            "repro._sanitize.ACTIVE",
            "repro.obs.ACTIVE",
            "repro.obs._metrics",
            "repro.obs._tracer",
        ]

    def test_index_sees_the_marked_classes(self):
        """Spot-check that the shard-state markers in src/repro register
        with the phase-1 index (guards against marker-comment drift)."""
        result = self._src()
        marked = {cls.qualname for cls in result.index.shard_state_classes()}
        assert {
            "repro.streams.sampling.ChainSample",
            "repro.streams.sampling.ReservoirSample",
            "repro.streams.window.SlidingWindow",
            "repro.core.estimator.KernelDensityEstimator",
            "repro.detectors.single.OnlineOutlierDetector",
        } <= marked
