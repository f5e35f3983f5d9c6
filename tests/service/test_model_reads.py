"""One committed state: unstaged reads, the gate's old-state side and
constraint-DDL triage are all answered from the DRed-maintained model,
so none of them re-derives the recursive closure after a commit."""

import pytest

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.obs.metrics import default_registry
from repro.service.database import ManagedDatabase

CHAIN = """
edge(n0, n1). edge(n1, n2). edge(n2, n3). edge(n3, n4).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
forall X, Y: reach(X, Y) -> not reach(Y, X).
"""


def materializations() -> int:
    return default_registry().counter("query.materializations").value


class TestModelBackedReads:
    def test_reads_after_a_commit_derive_nothing(self):
        db = ManagedDatabase(source=CHAIN)
        db.holds("reach(n0, n4)")
        before_commit = materializations()
        assert db.submit("edge(n4, n5)").ok
        after_commit = materializations()
        # Only the gate's updated-state side may derive anything.
        assert after_commit - before_commit <= 1
        assert db.holds("reach(n0, n5)")
        assert not db.holds("reach(n5, n0)")
        assert db.query("forall X: edge(n4, X) -> reach(n1, X)")
        assert materializations() == after_commit

    def test_rejected_commit_leaves_reads_unchanged(self):
        db = ManagedDatabase(source=CHAIN)
        result = db.submit("edge(n4, n0)")
        assert result.status == "rejected"
        assert not db.holds("reach(n4, n0)")
        assert db.holds("reach(n0, n4)")

    def test_read_engine_tracks_deletions_without_rebuild(self):
        db = ManagedDatabase(source=CHAIN)
        engine = db.manager._read_engine
        assert db.holds("reach(n0, n4)")
        assert db.submit("not edge(n2, n3)").ok
        assert not db.holds("reach(n0, n4)")
        assert db.holds("reach(n0, n2)")
        assert db.manager._read_engine is engine

    def test_gate_reads_the_maintained_model(self):
        db = ManagedDatabase(source=CHAIN)
        manager = db.manager
        assert manager.checker.old_engine is manager._gate_engine
        assert manager._gate_engine.facts is manager.model.model
        # The gate's engine never shares the read cache.
        assert manager._gate_engine.result_cache is None

    def test_rule_ddl_rebuilds_the_model_engines(self):
        db = ManagedDatabase(source=CHAIN)
        engine = db.manager._read_engine
        assert db.add_rule("linked(X) :- reach(n0, X)").ok
        assert db.manager._read_engine is not engine
        assert db.holds("linked(n4)")
        assert db.manager.checker.old_engine is db.manager._gate_engine

    def test_staged_reads_still_see_the_overlay(self):
        db = ManagedDatabase(source=CHAIN)
        session = db.begin()
        session.insert("edge(n4, n5)")
        assert session.holds("reach(n0, n5)")
        assert not db.holds("reach(n0, n5)")
        session.abort()

    def test_cached_reads_go_through_the_manager_cache(self):
        db = ManagedDatabase(source=CHAIN, config=EngineConfig(cache=True))
        assert db.manager._read_engine.result_cache is db.manager.result_cache
        assert db.holds("reach(n0, n4)")
        assert db.holds("reach(n0, n4)")
        assert db.manager.cache_stats()["cache.hits"] >= 1
        assert db.submit("not edge(n3, n4)").ok
        assert not db.holds("reach(n0, n4)")


class TestConstraintTriageEngine:
    """Constraint DDL triage used to build ``database.engine()`` with the
    *default* EngineConfig: it ignored the manager's backend, exec mode
    and join algorithm, and re-derived the closure on every DDL."""

    CONFIG = EngineConfig(exec_mode="tuple", join_algo="hash", plan="source")

    @pytest.fixture
    def db(self, monkeypatch):
        """An open database whose later ``database.engine()`` calls are
        recorded (by config) in ``db.engines_built``."""
        db = ManagedDatabase(source=CHAIN, config=self.CONFIG)
        db.engines_built = []
        original = DeductiveDatabase.engine

        def spy(self, *args, **kwargs):
            engine = original(self, *args, **kwargs)
            db.engines_built.append(engine.config)
            return engine

        monkeypatch.setattr(DeductiveDatabase, "engine", spy)
        return db

    def test_accepted_triage_reads_the_committed_model(self, db):
        before = materializations()
        result = db.add_constraint("forall X, Y: reach(X, Y) -> not edge(Y, X)")
        assert result.ok and result.triage.status == "accepted"
        assert materializations() == before
        assert db.engines_built == []

    def test_violated_triage_witnesses_under_the_managers_config(self, db):
        result = db.add_constraint("forall X: reach(n0, X) -> edge(n0, X)")
        assert result.status == "rejected"
        assert result.triage.status == "repairable"
        witnesses = {str(w) for w in result.triage.witnesses}
        assert len(witnesses) == 3  # n2, n3 and n4 are reached, not adjacent
        # No engine was built from the database's default config.
        assert all(config == self.CONFIG for config in db.engines_built)
