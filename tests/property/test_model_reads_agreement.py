"""Property: the service's one committed state agrees with the library.

A managed database answers unstaged reads and runs its gate's old-state
side on the DRed-maintained model. Over random sequences of
transactions (admitted, rejected, no-op and group-committed), rule DDL
and close/reopen cycles (WAL replay, or snapshot load after a
checkpoint), every read must equal a fresh library
:class:`DeductiveDatabase` lazy engine's answer over the same EDB and
program, and every gate verdict must equal the library checker's.
"""

import itertools
import shutil
import tempfile

from hypothesis import given, settings
import hypothesis.strategies as st

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.integrity.checker import METHODS, IntegrityChecker
from repro.integrity.transactions import Transaction
from repro.logic.formulas import Atom
from repro.logic.terms import Constant
from repro.service.database import ManagedDatabase
from repro.service.transactions import _CommitRequest

CONSTANTS = ("a", "b", "c", "d")

RULES = [
    "reach(X, Y) :- edge(X, Y)",
    "reach(X, Y) :- edge(X, Z), reach(Z, Y)",
    "node(X) :- edge(X, Y)",
    "node(Y) :- edge(X, Y)",
    "cut(X) :- node(X), not reach(a, X)",
]

#: Rules a transaction sequence may add (each at most once); the third
#: is rejected by the gate whenever a banned atom is not a node.
RULE_DDL = [
    "reach(X, Y) :- link(X, Y)",
    "node(X) :- loop_ok(X)",
    "cut(X) :- banned(X), not node(X)",
    "twohop(X, Z) :- edge(X, Y), edge(Y, Z)",
]

CONSTRAINTS = [
    "forall X: reach(X, X) -> loop_ok(X)",
    "forall X: cut(X) -> not banned(X)",
]

INITIAL_EDB = {"edge(a, b)", "edge(b, c)", "edge(c, d)", "loop_ok(b)"}

ARITY = {
    "edge": 2,
    "link": 2,
    "loop_ok": 1,
    "banned": 1,
    "reach": 2,
    "node": 1,
    "cut": 1,
    "twohop": 2,
}

QUERIES = [
    "exists X: cut(X)",
    "forall X, Y: reach(X, Y) -> node(Y)",
    "forall X: node(X) -> exists Y: reach(X, Y)",
]

CONFIG = EngineConfig()


def ground_atoms():
    for pred, arity in ARITY.items():
        for args in itertools.product(CONSTANTS, repeat=arity):
            yield Atom(pred, tuple(map(Constant, args)))


@st.composite
def updates(draw):
    pred = draw(st.sampled_from(["edge", "edge", "link", "loop_ok", "banned"]))
    args = ", ".join(
        draw(st.sampled_from(CONSTANTS)) for _ in range(ARITY[pred])
    )
    sign = "" if draw(st.booleans()) else "not "
    return f"{sign}{pred}({args})"


transactions = st.lists(updates(), min_size=1, max_size=3)

operations = st.one_of(
    st.tuples(st.just("txn"), transactions),
    st.tuples(
        st.just("group"), st.lists(transactions, min_size=2, max_size=3)
    ),
    st.tuples(st.just("rule"), st.sampled_from(RULE_DDL)),
    st.tuples(st.just("reopen"), st.booleans()),
)


class Oracle:
    """The expected committed state, kept apart from the service."""

    def __init__(self):
        self.edb = set(INITIAL_EDB)
        self.rules = list(RULES)

    def source(self) -> str:
        lines = [f"{fact}." for fact in sorted(self.edb)]
        lines += [f"{rule}." for rule in self.rules]
        lines += [f"{constraint}." for constraint in CONSTRAINTS]
        return "\n".join(lines)

    def database(self) -> DeductiveDatabase:
        return DeductiveDatabase.from_source(self.source())

    def checker(self) -> IntegrityChecker:
        return IntegrityChecker(self.database(), config=CONFIG)

    def effective(self, transaction: Transaction) -> bool:
        return any(
            (str(update.atom) in self.edb) != update.positive
            for update in transaction.net()
        )

    def apply(self, transaction: Transaction) -> None:
        for update in transaction.net():
            if update.positive:
                self.edb.add(str(update.atom))
            else:
                self.edb.discard(str(update.atom))


def assert_reads_agree(db: ManagedDatabase, oracle: Oracle) -> None:
    library = oracle.database()
    engine = library.engine(config=CONFIG)
    true_atoms = 0
    for atom in ground_atoms():
        expected = engine.holds(atom)
        assert db.holds(atom) == expected, atom
        true_atoms += expected
    assert true_atoms >= len(oracle.edb)  # every EDB fact is among them
    for query in QUERIES:
        assert db.query(query) == library.query(query), query
    assert sorted(map(str, db.database.facts)) == sorted(oracle.edb)


def run_group(db, oracle, members):
    """Commit *members* as one batch (write keys made disjoint first, so
    all of them join the merged gate check) and check their statuses
    against the ones the library checker gives."""
    chosen, keys = [], set()
    for updates_ in members:
        transaction = Transaction.coerce(updates_)
        if transaction.write_keys() & keys:
            continue
        keys |= transaction.write_keys()
        chosen.append(transaction)
    requests = []
    for transaction in chosen:
        session = db.begin()
        session.stage(transaction)
        requests.append(
            _CommitRequest(
                "txn", session=session, transaction=session.transaction()
            )
        )
    expected = ["committed"] * len(chosen)
    effective = [i for i, t in enumerate(chosen) if oracle.effective(t)]
    merged = Transaction.merge([chosen[i] for i in effective])
    if len(effective) > 1 and oracle.checker().admit(merged).ok:
        oracle.apply(merged)
    else:
        for i in effective:
            if oracle.checker().admit(chosen[i]).ok:
                oracle.apply(chosen[i])
            else:
                expected[i] = "rejected"
    with db.manager._commit_mutex:
        db.manager._process_batch(requests)
    assert [r.result.status for r in requests] == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(operations, min_size=1, max_size=8))
def test_model_backed_service_agrees_with_library(ops):
    oracle = Oracle()
    root = tempfile.mkdtemp(prefix="repro-model-reads-")
    directory = f"{root}/db"
    db = ManagedDatabase(directory, oracle.source(), sync=False)
    try:
        assert_reads_agree(db, oracle)
        for op, arg in ops:
            if op == "txn":
                transaction = Transaction.coerce(arg)
                checker = oracle.checker()
                for method in METHODS:
                    served = db.check(transaction, method)
                    expected = checker.admit(transaction, method)
                    assert served.ok == expected.ok, method
                    assert set(served.violations) == set(expected.violations)
                    # Induced updates are decided by truth tests against
                    # the old state, so a stale model would show here.
                    assert served.stats.get("induced_updates") == (
                        expected.stats.get("induced_updates")
                    ), method
                admitted = not oracle.effective(transaction) or (
                    checker.admit(transaction).ok
                )
                result = db.submit(transaction)
                assert result.ok == admitted, result
                if admitted:
                    oracle.apply(transaction)
            elif op == "group":
                run_group(db, oracle, arg)
            elif op == "rule":
                if arg in oracle.rules:
                    continue
                admitted = oracle.checker().check_rule_addition(arg).ok
                result = db.add_rule(arg)
                assert result.ok == admitted, result
                if admitted:
                    oracle.rules.append(arg)
            else:
                if arg:
                    db.checkpoint()
                db.close()
                db = ManagedDatabase(directory, sync=False)
            assert_reads_agree(db, oracle)
    finally:
        db.close()
        shutil.rmtree(root, ignore_errors=True)
