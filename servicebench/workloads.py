"""Seeded workload generators, their oracles, and the client loops.

Every generator is a pure function of its seed: it produces the source
text a database is created from and the stream of transactions and
reads a client sends, and it keeps the bookkeeping (an adjacency map,
a mentor tree) from which the expected answer to every read and the
expected verdict of every commit follow. The program under test only
ever sees the generated text.

Sizes are fixed here, not in the seed, so that every seed exercises
the same amount of work:

* ``chain-rw`` — a chain of :data:`CHAIN_LENGTH` edges plus
  :data:`LIVE_BRANCHES` branch edges, ``reach/2`` and the acyclicity
  constraint on it.
* ``staff-commit`` — E12's relational schema with
  :data:`EMPLOYEES` employees, ``member/2`` and a recursive
  ``lineage/2`` over a ``mentor/2`` tree.
* ``recover`` — a :data:`HISTORY`-transaction staff history.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

CHAIN_LENGTH = 80
LIVE_BRANCHES = 8
#: Branch edges leave chain nodes in this band, so every rotation
#: costs about the same and commit p50 has a narrow class to sit in.
BRANCH_BAND = (30, 49)
#: One commit cycle of chain-rw, shuffled per cycle. ``mid`` is a
#: mid-chain edge delete followed by its re-insert, which costs about
#: as much as the delete. Of the 16 admitted commits per cycle, 10 are
#: branch rotations and 6 mid-chain, so commit p50 sits at four fifths
#: of the rotation class (among the rotations that also pay for a full
#: garbage collection, about the costliest third) and commit p90 at
#: three quarters of the mid-chain class. The back edges make the
#: rejected class: about half of the 5 long ones pay for a full
#: collection, so the 3 short ones, which cost a fraction of a long one,
#: put reject p50 at a third to a half of the long ones that do not.
CHAIN_CYCLE = (
    ("rotate",) * 10 + ("back",) * 5 + ("short-back",) * 3 + ("mid",) * 3
)
MID_BAND = (36, 44)
#: Back edges close a cycle of BACK_SPANS[unit] edges starting in
#: BACK_START, so every rejected commit of a kind induces about the
#: same number of atoms.
BACK_START = (26, 30)
BACK_SPANS = {"back": 24, "short-back": 1}

EMPLOYEES = 150
HISTORY = 200
#: Gate-rejected cycle hires among the recover history's transactions.
HISTORY_REJECTS = 20
#: In the staff-commit loop, every CYCLE_EVERY-th hire of a client is
#: a cycle hire, which the gate must reject; one in four gives the
#: rejected class over a hundred samples a run, for a steadier median
#: of its wide spread of waiting times.
CYCLE_EVERY = 4
#: A staff client pauses between its read and its hire for a seeded
#: time drawn from an exponential distribution with mean PAUSE_S, cut
#: at PAUSE_CAP_S. Without it the two clients settle into a fixed
#: phase, and whether each commit finds the other's batch in the commit
#: pipeline, and waits for it, stays the same for a whole run: some runs
#: put the waiting on the commits, others on the reads. A pause with no
#: memory moves the phase on every loop.
PAUSE_S = 0.04
PAUSE_CAP_S = 0.2
BANDS = ("junior", "senior", "principal")

CHAIN_RULES = """
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
forall X, Y: reach(X, Y) -> not reach(Y, X).
"""

STAFF_RULES = """
member(X, D) :- works_in(X, D).
lineage(X, Y) :- mentor(X, Y).
lineage(X, Y) :- mentor(X, Z), lineage(Z, Y).
forall X, D: member(X, D) -> employee(X).
forall X, Y: lineage(X, Y) -> not lineage(Y, X).
"""


def closure(adjacency: Dict[str, Set[str]], start: str) -> Set[str]:
    """Nodes reachable from *start* by one or more edges (BFS)."""
    seen: Set[str] = set()
    frontier = list(adjacency.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(adjacency.get(node, ()))
    return seen


def acyclic(adjacency: Dict[str, Set[str]]) -> bool:
    return not any(node in closure(adjacency, node) for node in adjacency)


class Op:
    """One generated operation with its expected outcome."""

    __slots__ = ("kind", "text", "expect")

    def __init__(self, kind: str, text, expect: bool):
        self.kind = kind  # "commit" | "read" | "query"
        self.text = text  # update list, atom text or formula text
        self.expect = expect  # commit admitted? / read answer


# -- chain-rw ----------------------------------------------------------------------


class ChainWorkload:
    """The read-and-gate stream over chain-80 with ``reach/2``."""

    def __init__(self, seed: int, length: int = CHAIN_LENGTH):
        self.rng = random.Random(f"chain-rw/{seed}")
        #: A shorter chain (the recovery probe's) takes its branches
        #: from the same share of its nodes.
        self.band = tuple(end * length // CHAIN_LENGTH for end in BRANCH_BAND)
        self.edges: Dict[str, Set[str]] = defaultdict(set)
        for i in range(length):
            self.edges[f"n{i}"].add(f"n{i + 1}")
        self.branches: List[Tuple[str, str]] = []
        self._fresh = 0
        for _ in range(LIVE_BRANCHES):
            self.branches.append(self._new_branch())
        for src, dst in self.branches:
            self.edges[src].add(dst)
        self._pending: List[List[str]] = []

    def _new_branch(self) -> Tuple[str, str]:
        """A branch to a fresh node from a random chain node of the
        branch band."""
        src = f"n{self.rng.randint(*self.band)}"
        self._fresh += 1
        return src, f"b{self._fresh}"

    def source(self) -> str:
        """The current EDB and the rules, as source text."""
        facts = [
            f"edge({src}, {dst})."
            for src in sorted(self.edges)
            for dst in sorted(self.edges[src])
        ]
        return "\n".join(facts) + CHAIN_RULES

    def next_commit(self) -> Op:
        if not self._pending:
            units = list(CHAIN_CYCLE)
            self.rng.shuffle(units)
            for unit in units:
                if unit == "mid":
                    m = self.rng.randint(*MID_BAND)
                    self._pending.append([f"not edge(n{m}, n{m + 1})"])
                    self._pending.append([f"edge(n{m}, n{m + 1})"])
                else:
                    self._pending.append(unit)
        item = self._pending.pop(0)
        updates = self._updates(item) if isinstance(item, str) else item
        return Op("commit", updates, self._admissible(updates))

    def _updates(self, unit: str) -> List[str]:
        if unit == "rotate":
            # The oldest live branch leaves as the new one arrives, so
            # the model keeps its size over a run.
            old_src, old_dst = self.branches[0]
            src, dst = self._new_branch()
            return [f"edge({src}, {dst})", f"not edge({old_src}, {old_dst})"]
        i = self.rng.randint(*BACK_START)
        return [f"edge(n{i + BACK_SPANS[unit]}, n{i})"]

    @staticmethod
    def _parse(update: str) -> Tuple[bool, str, str]:
        positive = not update.startswith("not ")
        body = update[4:] if not positive else update
        src, dst = body[len("edge(") : -1].split(", ")
        return positive, src, dst

    def _admissible(self, updates: List[str]) -> bool:
        trial = {src: set(dsts) for src, dsts in self.edges.items()}
        for update in updates:
            positive, src, dst = self._parse(update)
            if positive:
                trial.setdefault(src, set()).add(dst)
            else:
                trial.get(src, set()).discard(dst)
        return acyclic(trial)

    def committed(self, updates: List[str]) -> None:
        """Advance the oracle by a transaction the database admitted."""
        for update in updates:
            positive, src, dst = self._parse(update)
            if positive:
                self.edges[src].add(dst)
                if dst.startswith("b"):
                    self.branches.append((src, dst))
            else:
                self.edges[src].discard(dst)
                if (src, dst) in self.branches:
                    self.branches.remove((src, dst))

    def reads(self) -> List[Op]:
        """One closed formula, then a true and a false
        ``holds(reach(..))`` in a seeded order. The formula goes first,
        so after an admitted commit it is the read that re-derives the
        closure, and the read p50 falls among the holds reads."""
        rng = self.rng
        i, j = sorted(rng.sample(range(CHAIN_LENGTH + 1), 2))
        # Both forms ask about paths n_i -> z -> ... -> n_j through a
        # successor z of n_i.
        via = [f"n{j}" in closure(self.edges, z) for z in self.edges[f"n{i}"]]
        if rng.random() < 0.5:
            text = f"exists X: reach(n{i}, X) and reach(X, n{j})"
            formula = Op("query", text, any(via))
        else:
            text = f"forall X: edge(n{i}, X) -> reach(X, n{j})"
            formula = Op("query", text, all(via))
        while True:
            x = f"n{rng.randrange(CHAIN_LENGTH)}"
            reach = closure(self.edges, x)
            if reach:
                break
        holds = [Op("read", f"reach({x}, {rng.choice(sorted(reach))})", True)]
        x = f"n{rng.randrange(CHAIN_LENGTH)}"
        nodes = set(self.edges) | {
            dst for dsts in self.edges.values() for dst in dsts
        }
        unreached = sorted(nodes - closure(self.edges, x))
        holds.append(Op("read", f"reach({x}, {rng.choice(unreached)})", False))
        rng.shuffle(holds)
        return [formula] + holds

    def rotation(self) -> Op:
        """One branch rotation on its own (the recovery probe's
        history)."""
        return Op("commit", self._updates("rotate"), True)


# -- staff schema --------------------------------------------------------------------


class StaffWorkload:
    """E12's relational schema plus ``member/2`` and a recursive
    ``lineage/2`` over a mentor tree."""

    def __init__(self, seed: int, employees: int = EMPLOYEES):
        self.seed = seed
        rng = random.Random(f"staff/{seed}")
        self.employees = [f"e{i}" for i in range(employees)]
        # A complete ternary tree under e0 with seeded labels: the
        # shape, and so the size of lineage/2, is the same on every
        # seed.
        slots = self.employees[1:]
        rng.shuffle(slots)
        slots.insert(0, "e0")
        self.parent = {
            slots[i]: slots[(i - 1) // 3] for i in range(1, employees)
        }
        self.ancestors = {
            emp: self._ancestors(emp) for emp in self.employees
        }
        mentors = set(self.parent.values())
        self.leaves = [emp for emp in self.employees if emp not in mentors]
        self.departments = max(2, employees // 10)

    def _ancestors(self, emp: str) -> Set[str]:
        out = set()
        while emp in self.parent:
            emp = self.parent[emp]
            out.add(emp)
        return out

    def source(self) -> str:
        from repro.workloads.relational import RelationalWorkload

        size = len(self.employees)
        database = RelationalWorkload(size, seed=self.seed).build()
        text = database.to_source()
        mentors = "\n".join(
            f"mentor({p}, {c})." for c, p in sorted(self.parent.items())
        )
        return text + "\n" + mentors + "\n" + STAFF_RULES

    def client(self, name: str) -> "StaffClient":
        return StaffClient(self, name)


class StaffClient:
    """One client's stream: a lineage read, then a 4-fact hire."""

    def __init__(self, workload: StaffWorkload, name: str):
        self.workload = workload
        self.name = name
        self.rng = random.Random(f"staff/{workload.seed}/{name}")
        self.pauses = random.Random(f"staff/{workload.seed}/{name}/pause")
        self.count = 0
        #: Committed (mentor, hire) pairs: their lineage answers are
        #: fixed once committed, whatever the other client does.
        self.mine: List[Tuple[str, str]] = []
        self.facts: List[str] = []

    def read(self) -> Op:
        rng = self.rng
        if self.mine and rng.random() < 0.25:
            mentor, hire = rng.choice(self.mine)
            if rng.random() < 0.5:
                return Op("read", f"lineage({mentor}, {hire})", True)
            return Op("read", f"lineage({hire}, {mentor})", False)
        child = rng.choice(self.workload.employees[1:])
        anc = rng.choice(sorted(self.workload.ancestors[child]))
        # Hires only add leaves, so answers over seed employees hold
        # whatever the other client commits meanwhile.
        if rng.random() < 0.5:
            return Op("read", f"lineage({anc}, {child})", True)
        return Op("read", f"lineage({child}, {anc})", False)

    def pause(self) -> float:
        return min(self.pauses.expovariate(1.0 / PAUSE_S), PAUSE_CAP_S)

    def hire(self, cycle: Optional[bool] = None) -> Op:
        """A valid hire, or (``cycle``) one whose mentor edges close a
        two-node lineage cycle, which the acyclicity constraint rejects.
        By default every CYCLE_EVERY-th hire is a cycle hire."""
        rng = self.rng
        self.count += 1
        if cycle is None:
            cycle = self.count % CYCLE_EVERY == 0
        hire = f"h{self.name}_{self.count}"
        # A cycle hire's mentor is a leaf of the seed tree, so every
        # rejected hire induces the same number of lineage atoms.
        mentor = rng.choice(
            self.workload.leaves if cycle else self.workload.employees
        )
        band = rng.choice(BANDS)
        if cycle:
            updates = [
                f"employee({hire})",
                f"salary({hire}, {band})",
                f"mentor({mentor}, {hire})",
                f"mentor({hire}, {mentor})",
            ]
            return Op("commit", updates, False)
        dept = f"d{rng.randrange(self.workload.departments)}"
        updates = [
            f"employee({hire})",
            f"salary({hire}, {band})",
            f"works_in({hire}, {dept})",
            f"mentor({mentor}, {hire})",
        ]
        return Op("commit", updates, True)

    def committed(self, op: Op) -> None:
        self.facts.extend(op.text)
        hire = op.text[0][len("employee(") : -1]
        mentor = op.text[3][len("mentor(") :].split(",")[0]
        self.mine.append((mentor, hire))

    def history(self, count: int, rejects: int) -> List[Op]:
        """*count* transactions, *rejects* of them cycle hires at evenly
        spaced positions (the same on every seed)."""
        step = count // rejects
        return [self.hire(cycle=i % step == step - 1) for i in range(count)]
