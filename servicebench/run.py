#!/usr/bin/env python3
"""Service benchmark: the public ``repro`` API on recursive rules.

Run from the repository root::

    python3 servicebench/run.py --workload chain-rw --seed 1 --seconds 30 --trace 0

Each workload is a seeded closed loop against ``repro.open`` /
``submit`` / ``holds`` / ``query`` / ``checkpoint`` and cold re-opens
(see README.md in this directory). Every answer and verdict is checked
against the generator's own oracle, and the final committed model
against ``compute_model_naive`` over the oracle's EDB.

``--trace 0`` times operations from outside and prints the end-to-end
metrics. ``--trace 1`` runs fixed blocks of the same operations twice,
untraced and with the layer wrappers of ``tracing.py`` installed, and
prints the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".servicebench")

WORKLOADS = ("chain-rw", "staff-commit", "recover")
#: Creations of the seeded database before the loop of chain-rw and
#: staff-commit; the probe adds more during the loop, and setup_s is
#: the median of all of them (recover's set-up samples are its two
#: history builds).
SETUPS = 3
STAFF_CLIENTS = 2
#: The length of the history of the probe's side database.
CHAIN_PROBE_COMMITS, STAFF_PROBE_HIRES = 6, 20
#: The side databases are small, a chain of CHAIN_PROBE_LENGTH edges and
#: a staff schema of STAFF_PROBE_EMPLOYEES employees: their cold opens
#: stay a small share of the run and seldom trigger a full collection.
CHAIN_PROBE_LENGTH, STAFF_PROBE_EMPLOYEES = 24, 30
#: staff-commit runs its loop in STAFF_SEGMENTS pieces and runs
#: STAFF_PROBE_TICKS probe operations between two of them, while both
#: clients are stopped (a probe in a client thread would change how
#: the clients contend).
STAFF_SEGMENTS, STAFF_PROBE_TICKS = 10, 10
#: Lineage reads after each cold open in recover. The first pays for
#: materializing lineage/2 on the recovered state (about 12 ms), the
#: second for warming what the first built (about 0.06 ms), and the
#: rest find both ready (about 0.02 ms). So read p50 lies at three
#: quarters of the warm reads and read p90 at two fifths of the first
#: reads, each inside one cost level.
RECOVER_READS = 6
#: Reference blocks timed per probe operation (chain-rw, staff-commit),
#: per cold open (recover) and per HISTORY_REFERENCE_EVERY history
#: transactions (recover's builds).
REFERENCES = 2
HISTORY_REFERENCE_EVERY = 10
#: Median time of :func:`reference_block` on a 2-vCPU Intel Xeon VM
#: running at its usual speed. The machine's speed at a moment is the
#: median time of the SPEED_SAMPLES reference blocks nearest to it over
#: REFERENCE_S; each timed operation is divided by the speed at its end
#: (see README.md, *Machine speed*).
REFERENCE_S = 0.0013
SPEED_SAMPLES = 16
#: Fixed block sizes of the traced run.
BLOCK_ROUNDS = 26
BLOCK_LOOPS = 32
BLOCK_OPENS = 4

FAILED = object()


#: The graph of :func:`reference_block`: a chain of 96 edges.
REFERENCE_EDGES = {i: (i + 1,) for i in range(96)}


def reference_block() -> int:
    """A fixed block of pure-Python work of the program's kind (the
    transitive closure of REFERENCE_EDGES as a set of tuples, semi-naive
    style) that calls nothing in ``repro``, so a change to the program
    leaves its time alone. The collector is off while it runs, and every
    object it makes is freed by reference counting before it returns,
    so it neither pays for a collection nor moves one away from the
    program's own operations."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reach: set = set()
        delta = {(x, y) for x, ys in REFERENCE_EDGES.items() for y in ys}
        while delta:
            reach |= delta
            delta = {
                (x, z) for x, y in delta for z in REFERENCE_EDGES.get(y, ())
            } - reach
        return len(reach)
    finally:
        if enabled:
            gc.enable()


class Speed:
    """The machine's speed over a run, from its reference samples:
    1.0 when a reference block takes REFERENCE_S, 2.0 when the machine
    runs at half that speed."""

    def __init__(self, stamps, times):
        order = sorted(range(len(stamps)), key=stamps.__getitem__)
        self.stamps = [stamps[i] for i in order]
        self.factors = [times[i] / REFERENCE_S for i in order]
        self.overall = statistics.median(self.factors)

    def at(self, stamp: float) -> float:
        """The median factor of the SPEED_SAMPLES samples nearest to
        *stamp*."""
        stamps = self.stamps
        lo = hi = bisect.bisect_left(stamps, stamp)
        while hi - lo < SPEED_SAMPLES and (lo > 0 or hi < len(stamps)):
            if lo > 0 and (
                hi == len(stamps) or stamp - stamps[lo - 1] <= stamps[hi] - stamp
            ):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.factors[lo:hi])


class Recorder:
    """Latencies per operation class, attempts and failures."""

    def __init__(self):
        self.latencies = defaultdict(list)
        #: perf_counter() at the end of each latency, in the same order.
        self.stamps = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.messages = []
        #: Set during a traced block: each operation opens a root span.
        self.tracer = None
        self._lock = threading.Lock()

    def failure(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)

    def call(self, kind, call):
        tracer = self.tracer
        span = tracer.operation(kind) if tracer is not None else None
        start = time.perf_counter()
        try:
            result = call()
        except Exception:
            result = FAILED
            self.failure(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - start
            if span is not None:
                tracer.close(span)
        with self._lock:
            self.attempted += 1
        return result, elapsed, span

    def record(self, name: str, elapsed: float) -> None:
        stamp = time.perf_counter()
        with self._lock:
            self.latencies[name].append(elapsed)
            self.stamps[name].append(stamp)

    def speed(self) -> Speed:
        return Speed(self.stamps["reference"], self.latencies["reference"])

    def scaled(self, name: str, speed: Speed):
        """The latencies of *name*, each divided by the machine's speed
        when it ended."""
        return [
            elapsed / speed.at(stamp)
            for elapsed, stamp in zip(self.latencies[name], self.stamps[name])
        ]

    def reference(self, blocks: int = REFERENCES) -> float:
        """Time *blocks* reference blocks, one sample each; returns the
        wall seconds they took. A sample is the thread's CPU time, which
        follows the machine's speed like wall time does but leaves out
        waiting for the interpreter lock while another client thread
        runs."""
        spent = 0.0
        for _ in range(blocks):
            start, cpu = time.perf_counter(), time.thread_time()
            reference_block()
            self.record("reference", time.thread_time() - cpu)
            spent += time.perf_counter() - start
        return spent

    def commit(self, db, op, prefix: str = "") -> bool:
        """Submit *op*; True iff the database admitted it."""
        result, elapsed, span = self.call("commit", lambda: db.submit(op.text))
        if result is FAILED:
            return False
        status = result.status
        kind = {"committed": "commit", "rejected": "reject"}.get(status, status)
        if span is not None:
            span.name = f"op.{kind}"
        self.record(prefix + kind, elapsed)
        expected = "committed" if op.expect else "rejected"
        if status != expected:
            self.failure(f"commit {op.text}: {status}, expected {expected}")
        return status == "committed"

    def read(self, db, op) -> None:
        call = db.holds if op.kind == "read" else db.query
        result, elapsed, _ = self.call("read", lambda: call(op.text))
        if result is FAILED:
            return
        self.record("read", elapsed)
        if result != op.expect:
            self.failure(f"read {op.text}: {result}, expected {op.expect}")

    def open(self, directory, name: str, lsn: int):
        """Cold-open *directory*; the recovered LSN must be *lsn*."""
        import repro

        db, elapsed, _ = self.call("open", lambda: repro.open(directory))
        if db is FAILED:
            return None
        self.record(name, elapsed)
        if db.lsn != lsn:
            self.failure(f"cold open recovered lsn {db.lsn}, expected {lsn}")
        return db

    def check_model(self, db, source: str, cache: dict) -> None:
        """The committed EDB must equal the oracle's, and the maintained
        model ``compute_model_naive`` over it (*source*: the oracle's
        facts and rules; *cache* keeps naive models across blocks)."""
        from repro.datalog.bottomup import compute_model_naive
        from repro.datalog.database import DeductiveDatabase

        with self._lock:
            self.attempted += 1
        if source not in cache:
            oracle = DeductiveDatabase.from_source(source)
            naive = compute_model_naive(oracle.facts, oracle.program)
            cache[source] = (
                {str(f) for f in oracle.facts},
                {str(f) for f in naive},
            )
        edb, model = cache[source]
        if {str(f) for f in db.database.facts} != edb:
            self.failure("final EDB differs from the oracle's")
        elif {str(f) for f in db.model_facts()} != model:
            self.failure("final model differs from compute_model_naive")



def fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def create(rec, directory: str, source: str):
    """Create the seeded database in *directory*: one set-up sample."""
    import repro

    fresh(directory)
    start = time.perf_counter()
    db = repro.open(directory, source)
    rec.record("setup", time.perf_counter() - start)
    return db


def timed_setup(rec, work: str, source: str):
    """Create the database SETUPS times; keep the last one open."""
    for i in range(SETUPS):
        db = create(rec, os.path.join(work, f"db{i}"), source)
        if i < SETUPS - 1:
            db.close()
    return db


def checkpointed_copy(rec, source_dir: str, directory: str) -> None:
    """Copy a database directory and fold the copy's WAL into a
    snapshot (one timed ``checkpoint`` operation)."""
    import repro

    shutil.copytree(source_dir, fresh(directory))
    db = repro.open(directory)
    _, elapsed, _ = rec.call("checkpoint", db.checkpoint)
    rec.record("checkpoint", elapsed)
    db.close()


class Prober:
    """Side measurements for chain-rw and staff-commit, one per
    :meth:`tick`, in turn: cold opens of a side database built from
    *side_source* and a short history, cold opens of a checkpointed
    copy of it, and every fifth tick a fresh creation of the seeded
    database *source* (a set-up sample, spread over the run like the
    loop's own samples). Each tick also times the reference blocks."""

    PHASES = ("wal", "ckpt", "wal", "ckpt", "setup")

    def __init__(self, rec, work, source, side_source, ops, on_commit):
        import repro

        self.rec = rec
        self.wal_dir = fresh(os.path.join(work, "probe-wal"))
        db = repro.open(self.wal_dir, side_source)
        for op in ops:
            if rec.commit(db, op, "probe."):
                on_commit(op)
        self.lsn = db.lsn
        db.close()
        self.source = source
        self.setup_dir = os.path.join(work, "probe-setup")
        self.ckpt_dir = os.path.join(work, "probe-ckpt")
        checkpointed_copy(rec, self.wal_dir, self.ckpt_dir)
        #: Seconds spent in probe operations, which the loop leaves out
        #: of its throughput.
        self.spent = 0.0
        self._ticks = 0

    def tick(self) -> None:
        phase = self.PHASES[self._ticks % len(self.PHASES)]
        self._ticks += 1
        start = time.perf_counter()
        self.rec.reference()
        if phase == "setup":
            db = create(self.rec, self.setup_dir, self.source)
        else:
            directory = self.wal_dir if phase == "wal" else self.ckpt_dir
            db = self.rec.open(directory, f"probe.open_{phase}", self.lsn)
        if db is not None:
            db.close()
        self.spent += time.perf_counter() - start


# -- workloads ---------------------------------------------------------------------


def chain_rounds(db, gen, rec, more, prober=None) -> None:
    """One client: rounds of one commit followed by three reads."""
    rounds = 0
    while more(rounds):
        op = gen.next_commit()
        if rec.commit(db, op):
            gen.committed(op.text)
        for read in gen.reads():
            rec.read(db, read)
        if prober is not None:
            prober.tick()
        rounds += 1


def staff_clients(db, clients, rec, more) -> None:
    """One thread per client, each looping one reference block, one
    lineage read, a pause and one hire."""

    def body(client):
        try:
            loops = 0
            while more(loops):
                # One reference block per loop tracks the machine's
                # speed while the clients run.
                rec.reference(1)
                rec.read(db, client.read())
                time.sleep(client.pause())
                op = client.hire()
                if rec.commit(db, op):
                    client.committed(op)
                loops += 1
        except Exception:
            rec.failure(traceback.format_exc())

    threads = [threading.Thread(target=body, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        if thread.is_alive():
            raise RuntimeError("a staff client did not finish")


def staff_source(workload, clients) -> str:
    facts = [fact for client in clients for fact in client.facts]
    return workload.source() + "\n" + "".join(f"{f}.\n" for f in facts)


def build_history(rec, directory, workload):
    """The recover workload's data: HISTORY single-client staff
    transactions committed with default options (one set-up sample)."""
    import repro
    from workloads import HISTORY, HISTORY_REJECTS

    client = workload.client("r")
    source = workload.source()
    ops = client.history(HISTORY, HISTORY_REJECTS)
    fresh(directory)
    start = time.perf_counter()
    references = 0.0
    db = repro.open(directory, source)
    for i, op in enumerate(ops):
        if rec.commit(db, op, "history."):
            client.committed(op)
        if i % HISTORY_REFERENCE_EVERY == 0:
            references += rec.reference()
    lsn = db.lsn
    db.close()
    rec.record("setup", time.perf_counter() - start - references)
    return client, lsn


def recover_opens(
    rec, wal_dir, ckpt_dir, client, lsn, more, tracer=None, references=False
):
    """Cold opens alternating between the full-WAL directory and its
    checkpointed copy, each followed by RECOVER_READS lineage reads
    (and, with *references*, by reference blocks). Returns the seconds
    the reference blocks took."""
    opens = 0
    spent = 0.0
    while more(opens):
        phase = ("wal", "ckpt")[opens % 2]
        tracer_phase(tracer, phase)
        directory = wal_dir if phase == "wal" else ckpt_dir
        db = rec.open(directory, f"open_{phase}", lsn)
        if db is not None:
            for _ in range(RECOVER_READS):
                rec.read(db, client.read())
            db.close()
        if references:
            spent += rec.reference()
        opens += 1
    tracer_phase(tracer, "run")
    return spent


def tracer_phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


# -- the two kinds of run ----------------------------------------------------------


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload: str, seed: int, seconds: float, work: str):
    import repro
    import workloads

    rec = Recorder()
    cache: dict = {}
    if workload == "chain-rw":
        gen = workloads.ChainWorkload(seed)
        db = timed_setup(rec, work, gen.source())
        probe = workloads.ChainWorkload(seed, CHAIN_PROBE_LENGTH)
        prober = Prober(
            rec,
            work,
            gen.source(),
            probe.source(),
            # Generated lazily: each rotation retires the oldest branch
            # the probe's oracle holds after the previous commit.
            (probe.rotation() for _ in range(CHAIN_PROBE_COMMITS)),
            lambda op: probe.committed(op.text),
        )
        start = time.perf_counter()
        end = start + seconds
        chain_rounds(db, gen, rec, lambda n: time.perf_counter() < end, prober)
        busy_s = time.perf_counter() - start - prober.spent
        rec.check_model(db, gen.source(), cache)
        db.close()
    elif workload == "staff-commit":
        staff = workloads.StaffWorkload(seed)
        db = timed_setup(rec, work, staff.source())
        side = workloads.StaffWorkload(seed, STAFF_PROBE_EMPLOYEES)
        probe = side.client("p")
        prober = Prober(
            rec,
            work,
            staff.source(),
            side.source(),
            [probe.hire(cycle=False) for _ in range(STAFF_PROBE_HIRES)],
            probe.committed,
        )
        clients = [staff.client(f"c{i}") for i in range(STAFF_CLIENTS)]
        busy_s = 0.0
        for _ in range(STAFF_SEGMENTS):
            start = time.perf_counter()
            end = start + seconds / STAFF_SEGMENTS
            staff_clients(db, clients, rec, lambda n: time.perf_counter() < end)
            busy_s += time.perf_counter() - start
            for _ in range(STAFF_PROBE_TICKS):
                prober.tick()
        rec.check_model(db, staff_source(staff, clients), cache)
        db.close()
    else:
        staff = workloads.StaffWorkload(seed)
        wal_dir = os.path.join(work, "history")
        client, lsn = build_history(rec, wal_dir, staff)
        ckpt_dir = os.path.join(work, "history-ckpt")
        checkpointed_copy(rec, wal_dir, ckpt_dir)
        busy_s = 0.0
        for half in range(2):
            start = time.perf_counter()
            end = start + seconds / 2
            references = recover_opens(
                rec,
                wal_dir,
                ckpt_dir,
                client,
                lsn,
                lambda n: time.perf_counter() < end,
                references=True,
            )
            busy_s += time.perf_counter() - start - references
            # The same history again in the middle of the loop and
            # after it, so that set-up and commit samples come from
            # three stretches of the run.
            build_history(rec, os.path.join(work, f"history-{half + 2}"), staff)
        for directory in (wal_dir, ckpt_dir):
            db = repro.open(directory)
            rec.check_model(db, staff_source(staff, [client]), cache)
            db.close()
    lat = rec.latencies
    speed = rec.speed()
    scaled = {name: rec.scaled(name, speed) for name in list(lat)}
    if workload == "recover":
        commits, rejects, opens = "history.commit", "history.reject", ""
        loop = ("open_wal", "open_ckpt", "read")
    else:
        commits, rejects, opens = "commit", "reject", "probe."
        loop = ("commit", "reject", "read")
    # A rate spans the whole loop, so it takes the loop's speed: the
    # speed factors of its operations weighted by their time.
    loop_speed = sum(sum(lat[c]) for c in loop) / sum(
        sum(scaled[c]) for c in loop
    )
    if workload == "recover":
        # The loop runs no gate: the commit metrics are the history
        # builds'.
        commits_per_s = len(lat[commits]) / sum(
            scaled[commits] + scaled[rejects]
        )
    else:
        commits_per_s = loop_speed * len(lat[commits]) / busy_s
    ms = 1000.0
    metrics = {
        "setup_s": (statistics.median(scaled["setup"]), "s"),
        "commit_p50_ms": (ms * percentile(scaled[commits], 50), "ms"),
        "commit_p90_ms": (ms * percentile(scaled[commits], 90), "ms"),
        "reject_p50_ms": (ms * percentile(scaled[rejects], 50), "ms"),
        "read_p50_ms": (ms * percentile(scaled["read"], 50), "ms"),
        "read_p90_ms": (ms * percentile(scaled["read"], 90), "ms"),
        "ops_per_s": (
            loop_speed * sum(len(lat[c]) for c in loop) / busy_s,
            "1/s",
        ),
        "commits_per_s": (commits_per_s, "1/s"),
        "recover_p50_ms": (
            ms * percentile(scaled[opens + "open_wal"], 50),
            "ms",
        ),
        "recover_ckpt_p50_ms": (
            ms * percentile(scaled[opens + "open_ckpt"], 50),
            "ms",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    counts = {name: len(values) for name, values in sorted(lat.items())}
    return rec, metrics, counts, speed.overall


def traced(workload: str, seed: int, seconds: float, work: str):
    """Alternate untraced and traced fixed blocks of the workload until
    *seconds* have passed (at least one pair)."""
    import repro
    import workloads
    from tracing import Tracer, layer_metrics

    rec = Recorder()
    cache: dict = {}
    pristine = None
    if workload == "recover":
        staff = workloads.StaffWorkload(seed)
        pristine = os.path.join(work, "pristine")
        history_client, lsn = build_history(rec, pristine, staff)

    def block(tracer):
        rec.tracer = tracer
        directory = fresh(os.path.join(work, "block"))
        if tracer is not None:
            tracer.install()
        before = repro.metrics()
        try:
            if workload == "chain-rw":
                gen = workloads.ChainWorkload(seed)
                db = repro.open(directory, gen.source())
                start = time.perf_counter()
                chain_rounds(db, gen, rec, lambda n: n < BLOCK_ROUNDS)
                wall = time.perf_counter() - start
                source = gen.source()
            elif workload == "staff-commit":
                staff = workloads.StaffWorkload(seed)
                db = repro.open(directory, staff.source())
                start = time.perf_counter()
                clients = [staff.client(f"c{i}") for i in range(STAFF_CLIENTS)]
                staff_clients(db, clients, rec, lambda n: n < BLOCK_LOOPS)
                wall = time.perf_counter() - start
                source = staff_source(staff, clients)
            else:
                shutil.copytree(pristine, directory)
                ckpt_dir = os.path.join(work, "block-ckpt")
                tracer_phase(tracer, "checkpoint")
                checkpointed_copy(rec, pristine, ckpt_dir)
                client = workloads.StaffClient(history_client.workload, "r")
                client.mine = list(history_client.mine)
                client.facts = list(history_client.facts)
                start = time.perf_counter()
                recover_opens(
                    rec,
                    directory,
                    ckpt_dir,
                    client,
                    lsn,
                    lambda n: n < 2 * BLOCK_OPENS,
                    tracer,
                )
                wall = time.perf_counter() - start
                db = repro.open(directory)
                source = staff_source(client.workload, [client])
            registry = repro.default_registry().diff(before)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rec.tracer = None
        rec.check_model(db, source, cache)
        db.close()
        return wall, registry

    deadline = time.perf_counter() + seconds
    # A discarded untraced block first, so that one-time costs (lazy
    # imports, first-use caches) land in neither side of the overhead.
    block(None)
    plain, tables, walls = [], [], []
    first = None
    while not tables or time.perf_counter() < deadline:
        plain.append(block(None)[0])
        tracer = Tracer()
        wall, registry = block(tracer)
        walls.append(wall)
        tables.append(layer_metrics(tracer.spans, registry))
        if first is None:
            first = tracer
    return rec, tables, plain, walls, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed set/dict iteration order, so that the count metrics of
        # a single-client workload repeat exactly for one seed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        print(f"cannot import repro from {src}: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        layers = json.load(handle)["per_layer"]
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            rec, tables, plain, walls, first = traced(
                args.workload, args.seed, args.seconds, work
            )
            first.dump(
                os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
            )
            metrics = {}
            for entry in layers:
                name = entry["name"]
                values = [table.get(name, 0.0) for table in tables]
                metrics[name] = {
                    "value": statistics.median(values),
                    "unit": entry["unit"],
                }
            mismatches = sum(
                1
                for entry in layers
                if entry["unit"].startswith("count")
                and len({table.get(entry["name"]) for table in tables}) > 1
            )
            extra = {
                "trace.overhead_pct": 100.0
                * (statistics.median(walls) / statistics.median(plain) - 1.0),
                "trace.blocks": float(len(tables)),
                "trace.count_mismatches": float(mismatches),
            }
            for name, value in extra.items():
                metrics[name]["value"] = value
            for name, entry in metrics.items():
                print(f"{name:44s} {entry['value']:14.6g} {entry['unit']}",
                      file=sys.stderr)
        else:
            rec, values, counts, speed = end_to_end(
                args.workload, args.seed, args.seconds, work
            )
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()
            }
            print(f"samples per class: {counts}", file=sys.stderr)
            print(f"speed factor: {speed:.4f}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in rec.messages:
        print(f"FAILURE: {message}", file=sys.stderr)
    print(
        f"failure_rate = {rec.failed}/{rec.attempted} = "
        f"{rec.failed / rec.attempted:.4f}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": rec.failed == 0,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
