"""Per-layer spans for the traced run, recorded from outside the program.

:meth:`Tracer.install` replaces the public entry points of each layer
(``repro.logic``, ``repro.service``, ``repro.integrity``,
``repro.datalog``, ``repro.storage``) with wrappers that record one
span per call: name, start, end, parent span and the request id of the
benchmark operation that caused it. :meth:`Tracer.uninstall` puts the
originals back, so untraced runs execute the program unchanged.

Spans stay in memory; :func:`layer_metrics` turns them into the
per-layer table and :meth:`Tracer.dump` writes them out at the end.
A span's self time is its duration minus the time its direct children
cover (children nest strictly inside their parent on one thread).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "phase", "value")

    def __init__(self, name, parent, request, phase):
        self.name = name
        self.parent = parent
        self.request = request
        self.phase = phase
        self.value = None
        self.end = None
        self.start = time.perf_counter()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the wrapped layer entry points."""

    def __init__(self):
        self.spans: List[Span] = []
        self.phase = "run"
        self._local = threading.local()
        self._requests = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[int] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = parent.request if parent is not None else 0
        span = Span(name, parent, request, self.phase)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def operation(self, kind: str) -> Span:
        """Open the root span of one benchmark operation under a fresh
        request id; the caller closes it."""
        return self.open(f"op.{kind}", next(self._requests))

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                span.value = after(args, result)
            return result

        return traced

    def _patch_attr(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._wrapper(name, original.__func__, after)
            )
        else:
            replacement = self._wrapper(name, original, after)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_function(self, function, name: str, modules=None) -> None:
        """Rebind *function* in every loaded ``repro`` module that
        imported it by name (or only in *modules*)."""
        replacement = self._wrapper(name, function)
        if modules is None:
            modules = [
                module
                for key, module in list(sys.modules.items())
                if key == "repro" or key.startswith("repro.")
            ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, replacement)
                    self._undo.append(
                        functools.partial(setattr, module, attr, function)
                    )

    def install(self) -> None:
        import repro.datalog.query as query_module
        import repro.service.transactions as service_module
        import repro.storage.engine as engine_module
        from repro.datalog.incremental import MaintainedModel
        from repro.datalog.query import QueryEngine
        from repro.integrity.checker import IntegrityChecker
        from repro.integrity.delta_eval import DeltaEvaluator
        from repro.integrity.transactions import Transaction
        from repro.logic.normalize import normalize_constraint
        from repro.logic.parser import parse_atom, parse_formula
        from repro.service.database import ManagedDatabase
        from repro.service.transactions import TransactionManager
        from repro.storage.engine import StorageEngine
        from repro.storage.snapshot import snapshot_path
        from repro.storage.wal import WriteAheadLog

        def gate_stats(args, result):
            return dict(result.stats)

        def changed_atoms(args, result):
            inserted, deleted = result
            return len(inserted) + len(deleted)

        def replayed(args, result):
            return result.replayed_transactions

        def snapshot_bytes(args, result):
            engine, lsn = args[0], args[1]
            return os.path.getsize(snapshot_path(engine.directory, lsn))

        # repro.logic
        self._patch_function(parse_formula, "logic.parse")
        self._patch_function(parse_atom, "logic.parse")
        self._patch_function(normalize_constraint, "logic.parse")
        self._patch_attr(Transaction, "coerce", "logic.parse")
        # repro.service
        self._patch_attr(ManagedDatabase, "__init__", "service.open")
        self._patch_attr(TransactionManager, "begin", "service.begin")
        self._patch_attr(TransactionManager, "commit", "service.commit")
        self._patch_attr(TransactionManager, "evaluate", "service.read")
        self._patch_attr(TransactionManager, "holds", "service.read")
        self._patch_function(
            service_module.apply_transaction,
            "service.apply",
            modules=[service_module],
        )
        # repro.integrity
        self._patch_attr(
            IntegrityChecker, "admit", "integrity.admit", gate_stats
        )
        self._patch_attr(IntegrityChecker, "compile", "integrity.compile")
        self._patch_attr(DeltaEvaluator, "__init__", "integrity.induced")
        self._patch_attr(
            DeltaEvaluator, "induced_updates", "integrity.induced"
        )
        # repro.datalog
        self._patch_attr(QueryEngine, "__init__", "datalog.engine_build")
        self._patch_attr(QueryEngine, "evaluate", "datalog.eval")
        self._patch_attr(QueryEngine, "holds", "datalog.eval")
        self._patch_function(
            query_module.evaluate_stratum,
            "datalog.materialize",
            modules=[query_module],
        )
        self._patch_attr(
            MaintainedModel, "apply", "datalog.dred_apply", changed_atoms
        )
        self._patch_attr(MaintainedModel, "__init__", "datalog.model_build")
        self._patch_attr(
            MaintainedModel, "from_snapshot", "datalog.model_build"
        )
        # repro.storage
        self._patch_attr(StorageEngine, "log", "storage.wal_append")
        self._patch_attr(
            StorageEngine, "checkpoint", "storage.checkpoint", snapshot_bytes
        )
        self._patch_attr(StorageEngine, "recover", "storage.recover", replayed)
        self._patch_attr(WriteAheadLog, "scan", "storage.wal_scan")
        self._patch_function(
            engine_module.load_latest_snapshot,
            "storage.snapshot_load",
            modules=[engine_module],
        )
        self._patch_function(
            engine_module.apply_transaction,
            "storage.replay",
            modules=[engine_module],
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (ids are list positions)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                parent = span.parent
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": None
                            if parent is None
                            else index.get(id(parent)),
                            "request": span.request,
                            "phase": span.phase,
                        }
                    )
                    + "\n"
                )


# -- analysis ------------------------------------------------------------------

#: The layers a span name can belong to; ``op`` spans are the
#: benchmark's own operation roots, whose self time is unattributed.
LAYERS = ("logic", "service", "integrity", "datalog", "storage")
OP_KINDS = ("commit", "reject", "read", "open")

#: Which ancestor decides a datalog span's parent category.
_CATEGORY_OF = {
    "service.read": "read",
    "integrity.admit": "gate",
    "datalog.dred_apply": "model",
    "datalog.model_build": "model",
    "storage.recover": "model",
}


def _ancestors(span: Span):
    parent = span.parent
    while parent is not None:
        yield parent
        parent = parent.parent


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def _outermost(spans: List[Span], names) -> List[Span]:
    """Spans named in *names* with no ancestor named in *names*."""
    return [
        span
        for span in spans
        if span.name in names
        and not any(a.name in names for a in _ancestors(span))
    ]


def _under(span: Span, name: str) -> Optional[Span]:
    for ancestor in _ancestors(span):
        if ancestor.name == name:
            return ancestor
    return None


def _category(span: Span) -> str:
    for ancestor in _ancestors(span):
        category = _CATEGORY_OF.get(ancestor.name)
        if category is not None:
            return category
    return "other"


def _total(spans: List[Span]) -> float:
    return sum(span.duration for span in spans)


def layer_metrics(spans: List[Span], registry: Dict) -> Dict[str, float]:
    """The per-layer table of one traced block: *spans* from its
    tracer, *registry* the metrics-registry diff over the block."""
    out: Dict[str, float] = {}

    def reg(name: str) -> float:
        value = registry.get(name, 0)
        return value.get("sum", 0.0) if isinstance(value, dict) else value

    ops = [s for s in spans if s.name.startswith("op.")]
    commit_ops = sum(1 for s in ops if s.name in ("op.commit", "op.reject"))
    admitted = sum(1 for s in ops if s.name == "op.commit")

    # repro.logic
    parses = _outermost(spans, {"logic.parse"})
    out["logic.parse_s"] = _total(parses)
    out["logic.parse_calls"] = len(parses)

    # repro.service
    commits = _outermost(spans, {"service.commit"})
    reads = _outermost(spans, {"service.read"})
    beneath_commit = _outermost(
        spans, {"integrity.admit", "storage.wal_append", "service.apply"}
    )
    out["service.commit_s"] = _total(commits)
    out["service.commit_wait_s"] = _total(commits) - sum(
        s.duration for s in beneath_commit if _under(s, "service.commit")
    )
    engine_spans = [
        s
        for s in spans
        if s.layer == "datalog"
        and _under(s, "service.read")
        and not (s.parent is not None and s.parent.layer == "datalog")
    ]
    out["service.read_s"] = _total(reads)
    out["service.read_wait_s"] = _total(reads) - _total(engine_spans)
    batches = reg("txn.batches")
    out["service.batch_size"] = (
        reg("txn.batched_transactions") / batches if batches else 0.0
    )
    out["service.linger_s"] = reg("txn.linger_seconds")
    out["service.open_s"] = _total(_outermost(spans, {"service.open"}))

    # repro.integrity
    admits = _outermost(spans, {"integrity.admit"})
    out["integrity.admit_s"] = _total(admits)
    out["integrity.admit_calls"] = len(admits)
    out["integrity.compile_s"] = _total(
        _outermost(spans, {"integrity.compile"})
    )
    out["integrity.induced_s"] = _total(
        _outermost(spans, {"integrity.induced"})
    )
    out["integrity.residual_s"] = _total(
        [
            s
            for s in _outermost(spans, {"datalog.eval"})
            if _under(s, "integrity.admit")
        ]
    )
    for key in ("induced_updates", "instances_evaluated", "lookups"):
        out[f"integrity.{key}"] = sum(
            (s.value or {}).get(key, 0) for s in admits
        )

    # repro.datalog
    builds = [s for s in spans if s.name == "datalog.engine_build"]
    materializations = [s for s in spans if s.name == "datalog.materialize"]
    out["datalog.engine_builds"] = len(builds)
    out["datalog.materializations"] = len(materializations)
    out["datalog.materialize_s"] = _total(materializations)
    for category in ("read", "gate", "model"):
        out[f"datalog.engine_builds.{category}"] = sum(
            1 for s in builds if _category(s) == category
        )
        chosen = [s for s in materializations if _category(s) == category]
        out[f"datalog.materializations.{category}"] = len(chosen)
        out[f"datalog.materialize_s.{category}"] = _total(chosen)
    out["datalog.materializations_per_commit"] = (
        out["datalog.materializations.gate"] / commit_ops
        if commit_ops
        else 0.0
    )
    out["datalog.read_eval_s"] = _total(
        [
            s
            for s in _outermost(spans, {"datalog.eval"})
            if _under(s, "service.read")
        ]
    )
    applies = _outermost(spans, {"datalog.dred_apply"})
    out["datalog.dred_apply_s"] = _total(applies)
    out["datalog.dred_apply_calls"] = len(applies)
    out["datalog.dred_changed_atoms"] = sum(s.value or 0 for s in applies)
    out["datalog.model_build_s"] = _total(
        _outermost(spans, {"datalog.model_build"})
    )
    out["datalog.store_group_builds"] = reg("store.group_builds")
    out["datalog.join_tuple_fallbacks"] = reg("join.tuple_fallbacks")
    out["datalog.join_wcoj_joins"] = reg("join.wcoj_joins")
    out["datalog.join_wcoj_fallbacks"] = reg("join.wcoj_fallbacks")

    # repro.storage
    out["storage.wal_append_s"] = _total(
        _outermost(spans, {"storage.wal_append"})
    )
    out["storage.wal_appends"] = reg("wal.appends")
    out["storage.wal_fsyncs"] = reg("wal.fsyncs")
    out["storage.wal_bytes_per_commit"] = (
        reg("wal.bytes") / admitted if admitted else 0.0
    )
    checkpoints = _outermost(spans, {"storage.checkpoint"})
    out["storage.checkpoint_s"] = _total(checkpoints)
    out["storage.snapshot_bytes"] = (
        checkpoints[-1].value if checkpoints else 0
    )
    for phase in ("wal", "ckpt"):
        in_phase = [s for s in spans if s.phase == phase]
        opens = sum(1 for s in in_phase if s.name == "op.open") or 1
        recovers = _outermost(in_phase, {"storage.recover"})
        loads = [s for s in in_phase if s.name == "storage.snapshot_load"]
        out[f"storage.recover_s.{phase}"] = _total(recovers) / opens
        out[f"storage.wal_scan_s.{phase}"] = (
            _total([s for s in in_phase if s.name == "storage.wal_scan"])
            / opens
        )
        out[f"storage.snapshot_load_s.{phase}"] = _total(loads) / opens
        out[f"storage.snapshot_loads.{phase}"] = len(loads) / opens
        out[f"storage.replay_s.{phase}"] = (
            _total([s for s in in_phase if s.name == "storage.replay"])
            / opens
        )
        out[f"storage.replayed_records.{phase}"] = (
            sum(s.value or 0 for s in recovers) / opens
        )

    # Attribution: mean self time per operation, by layer.
    self_time = {id(s): s.duration for s in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in self_time:
            self_time[id(span.parent)] -= span.duration
    per_kind: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span in spans:
        root = _root(span)
        if not root.name.startswith("op."):
            continue
        layer = "unattributed" if span.layer == "op" else span.layer
        per_kind[root.name[3:]][layer] += self_time[id(span)]
    for kind in OP_KINDS:
        count = sum(1 for s in ops if s.name == f"op.{kind}")
        for layer in LAYERS + ("unattributed",):
            total = per_kind[kind][layer]
            out[f"attr.{kind}.{layer}_ms"] = (
                1000.0 * total / count if count else 0.0
            )
    out["trace.spans_per_op"] = len(spans) / len(ops) if ops else 0.0
    return out
