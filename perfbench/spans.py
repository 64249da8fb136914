"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer from outside the program
(``src/`` is not instrumented): :class:`Patches` swaps each target for a
wrapper while the traced phase runs and puts the original back
afterwards.  A wrapper records one span -- name, start, end, parent span
and op id -- around the call.  A function that returns a generator (the
GHFK iterator, range scans) gets one span per ``next()``, so the layer
is charged for the work done while the caller consumes it and not for
the caller's own work between items.

Spans live in flat in-memory arrays, are written out when the run ends
and are reduced to self time: a span's duration minus the durations of
its direct children.  Only one client thread runs, so nothing waits and
each layer reports self time and counts only.
"""

from __future__ import annotations

import functools
import gzip
import sys
import types
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the root span wrapped around each op; its self time is the
#: harness plus whatever code no layer below claims.
ROOT = "bench.op"

#: Closure tolerance: per op, the layers' self times must add up to the
#: root span's duration within this many seconds (float rounding only).
CLOSURE_TOLERANCE_S = 1e-6

Amount = Callable[[tuple, Any], int]

#: Layer name -> (targets, optional amount hook).  A target is
#: ``"module:Class.method"`` or ``"module:function"``; a module-level
#: function is patched in every ``repro`` module that imported it, since
#: callers look it up there (``temporal_join`` in the engine module).
#: The amount hook adds ``hook(args, result)`` to ``amounts[layer]``
#: for every call made inside an op.
LAYERS: Dict[str, Tuple[Tuple[str, ...], Optional[Amount]]] = {
    # Query side: the decode stack under one GHFK.
    "fabric.ghfk": (("repro.fabric.ledger:Ledger.get_history_for_key",), None),
    "fabric.blockstore": (
        (
            "repro.fabric.blockstore:BlockStore.get_block",
            "repro.fabric.blockstore:BlockStore.get_blocks",
        ),
        None,
    ),
    "storage.blockfile.read": (
        (
            "repro.storage.blockfile:BlockFileManager.read",
            "repro.storage.blockfile:BlockFileManager.read_many",
        ),
        None,
    ),
    "common.codec.decode": (
        (
            "repro.common.codec:JsonCodec.decode",
            "repro.common.codec:BinaryCodec.decode",
            "repro.common.codec:CompactCodec.decode",
        ),
        None,
    ),
    "fabric.block.from_dict": (
        ("repro.fabric.block:Block.from_dict",),
        lambda args, block: len(block.transactions),
    ),
    # Temporal models.
    "temporal.list_keys": (
        (
            "repro.temporal.tqf:TQFEngine.list_keys",
            "repro.temporal.m1:M1QueryEngine.list_keys",
            "repro.temporal.m2:M2QueryEngine.list_keys",
        ),
        None,
    ),
    "temporal.fetch_events": (
        (
            "repro.temporal.tqf:TQFEngine.fetch_events",
            "repro.temporal.m1:M1QueryEngine.fetch_events",
            "repro.temporal.m2:M2QueryEngine.fetch_events",
        ),
        None,
    ),
    "temporal.intervals": (
        (
            "repro.temporal.intervals:FixedIntervalScheme.interval_for",
            "repro.temporal.intervals:FixedIntervalScheme.previous_interval",
            "repro.temporal.intervals:FixedIntervalScheme.intervals_overlapping",
            "repro.temporal.intervals:FixedIntervalScheme.iter_intervals_overlapping",
            "repro.temporal.intervals:FixedIntervalScheme.partition",
            "repro.temporal.intervals:FixedIntervalScheme.partition_clipped",
        ),
        None,
    ),
    "temporal.keys": (
        (
            "repro.temporal.keys:validate_base_key",
            "repro.temporal.keys:encode_interval_key",
            "repro.temporal.keys:decode_interval_key",
            "repro.temporal.keys:is_interval_key",
            "repro.temporal.keys:interval_key_range",
        ),
        None,
    ),
    "temporal.join": (
        ("repro.temporal.join:temporal_join",),
        lambda args, rows: len(rows),
    ),
    # State-db and the KV store under it.
    "fabric.statedb": (
        (
            "repro.fabric.statedb:StateDB.get_state",
            "repro.fabric.statedb:StateDB.get_version",
            "repro.fabric.statedb:StateDB.get_state_by_range",
            "repro.fabric.statedb:StateDB.record_savepoint",
            "repro.fabric.statedb:StateDB.savepoint",
        ),
        None,
    ),
    "fabric.statedb.apply_write": (
        ("repro.fabric.statedb:StateDB.apply_write",),
        None,
    ),
    "storage.kv.get": (
        (
            "repro.storage.kv.memstore:MemStore.get",
            "repro.storage.kv.lsm:LSMStore.get",
        ),
        None,
    ),
    "storage.kv.scan": (
        (
            "repro.storage.kv.memstore:MemStore.scan",
            "repro.storage.kv.lsm:LSMStore.scan",
        ),
        None,
    ),
    "storage.kv.put": (
        (
            "repro.storage.kv.memstore:MemStore.put",
            "repro.storage.kv.memstore:MemStore.delete",
            "repro.storage.kv.lsm:LSMStore.put",
            "repro.storage.kv.lsm:LSMStore.delete",
        ),
        None,
    ),
    # Commit path.
    "fabric.gateway.submit": (
        ("repro.fabric.gateway:Gateway.submit_transaction",),
        None,
    ),
    "fabric.endorser.endorse": (("repro.fabric.endorser:Endorser.endorse",), None),
    "fabric.orderer.cut": (("repro.fabric.orderer:SoloOrderer.cut_block",), None),
    "fabric.ledger.commit_block": (
        ("repro.fabric.ledger:Ledger.commit_block",),
        None,
    ),
    "fabric.validator.validate": (
        (
            "repro.fabric.validator:Validator.validate_block",
            "repro.fabric.validator:ParallelValidator.validate_block",
        ),
        None,
    ),
    "fabric.blockstore.add_block": (
        ("repro.fabric.blockstore:BlockStore.add_block",),
        None,
    ),
    "fabric.block.to_dict": (("repro.fabric.block:Block.to_dict",), None),
    "common.codec.encode": (
        (
            "repro.common.codec:JsonCodec.encode",
            "repro.common.codec:BinaryCodec.encode",
            "repro.common.codec:CompactCodec.encode",
        ),
        None,
    ),
    "storage.blockfile.append": (
        ("repro.storage.blockfile:BlockFileManager.append",),
        lambda args, location: len(args[1]),
    ),
    "fabric.blockstore.sync": (
        ("repro.fabric.blockstore:BlockStore.sync",),
        lambda args, result: 1,
    ),
    "fabric.historydb.index_block": (
        ("repro.fabric.historydb:HistoryDB.index_block",),
        None,
    ),
}


class Tracer:
    """In-memory span store for one traced phase (single thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: List[int] = []
        #: Id of the open op; spans are recorded only while one is open.
        self.op_id = -1
        self.ops = 0
        #: Per-layer totals from the amount hooks (bytes, rows, calls).
        self.amounts: Dict[str, int] = {}
        #: Calls to ``MetricsRegistry.increment`` inside ops.
        self.increments = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> None:
        self._stack.append(len(self.start))
        self.name.append(name_id)
        self.parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.start.append(perf_counter())

    def finish(self) -> None:
        self.end[self._stack.pop()] = perf_counter()

    @contextmanager
    def op_span(self) -> Iterator[None]:
        """Open one op: a root span that every layer span nests under."""
        self.op_id = self.ops
        self.ops += 1
        self.begin(self.name_id(ROOT))
        try:
            yield
        finally:
            self.finish()
            self.op_id = -1

    def segments(self, name_id: int, inner: Iterator[Any]) -> Iterator[Any]:
        """Re-yield ``inner``, timing each ``next()`` as one span."""
        try:
            while True:
                if self.op_id < 0:
                    item = next(inner, _DONE)
                else:
                    self.begin(name_id)
                    try:
                        item = next(inner, _DONE)
                    finally:
                        self.finish()
                if item is _DONE:
                    return
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    def reduce(self) -> Tuple[Dict[str, float], int]:
        """Self seconds per span name, and the number of ops that fail
        closure (a span outside its parent, or layer self times that do
        not add up to the root span's duration)."""
        count = len(self.start)
        self_time = [self.end[i] - self.start[i] for i in range(count)]
        bad_ops = set()
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                self_time[parent] -= self.end[i] - self.start[i]
                if self.start[i] < self.start[parent] or self.end[i] > self.end[parent]:
                    bad_ops.add(self.op[i])
        per_op: Dict[int, float] = {}
        root_duration: Dict[int, float] = {}
        by_name: Dict[str, float] = {}
        for i in range(count):
            name = self.names[self.name[i]]
            by_name[name] = by_name.get(name, 0.0) + self_time[i]
            per_op[self.op[i]] = per_op.get(self.op[i], 0.0) + self_time[i]
            if self.parent[i] < 0:
                root_duration[self.op[i]] = self.end[i] - self.start[i]
        for op, total in per_op.items():
            if abs(total - root_duration.get(op, float("inf"))) > CLOSURE_TOLERANCE_S:
                bad_ops.add(op)
        return by_name, len(bad_ops)

    def write(self, path: Path) -> None:
        """Write every span as tab-separated ``name start end parent op``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )


_DONE = object()


def _wrap(tracer: Tracer, layer: str, fn: Callable, amount: Optional[Amount]) -> Callable:
    name_id = tracer.name_id(layer)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if tracer.op_id < 0:
            return fn(*args, **kwargs)
        tracer.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish()
        if amount is not None:
            tracer.amounts[layer] = tracer.amounts.get(layer, 0) + amount(args, result)
        if isinstance(result, types.GeneratorType):
            return tracer.segments(name_id, result)
        return result

    return traced


def _counting(tracer: Tracer, fn: Callable) -> Callable:
    """Count registry increments inside ops, with no span: the registry
    sits under every layer and a span per increment would swamp them."""

    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        if tracer.op_id >= 0:
            tracer.increments += 1
        return fn(*args, **kwargs)

    return counted


class Patches:
    """Install every layer wrapper on entry; restore the originals on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, path = target.partition(":")
        module = sys.modules[module_name]
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(make(raw.__func__)))
            else:
                self._set(owner, attr, make(raw))
            return
        original = getattr(module, path)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapped)

    def __enter__(self) -> "Patches":
        import repro.common.metrics
        import repro.storage.kv  # noqa: F401  (loads every KV backend)
        import repro.temporal.engine  # noqa: F401  (loads every model)

        for layer, (targets, amount) in LAYERS.items():
            for target in targets:
                self._patch(
                    target,
                    lambda fn, layer=layer, amount=amount: _wrap(
                        self._tracer, layer, fn, amount
                    ),
                )
        self._set(
            repro.common.metrics.MetricsRegistry,
            "increment",
            _counting(
                self._tracer,
                repro.common.metrics.MetricsRegistry.__dict__["increment"],
            ),
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
