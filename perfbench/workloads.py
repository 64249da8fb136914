"""The benchmark's workloads: set-up, the op stream and the closed loop.

Every workload is a closed loop with one client.  Inputs come only from
the seed: the DS1 event stream (``ds1(seed=...)``) and the query windows.
Windows are drawn in rounds of :data:`ROUND` ops per model stratified
over the timeline (one window per tenth, jittered), and a round's ops
from all models run in shuffled order, so every seed sees the same mix
of models and spread of window positions and a run's median does not
hinge on where a few uniform draws happened to land.  The program
receives explicit configs only; nothing is read from ``REPRO_*``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.runner import ExperimentRunner
from repro.common import metrics as metric_names
from repro.common.config import (
    BlockCuttingConfig,
    BlockStoreConfig,
    CommitConfig,
    FabricConfig,
    QueryConfig,
    StateDbConfig,
)
from repro.common.errors import TemporalQueryError
from repro.common.metrics import MetricsRegistry
from repro.fabric.block import VALID
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import M2SupplyChainChaincode
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import decode_interval_key
from repro.workload.datasets import ds1
from repro.workload.generator import WorkloadConfig, WorkloadData, generate

from oracle import JoinOracle, as_rows, interval_keys
from spans import Tracer

#: DS1 scaled so that the slowest workload (TQF) still completes well
#: over 100 ops in a run: 20 shipments, 5 containers, 1 truck, 60 events
#: per key, t_max = 4500.
SCALE = 0.03
ENTITY_SCALE = 0.05
#: Windows per model in one stratified round.
ROUND = 10
#: A timed run keeps going until it has this many ops, so at least ten
#: fall beyond its 90th percentile.
MIN_OPS = 100
#: Memtable limit of the lsm state-db, well below the ~1,000 (k, θ)
#: sub-keys M2 writes, so range scans merge several SSTables and ingest
#: flushes and compacts.
LSM_MEMTABLE = 128

#: Per-op counts read from the program's metrics registry.
COUNTERS = {
    "blocks_read": metric_names.BLOCKS_DESERIALIZED,
    "blockfile_read_bytes": metric_names.BLOCK_BYTES_READ,
    "ghfk_calls": metric_names.GHFK_CALLS,
    "ghfk_entries": metric_names.GHFK_RESULTS,
    "get_state_calls": metric_names.GET_STATE_CALLS,
    "range_scan_calls": metric_names.RANGE_SCAN_CALLS,
    "kv_writes": metric_names.KV_WRITES,
    "kv_wal_records": metric_names.WAL_RECORDS,
    "kv_sstable_reads": metric_names.KV_SSTABLE_READS,
    "kv_bloom_negatives": metric_names.KV_BLOOM_NEGATIVES,
    "kv_compactions": metric_names.KV_COMPACTIONS,
    "txs_committed": metric_names.TXS_COMMITTED,
    "txs_invalidated": metric_names.TXS_INVALIDATED,
}


@dataclass(frozen=True)
class Workload:
    """One workload; README.md and BENCHMARK.json say why each exists."""

    name: str
    #: Query models whose joins make up the op stream; empty for ingest.
    models: Tuple[str, ...]


@dataclass(frozen=True)
class Ledger:
    """One ledger of the query workload, built from the shared dataset."""

    #: ``plain`` keys, or ``m2`` interval-tagged keys.
    variant: str
    backend: str
    #: The models answered from this ledger; M1's index is built on it
    #: in set-up when ``m1`` is among them.
    models: Tuple[str, ...]


#: TQF and M1 read plain keys from the memory state-db (the working set
#: fits the program's own cache).  M2 reads (k, θ) keys from an lsm
#: state-db whose memtable holds far fewer entries than M2 writes, so its
#: range scans merge SSTables.
QUERY_LEDGERS = (
    Ledger("plain", "memory", ("tqf", "m1")),
    Ledger("m2", "lsm", ("m2",)),
)
#: State-db of the ingest workload's fresh ledgers.
INGEST_BACKEND = "lsm"

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("query", ("tqf", "m1", "m2")),
        Workload("ingest", ()),
    )
}


def dataset(seed: int) -> WorkloadConfig:
    return ds1(scale=SCALE, entity_scale=ENTITY_SCALE, seed=seed)


def fabric_config(backend: str) -> FabricConfig:
    """Every knob explicit, so no ``REPRO_*`` default reaches the program."""
    return FabricConfig(
        block_cutting=BlockCuttingConfig(
            max_message_count=10, max_batch_bytes=512 * 1024, batch_timeout=0
        ),
        state_db=StateDbConfig(
            backend=backend,
            memtable_limit=LSM_MEMTABLE if backend == "lsm" else 8192,
            compaction_trigger=6,
            compaction="full",
            durability="flush",
        ),
        block_store=BlockStoreConfig(
            max_file_bytes=4 * 1024 * 1024,
            codec="json",
            cache_blocks=0,
            durability="flush",
            mmap_io=False,
        ),
        query=QueryConfig(workers=1, ghfk_prefetch=1),
        commit=CommitConfig(workers=1, pipeline=False, footprint_path=""),
        channel="supply-chain",
        max_retries=0,
        retry_backoff_base=0.01,
        retry_backoff_cap=0.5,
        retry_backoff_jitter=0.0,
        retry_backoff_seed=0,
    )


def resolved_config(workload: Workload, seed: int) -> dict:
    data = dataset(seed)
    ledgers = QUERY_LEDGERS if workload.models else ()
    backends = [ledger.backend for ledger in ledgers] or [INGEST_BACKEND]
    return {
        "workload": dataclasses.asdict(workload),
        "ledgers": [dataclasses.asdict(ledger) for ledger in ledgers],
        "dataset": dataclasses.asdict(data),
        "fabric": {b: dataclasses.asdict(fabric_config(b)) for b in backends},
        "u": u_small(data.t_max),
        "round": ROUND,
        "min_ops": MIN_OPS,
    }


def u_small(t_max: int) -> int:
    """The paper's u = 2K at t_max = 150K."""
    return t_max // 75


def tree_bytes(path: Path) -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _dirs, files in os.walk(path)
        for name in files
    )


@dataclass
class Budget:
    """When a measured phase stops: after ``rounds`` whole rounds, or
    at the first round boundary past ``seconds`` with ``min_ops`` done."""

    seconds: float = 0.0
    rounds: Optional[int] = None
    min_ops: int = 0

    def done(self, elapsed: float, rounds: int, ops: int) -> bool:
        if self.rounds is not None:
            return rounds >= self.rounds
        return elapsed >= self.seconds and ops >= self.min_ops


@dataclass
class Phase:
    """What one measured phase did."""

    latencies: array = field(default_factory=lambda: array("d"))
    #: The same latencies split by query model.
    by_model: Dict[str, array] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    #: In-window events the queries returned (the GHFK useful work).
    events: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    #: Gateway resubmissions after MVCC conflicts (ingest only).
    retries: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _counter_delta(metrics: MetricsRegistry, before) -> Dict[str, int]:
    delta = metrics.snapshot().diff(before)
    return {name: delta.counter(metric) for name, metric in COUNTERS.items()}


class QueryBench:
    """The query workload: TQF, M1 and M2 joins over ledgers built from
    the seed's dataset (:data:`QUERY_LEDGERS`)."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.config = dataset(seed)
        self.u = u_small(self.config.t_max)
        #: Model -> the runner whose ledger answers it.
        self.runners: Dict[str, ExperimentRunner] = {}
        self._open: List[Tuple[ExperimentRunner, Path]] = []
        self.index_s = 0.0
        self.bytes_per_event = 0.0
        self._setups = 0
        self._rng = random.Random(f"windows-{seed}")
        self._oracle: Optional[JoinOracle] = None

    def setup(self) -> float:
        """Generate the dataset, ingest it into every query ledger and
        build M1's index; return the seconds taken.

        The previous ledgers are closed and their on-disk size recorded
        (the size repeats exactly for one seed)."""
        self.close()
        began = perf_counter()
        data = generate(self.config)
        for ledger in QUERY_LEDGERS:
            path = self.workdir / f"ledger-{self._setups}-{ledger.variant}"
            runner = ExperimentRunner.build(
                data,
                ledger.variant,
                m2_u=self.u if ledger.variant == "m2" else None,
                path=path,
                fabric_config=fabric_config(ledger.backend),
            )
            self._open.append((runner, path))
            runner.ingest()
            if "m1" in ledger.models:
                self.index_s = runner.build_m1_index(u=self.u).seconds
            self.runners.update((model, runner) for model in ledger.models)
        seconds = perf_counter() - began
        self._setups += 1
        if self._oracle is None:
            self._oracle = JoinOracle(data)
        return seconds

    def _model_windows(self, model: str) -> List[TimeInterval]:
        """ROUND windows for one model, stratified over the timeline."""
        t_max, rng = self.config.t_max, self._rng
        cells = [(i + rng.random()) / ROUND for i in range(ROUND)]
        if model == "m1":
            widths = [self.u + int(c * (t_max // 3 - self.u)) for c in cells]
            spots = [(i + rng.random()) / ROUND for i in range(ROUND)]
            rng.shuffle(spots)
            windows = []
            for width, spot in zip(widths, spots):
                start = int(spot * (t_max - width))
                windows.append(TimeInterval(start, start + width))
            return windows
        width = t_max // 15
        return [
            TimeInterval(start, start + width)
            for start in (int(c * (t_max - width)) for c in cells)
        ]

    def _round(self) -> List[Tuple[str, TimeInterval]]:
        """One round: ROUND windows per model, in shuffled order."""
        ops = [
            (model, window)
            for model in self.workload.models
            for window in self._model_windows(model)
        ]
        self._rng.shuffle(ops)
        return ops

    def run(self, budget: Budget, tracer: Optional[Tracer] = None) -> Phase:
        assert self.runners and self._oracle is not None
        oracle = self._oracle
        runners = list(dict.fromkeys(self.runners.values()))
        phase = Phase(by_model={model: array("d") for model in self.workload.models})
        before = [runner.network.metrics.snapshot() for runner in runners]
        rounds = 0
        checking = 0.0
        started = perf_counter()
        while not budget.done(perf_counter() - started, rounds, phase.attempted):
            for model, window in self._round():
                runner = self.runners[model]
                phase.attempted += 1
                began = perf_counter()
                try:
                    if tracer is None:
                        result = runner.run_join(model, window)
                    else:
                        with tracer.op_span():
                            result = runner.run_join(model, window)
                except Exception as exc:  # an op that raises is a failed op
                    phase.fail(f"{model} {window}: {type(exc).__name__}: {exc}")
                    continue
                ended = perf_counter()
                phase.latencies.append(ended - began)
                phase.by_model[model].append(ended - began)
                phase.events += result.stats.events_fetched
                # The oracle's time is taken out of the loop's.
                if as_rows(result.rows) != oracle.rows(window.start, window.end):
                    phase.fail(f"{model} {window}: rows differ from the oracle")
                checking += perf_counter() - ended
            rounds += 1
        phase.elapsed = perf_counter() - started - checking
        for runner, snapshot in zip(runners, before):
            for name, value in _counter_delta(runner.network.metrics, snapshot).items():
                phase.counters[name] = phase.counters.get(name, 0) + value
        return phase

    def close(self) -> None:
        if not self._open:
            return
        size = 0
        for runner, path in self._open:
            runner.close()
            size += tree_bytes(path)
            shutil.rmtree(path, ignore_errors=True)
        self.bytes_per_event = size / len(self._open[0][0].data.events)
        self._open.clear()
        self.runners.clear()


class IngestBench:
    """SE ingest of the seed's events into fresh ledgers, one per round.

    One op is one transaction.  Its latency runs from
    ``submit_transaction`` to the commit of its block, seen through
    ``FabricNetwork.on_block``.  Each round ends with the oracle: the
    chain verifies, every transaction is VALID, and the committed state
    keys are exactly the generated ``(k, θ)`` set.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.config = dataset(seed)
        self.u = u_small(self.config.t_max)
        self.metrics = MetricsRegistry()
        self.index_s = 0.0
        self.bytes_per_event = 0.0
        self._data: Optional[WorkloadData] = None
        self._expected: set = set()
        self._ledgers = 0

    def _open(self) -> Tuple[FabricNetwork, Path]:
        path = self.workdir / f"ledger-{self._ledgers}"
        self._ledgers += 1
        network = FabricNetwork(
            path, config=fabric_config(INGEST_BACKEND), metrics=self.metrics
        )
        network.install(M2SupplyChainChaincode(u=self.u))
        return network, path

    def setup(self) -> float:
        """Generate the events and open a fresh ledger (ingest itself is
        the measured op)."""
        began = perf_counter()
        self._data = generate(self.config)
        network, path = self._open()
        network.close()
        seconds = perf_counter() - began
        shutil.rmtree(path, ignore_errors=True)
        self._expected = interval_keys(self._data.events, self.u)
        return seconds

    def _round(self, phase: Phase, tracer: Optional[Tracer]) -> None:
        assert self._data is not None
        network, path = self._open()
        before = self.metrics.snapshot()
        try:
            committed: Dict[str, Tuple[float, str]] = {}

            def on_block(block) -> None:
                now = perf_counter()
                for tx in block.transactions:
                    committed[tx.tx_id] = (now, tx.validation_code)

            network.on_block(on_block)
            gateway = network.gateway("ingestor")
            name = M2SupplyChainChaincode.name
            events = self._data.events
            submitted: List[Tuple[str, float]] = []
            started = perf_counter()
            for position, event in enumerate(events):
                phase.attempted += 1
                began = perf_counter()
                try:
                    if tracer is None:
                        result = _submit(gateway, name, event)
                    else:
                        with tracer.op_span():
                            result = _submit(gateway, name, event)
                            if position == len(events) - 1:
                                gateway.flush()
                except Exception as exc:  # an op that raises is a failed op
                    phase.fail(f"tx at t={event.time}: {type(exc).__name__}: {exc}")
                    continue
                submitted.append((result.tx_id, began))
            gateway.flush()
            phase.elapsed += perf_counter() - started
            phase.retries += gateway.retries_attempted
            # Counted before the checks, which read every block back.
            for counter, value in _counter_delta(self.metrics, before).items():
                phase.counters[counter] = phase.counters.get(counter, 0) + value

            for tx_id, began in submitted:
                outcome = committed.get(tx_id)
                if outcome is None or outcome[1] != VALID:
                    phase.fail(f"tx {tx_id} not committed VALID: {outcome}")
                else:
                    phase.latencies.append(outcome[0] - began)
            self._check(network, phase)
        finally:
            network.close()
        self.bytes_per_event = tree_bytes(path) / len(self._data.events)
        shutil.rmtree(path, ignore_errors=True)

    def _check(self, network: FabricNetwork, phase: Phase) -> None:
        try:
            network.ledger.verify_chain()
        except Exception as exc:  # a broken chain fails the round
            phase.fail(f"verify_chain: {type(exc).__name__}: {exc}")
        state = set()
        for composite, _value in network.ledger.get_state_by_range("", ""):
            try:
                key, interval = decode_interval_key(composite)
            except TemporalQueryError:
                phase.fail(f"state key {composite!r} is not a (k, θ) key")
                continue
            state.add((key, interval.start, interval.end))
        if state != self._expected:
            phase.fail(
                f"state keys differ from the generated (k, θ) set: "
                f"{len(state - self._expected)} extra, "
                f"{len(self._expected - state)} missing"
            )

    def run(self, budget: Budget, tracer: Optional[Tracer] = None) -> Phase:
        phase = Phase()
        rounds = 0
        started = perf_counter()
        while not budget.done(perf_counter() - started, rounds, phase.attempted):
            self._round(phase, tracer)
            rounds += 1
        phase.counters["gateway_retries"] = phase.retries
        return phase

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _submit(gateway, chaincode: str, event):
    """One SE transaction: the arguments ``repro.workload.ingest`` sends."""
    return gateway.submit_transaction(
        chaincode,
        "record_event",
        [event.key, event.other, event.time, event.kind],
        timestamp=event.time,
    )


def make_bench(name: str, seed: int, workdir: Path):
    workload = WORKLOADS[name]
    factory: Callable = QueryBench if workload.models else IngestBench
    return factory(workload, seed, workdir)
