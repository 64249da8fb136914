"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the same loop untraced, then traced, and prints
the per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the resolved config, host and per-op counts.  The exit
code is 0 only when every op passed the oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Run outputs (ledger directories, span files); listed in .gitignore.
OUT = ROOT / ".perfbench"
#: A timed run sets up at least SETUPS times and for at least
#: SETUP_SECONDS in total; ``setup_s`` is the median set-up.
SETUPS = 5
SETUP_SECONDS = 1.0


def git_commit() -> str:
    """HEAD's commit from ``.git`` without running git ("unknown" when the
    checkout is not a repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def per_op(phase, name: str) -> float:
    return phase.counters.get(name, 0) / max(1, phase.attempted)


def ops_per_s(phase) -> float:
    return phase.attempted / phase.elapsed


def timed_run(bench, args) -> dict:
    from workloads import MIN_OPS, Budget

    setups = [bench.setup()]
    while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
        setups.append(bench.setup())
    warmup = bench.run(Budget(rounds=1))
    budget = (
        Budget(rounds=args.rounds)
        if args.rounds
        else Budget(seconds=args.seconds, min_ops=MIN_OPS)
    )
    phase = bench.run(budget)
    bench.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies_ms = [s * 1000 for s in phase.latencies]
    attempted = warmup.attempted + phase.attempted
    failed = warmup.failed + phase.failed
    return {
        "phases": (warmup, phase),
        "attempted": attempted,
        "failed": failed,
        "counts": {name: per_op(phase, name) for name in phase.counters}
        | {"bytes_per_event": bench.bytes_per_event},
        "info": {
            "ops": phase.attempted,
            "beyond_p90": len(latencies_ms) - math.ceil(0.9 * len(latencies_ms)),
            "setups_s": setups,
        },
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(ops_per_s(phase), "ops/s"),
            "op_p50_ms": metric(statistics.median(latencies_ms), "ms"),
            "op_p90_ms": metric(percentile(latencies_ms, 0.9), "ms"),
            "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "bytes_per_event": metric(bench.bytes_per_event, "B/event"),
        },
    }


def traced_run(bench, args) -> dict:
    from spans import Patches, Tracer
    from workloads import Budget

    bench.setup()
    warmup = bench.run(Budget(rounds=1))

    def budget():
        if args.rounds:
            return Budget(rounds=args.rounds)
        return Budget(seconds=args.seconds / 2)

    plain = bench.run(budget())
    tracer = Tracer()
    with Patches(tracer):
        traced = bench.run(budget(), tracer)
    self_s, unclosed = tracer.reduce()
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    bench.close()

    ops = max(1, traced.attempted)

    def self_ms(layer: str) -> Dict[str, object]:
        return metric(self_s.get(layer, 0.0) * 1000 / ops, "ms")

    def count(name: str) -> Dict[str, object]:
        return metric(per_op(traced, name), "count")

    def ratio(numerator: float, denominator: float) -> Dict[str, object]:
        return metric(numerator / denominator if denominator else 0.0, "ratio")

    def model_p50_ms(model: str) -> Dict[str, object]:
        # From the untraced phase: what one model's joins cost a user.
        latencies = plain.by_model.get(model)
        return metric(statistics.median(latencies) * 1000 if latencies else 0.0, "ms")

    c = traced.counters
    committed = c["txs_committed"] + c["txs_invalidated"]
    metrics = {
        "fabric.blockstore.blocks_read": count("blocks_read"),
        "fabric.blockstore.self_ms": self_ms("fabric.blockstore"),
        "storage.blockfile.read.bytes": metric(per_op(traced, "blockfile_read_bytes"), "B"),
        "storage.blockfile.read.self_ms": self_ms("storage.blockfile.read"),
        "common.codec.decode.self_ms": self_ms("common.codec.decode"),
        "fabric.block.from_dict.self_ms": self_ms("fabric.block.from_dict"),
        "fabric.block.tx_use_ratio": ratio(
            c["ghfk_entries"], tracer.amounts.get("fabric.block.from_dict", 0)
        ),
        "fabric.ghfk.calls": count("ghfk_calls"),
        "fabric.ghfk.self_ms": self_ms("fabric.ghfk"),
        "fabric.ghfk.entries": count("ghfk_entries"),
        "fabric.ghfk.useful_ratio": ratio(traced.events, c["ghfk_entries"]),
        "temporal.list_keys.self_ms": self_ms("temporal.list_keys"),
        "temporal.fetch_events.self_ms": self_ms("temporal.fetch_events"),
        "temporal.intervals.self_ms": self_ms("temporal.intervals"),
        "temporal.keys.self_ms": self_ms("temporal.keys"),
        "temporal.join.self_ms": self_ms("temporal.join"),
        "temporal.join.rows": metric(tracer.amounts.get("temporal.join", 0) / ops, "count"),
        "temporal.m1.index_s": metric(bench.index_s, "s"),
        "temporal.tqf.op_p50_ms": model_p50_ms("tqf"),
        "temporal.m1.op_p50_ms": model_p50_ms("m1"),
        "temporal.m2.op_p50_ms": model_p50_ms("m2"),
        "fabric.get_state.calls": count("get_state_calls"),
        "fabric.range_scan.calls": count("range_scan_calls"),
        "fabric.statedb.self_ms": self_ms("fabric.statedb"),
        "storage.kv.scan.self_ms": self_ms("storage.kv.scan"),
        "storage.kv.get.self_ms": self_ms("storage.kv.get"),
        "storage.kv.put.self_ms": self_ms("storage.kv.put"),
        "storage.kv.sstable_reads": count("kv_sstable_reads"),
        "storage.kv.bloom_negatives": count("kv_bloom_negatives"),
        "storage.kv.writes": count("kv_writes"),
        "storage.kv.wal_records": count("kv_wal_records"),
        "storage.kv.compactions": metric(c["kv_compactions"], "count"),
        "fabric.gateway.submit.self_ms": self_ms("fabric.gateway.submit"),
        "fabric.gateway.retries": count("gateway_retries"),
        "fabric.endorser.endorse.self_ms": self_ms("fabric.endorser.endorse"),
        "fabric.orderer.cut.self_ms": self_ms("fabric.orderer.cut"),
        "fabric.ledger.commit_block.self_ms": self_ms("fabric.ledger.commit_block"),
        "fabric.validator.validate.self_ms": self_ms("fabric.validator.validate"),
        "fabric.validator.invalid_ratio": ratio(c["txs_invalidated"], committed),
        "fabric.blockstore.add_block.self_ms": self_ms("fabric.blockstore.add_block"),
        "fabric.block.to_dict.self_ms": self_ms("fabric.block.to_dict"),
        "common.codec.encode.self_ms": self_ms("common.codec.encode"),
        "storage.blockfile.append.self_ms": self_ms("storage.blockfile.append"),
        "storage.blockfile.write.bytes": metric(
            tracer.amounts.get("storage.blockfile.append", 0) / ops, "B"
        ),
        "fabric.blockstore.sync.self_ms": self_ms("fabric.blockstore.sync"),
        "fabric.blockstore.syncs": metric(
            tracer.amounts.get("fabric.blockstore.sync", 0) / ops, "count"
        ),
        "fabric.historydb.index_block.self_ms": self_ms("fabric.historydb.index_block"),
        "fabric.statedb.apply_write.self_ms": self_ms("fabric.statedb.apply_write"),
        "common.metrics.increments": metric(tracer.increments / ops, "count"),
        "bench.op.self_ms": self_ms("bench.op"),
        "bench.trace_overhead_ratio": metric(ops_per_s(traced) / ops_per_s(plain), "ratio"),
    }
    phases = (warmup, plain, traced)
    return {
        "phases": phases,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases) + unclosed,
        "counts": {name: per_op(traced, name) for name in traced.counters},
        "info": {
            "ops_untraced": plain.attempted,
            "ops_traced": traced.attempted,
            "spans": len(tracer.start),
            "ops_failing_closure": unclosed,
        },
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds", type=int, default=0,
        help="measure this many whole rounds instead of --seconds "
        "(deterministic op count, for the self-test)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Read per call and only from the environment, so pin it here: the
    # default HMAC signature cost, whatever the caller exported.
    os.environ["REPRO_SIG_ITERS"] = "0"

    from workloads import WORKLOADS, make_bench, resolved_config

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = make_bench(args.workload, args.seed, workdir)
    try:
        if args.trace:
            result = traced_run(bench, args)
        else:
            result = timed_run(bench, args)
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for phase in result["phases"]:
        for error in phase.errors:
            print(f"perfbench: failed op: {error}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": resolved_config(WORKLOADS[args.workload], args.seed),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "counts": result["counts"],
        **result["info"],
    }
    print(json.dumps({"context": context}))
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
