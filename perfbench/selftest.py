"""Self-test of the benchmark itself.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

It checks, for every workload:

* pinning: hostile ``REPRO_*`` values in the environment leave the
  per-op counts identical, because every config is passed explicitly;
* repeatability: the same seed gives identical per-op counts (blocks
  read, GHFK calls, block-file bytes, KV writes, bytes per event), and
  another seed changes them;
* trace closure and the predicted split: a traced run closes (layer self
  times add up to each op's duration), the decode stack is the largest
  self-time share on ``query``, ``ingest`` reads no blocks, and
  ``storage.kv.scan`` (M2's lsm ledger) is significant on ``query``
  and idle on ``ingest``;

and the paper's shapes from EXPERIMENTS.md: TQF blocks per query rise
with the window's end, and M1 makes one GHFK call per key and
overlapping index interval.  Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

HOSTILE = {
    "REPRO_QUERY_WORKERS": "4",
    "REPRO_COMMIT_WORKERS": "4",
    "REPRO_STATEDB": "btree",
    "REPRO_GHFK_PREFETCH": "8",
    "REPRO_SCALE": "0.5",
    "REPRO_ENTITY_SCALE": "0.9",
    "REPRO_SIG_ITERS": "200",
}
NAMED_COUNTS = (
    "blocks_read",
    "ghfk_calls",
    "blockfile_read_bytes",
    "kv_writes",
    "bytes_per_event",
)
DECODE_STACK = (
    "fabric.blockstore.self_ms",
    "storage.blockfile.read.self_ms",
    "common.codec.decode.self_ms",
    "fabric.block.from_dict.self_ms",
)
WORKLOADS = ("query", "ingest")


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def run(
    workload: str, seed: int, trace: int = 0, env: Optional[Dict[str, str]] = None
) -> Tuple[dict, dict]:
    """One deterministic run (a single measured round); returns the
    context line and the result line."""
    clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--rounds", "1",
        ],
        cwd=ROOT, env=clean | (env or {}), capture_output=True, text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        print(completed.stdout[-2000:], completed.stderr[-4000:])
        check(False, f"{workload} seed {seed} trace {trace} exits 0")
    lines = completed.stdout.splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def named(context: dict) -> list:
    return [context["counts"].get(name, 0) for name in NAMED_COUNTS]


def check_counts() -> None:
    for workload in WORKLOADS:
        clean, _ = run(workload, 7)
        hostile, _ = run(workload, 7, env=HOSTILE)
        again, _ = run(workload, 7)
        other, _ = run(workload, 8)
        check(
            hostile["counts"] == clean["counts"],
            f"{workload}: hostile REPRO_* values leave per-op counts identical",
        )
        check(
            again["counts"] == clean["counts"],
            f"{workload}: the same seed repeats every per-op count",
        )
        check(
            named(other) != named(clean),
            f"{workload}: another seed changes the named counts",
        )


def check_trace() -> None:
    shares = {}
    for workload in WORKLOADS:
        context, result = run(workload, 7, trace=1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        check(
            context["ops_failing_closure"] == 0,
            f"{workload}: every traced op closes within tolerance",
        )
        check(
            0 < metrics["bench.trace_overhead_ratio"] <= 1.25,
            f"{workload}: trace overhead ratio "
            f"{metrics['bench.trace_overhead_ratio']:.2f} is plausible",
        )
        total = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
        shares[workload] = {
            k: v / total for k, v in metrics.items() if k.endswith(".self_ms")
        }
        if workload == "ingest":
            check(
                metrics["fabric.blockstore.blocks_read"] == 0,
                "ingest reads zero blocks",
            )
    query = shares["query"]
    decode = sum(query[name] for name in DECODE_STACK)
    check(
        decode > max(v for k, v in query.items() if k not in DECODE_STACK),
        f"query: the decode stack ({decode:.0%}) is the largest self-time share",
    )
    scan = {w: shares[w]["storage.kv.scan.self_ms"] for w in WORKLOADS}
    check(
        scan["query"] >= 0.02 and scan["ingest"] < 0.01,
        "storage.kv.scan is significant on query and idle on ingest: "
        + ", ".join(f"{w} {share:.1%}" for w, share in scan.items()),
    )


def check_shapes() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.temporal.intervals import TimeInterval
    from workloads import make_bench

    workdir = ROOT / ".perfbench" / "work" / f"selftest-{os.getpid()}"
    try:
        bench = make_bench("query", 7, workdir)
        bench.setup()
        t_max = bench.config.t_max
        width = t_max // 15
        blocks = [
            bench.runners["tqf"].run_join(
                "tqf", TimeInterval(slot * width, (slot + 1) * width)
            ).stats.blocks_deserialized
            for slot in range(15)
        ]
        check(
            blocks == sorted(blocks) and blocks[-1] > blocks[0],
            f"TQF blocks per query rise with the window's end: {blocks}",
        )

        u = bench.u
        keys = bench.config.key_count
        for start, end in ((0, u), (u // 2, 7 * u + 1), (t_max // 3, t_max)):
            stats = bench.runners["m1"].run_join("m1", TimeInterval(start, end)).stats
            intervals = -(-end // u) - start // u
            check(
                stats.ghfk_calls == keys * intervals,
                f"M1 on ({start}, {end}]: {stats.ghfk_calls} GHFK calls = "
                f"{keys} keys x {intervals} overlapping intervals",
            )
        bench.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    check_shapes()
    check_counts()
    check_trace()
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
