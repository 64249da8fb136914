"""Ledger block storage: framed block records in append-only files.

Each block is stored as one block-file record (``length``, ``crc32``,
payload; see :mod:`repro.storage.blockfile`) whose payload is a *frame*
that keeps every transaction separately decodable::

    uvarint  tx_count
    uvarint  header_len
    uvarint  tx_len            (tx_count times)
    bytes    codec(header)     header_len bytes
    bytes    codec(tx_i)       tx_len bytes each, in block order

A GHFK step reads the whole record -- so the record's CRC still covers
every byte, including transactions it does not use -- and then decodes
only the one transaction its history location names
(:meth:`BlockStore.read_payloads` + :meth:`BlockStore.decode_transaction`),
the way Fabric fetches one transaction by its offset in the block.
:meth:`BlockStore.get_block` rebuilds a full :class:`Block` from the same
frame for chain verification, index rebuilds and audits.

Every block read bumps ``ledger.blocks_deserialized`` once and
``ledger.block_bytes_read`` by the payload size -- the quantities the
paper's entire analysis is expressed in.  A block touched by GHFK counts
as one deserialized block however many of its transactions are decoded.
By default there is **no cross-call block cache**: each GHFK call pays
its own block read, matching the paper's cost model (Section V).
An LRU cache can be switched on (``cache_blocks > 0``, or by injecting a
shared :class:`~repro.fabric.blockcache.BlockCache`) for the cache
ablation and for the parallel query executor, whose concurrent GHFK
scans of co-located keys then deserialize each block once.  The cache is
thread-safe and single-flight; reads are safe from any number of threads
(each read opens its own file handle).
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.common import metrics as metric_names
from repro.common.codec import Codec, get_codec, read_uvarint, write_uvarint
from repro.common.errors import (
    BlockFileError,
    BlockNotFoundError,
    CodecError,
    LedgerError,
)
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.block import Block
from repro.fabric.blockcache import BlockCache
from repro.faults.crashpoints import BLOCKSTORE_MID_ADD, crash_point
from repro.faults.fs import REAL_FS, FileSystem
from repro.storage.blockfile import BlockFileManager
from repro.storage.blockindex import BlockIndex

#: Per-store namespace tokens, so several stores can share one
#: process-wide :class:`BlockCache` without block-number collisions.
_STORE_TOKENS = itertools.count()


def _frame_bounds(payload: bytes) -> List[int]:
    """Offsets of the frame's parts: part ``i`` (0 = header, ``1 + n`` =
    transaction ``n``) is ``payload[bounds[i]:bounds[i + 1]]``.

    Raises :class:`CodecError` for a truncated or inconsistent frame.
    This runs once per GHFK entry, so the length table is parsed in one
    pass over its bytes rather than one :func:`read_uvarint` call each.
    """
    count, table_start = read_uvarint(payload, 0)
    if count >= len(payload):
        raise CodecError(
            f"block frame claims {count} transactions in {len(payload)} bytes"
        )
    bounds = [0] * (count + 2)
    part = total = value = shift = 0
    table_end = table_start
    for byte in payload[table_start : table_start + 10 * (count + 1)]:
        table_end += 1
        if byte & 0x80:
            value |= (byte & 0x7F) << shift
            shift += 7
            continue
        total += value | (byte << shift)
        part += 1
        bounds[part] = total
        if part == count + 1:
            break
        value = shift = 0
    else:
        raise CodecError("truncated block frame length table")
    if table_end + total != len(payload):
        raise CodecError(
            f"inconsistent block frame: parts end at {table_end + total}, "
            f"payload is {len(payload)} bytes"
        )
    return [bound + table_end for bound in bounds]


class BlockStore:
    """Append-only block storage with an on-disk location index.

    On open the index is reconciled against the block files, which are
    the source of truth: a torn blockfile tail truncates the index back
    to the intact records, an index that lags the files (crash between
    file append and index append) is extended by scanning the files, and
    a corrupt index is rebuilt from scratch the same way.
    """

    def __init__(
        self,
        path: str | Path,
        codec: str | Codec = "json",
        max_file_bytes: int = 4 * 1024 * 1024,
        metrics: MetricsRegistry = NULL_REGISTRY,
        cache_blocks: int = 0,
        durability: str = "flush",
        fs: FileSystem = REAL_FS,
        cache: Optional[BlockCache] = None,
        mmap_io: bool = False,
    ) -> None:
        if durability not in ("flush", "fsync"):
            raise ValueError(
                f"durability must be 'flush' or 'fsync', got {durability!r}"
            )
        path = Path(path)
        fsync = durability == "fsync"
        self._fs = fs
        self._files = BlockFileManager(
            path / "chains", max_file_bytes=max_file_bytes, fsync=fsync, fs=fs,
            mmap_io=mmap_io,
        )
        index_path = path / "index" / "blocks.idx"
        index_path.with_name(index_path.name + ".tmp").unlink(missing_ok=True)
        try:
            self._index = BlockIndex(index_path, fsync=fsync, fs=fs)
        except BlockFileError:
            # Corrupt index: it is derived data, rebuild it from the files.
            index_path.unlink(missing_ok=True)
            self._index = BlockIndex(index_path, fsync=fsync, fs=fs)
        self._codec = codec if isinstance(codec, Codec) else get_codec(codec)
        self._metrics = metrics
        if cache is None and cache_blocks:
            cache = BlockCache(cache_blocks, metrics=metrics)
        self._cache = cache
        self._cache_token = next(_STORE_TOKENS)
        self._meta_path = path / "index" / "meta.json"
        self._base_height = self._load_base_height()
        self._reconcile_index()

    def _reconcile_index(self) -> None:
        """Make the index agree with the block files after a crash."""
        if self._index.height:
            last = self._index.lookup(self._index.height - 1)
            assert last is not None
            scan = self._files.scan_records(last.file_num, last.offset)
            base = self._index.height - 1
        else:
            scan = self._files.scan_records(0, 0)
            base = 0
        count = 0
        try:
            for location, _payload in scan:
                position = base + count
                if position < self._index.height:
                    if self._index.lookup(position) != location:
                        self._rebuild_index()
                        return
                else:
                    self._index.append(location)
                count += 1
        except BlockFileError:
            # Mid-chain damage the scan cannot step over; reads of the
            # affected blocks will raise, but everything indexed before
            # the damage stays servable.
            return
        intact_height = base + count
        if intact_height < self._index.height:
            # Index got ahead of the files (torn blockfile tail).  Rebuild
            # from a full scan so every surviving entry is re-verified.
            self._rebuild_index()
            return
        self._index.sync()

    def _rebuild_index(self) -> None:
        """Rebuild the whole index from a full block-file scan."""
        self._index.truncate_to(0)
        for location, _payload in self._files.scan_records(0, 0):
            self._index.append(location)
        self._index.sync()

    def _load_base_height(self) -> int:
        self._base_hash = b""
        if not self._meta_path.exists():
            return 0
        import base64
        import json

        with open(self._meta_path) as handle:
            meta = json.load(handle)
        self._base_hash = base64.b64decode(meta.get("base_hash", ""))
        return int(meta.get("base_height", 0))

    def set_base_height(self, base_height: int, base_hash: bytes = b"") -> None:
        """Declare that this store begins at ``base_height`` (snapshot
        bootstrap): earlier blocks are not available here.  ``base_hash``
        is the header hash of block ``base_height - 1``, so the next
        committed block can be chain-verified."""
        if self._index.height:
            raise BlockNotFoundError(
                "cannot set a base height on a store that already has blocks"
            )
        if base_height < 0:
            raise BlockNotFoundError(f"invalid base height {base_height}")
        import base64
        import json

        self._base_height = base_height
        self._base_hash = base_hash
        self._meta_path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "base_height": base_height,
                "base_hash": base64.b64encode(base_hash).decode("ascii"),
            }
        ).encode("ascii")
        tmp_path = self._meta_path.with_name(self._meta_path.name + ".tmp")
        handle = self._fs.open(tmp_path, "wb")
        try:
            handle.write(payload)
            self._fs.fsync(handle)
        finally:
            handle.close()
        self._fs.replace(tmp_path, self._meta_path)

    @property
    def base_height(self) -> int:
        """First block number available in this store (0 unless the peer
        was bootstrapped from a snapshot)."""
        return self._base_height

    @property
    def base_hash(self) -> bytes:
        """Header hash of the last pre-snapshot block (empty when base 0)."""
        return self._base_hash

    @property
    def height(self) -> int:
        """Chain height (number of committed blocks, including any the
        snapshot pruned away)."""
        return self._base_height + self._index.height

    def add_block(self, block: Block) -> None:
        """Serialize and append ``block``; it must be the next in sequence."""
        if block.number != self.height:
            raise BlockNotFoundError(
                f"expected block {self.height}, got {block.number}"
            )
        raw = block.to_dict()
        parts = [self._codec.encode(raw["header"])]
        parts.extend(self._codec.encode(tx) for tx in raw["transactions"])
        frame = bytearray()
        write_uvarint(len(parts) - 1, frame)
        for part in parts:
            write_uvarint(len(part), frame)
        frame += b"".join(parts)
        location = self._files.append(bytes(frame))
        crash_point(BLOCKSTORE_MID_ADD)
        self._index.append(location)

    def get_block(self, block_number: int) -> Block:
        """Read and deserialize one block (counted, real file IO).

        With a cache configured, a hit serves the decoded block from the
        thread-safe LRU instead (hits/misses/evictions are counted
        separately; the deserialization counters are untouched so the
        paper's cost metric stays honest).  Concurrent readers of the
        same uncached block share one deserialization (single-flight),
        and a bad block number raises :class:`BlockNotFoundError`
        identically with and without the cache.
        """
        if self._cache is not None:
            block = self._cache.get_or_load(
                (self._cache_token, block_number),
                lambda: self._read_block(block_number),
            )
            assert isinstance(block, Block)
            return block
        return self._read_block(block_number)

    def _read_block(self, block_number: int) -> Block:
        """The uncached path: locate, read and decode one block."""
        return self._decode_block(self.read_payloads([block_number])[0])

    def _decode_block(self, payload: bytes) -> Block:
        """Rebuild a full :class:`Block` from its frame."""
        bounds = _frame_bounds(payload)
        decode = self._codec.decode
        return Block.from_dict(
            {
                "header": decode(payload[bounds[0] : bounds[1]]),
                "transactions": [
                    decode(payload[bounds[part] : bounds[part + 1]])
                    for part in range(1, len(bounds) - 1)
                ],
            }
        )

    @property
    def cached(self) -> bool:
        """Whether decoded blocks are served from a :class:`BlockCache`."""
        return self._cache is not None

    def read_payloads(self, block_numbers: Sequence[int]) -> List[bytes]:
        """Read the framed payload of each block, in input order.

        Every record is read whole and CRC-verified by the block-file
        layer.  Several blocks go to :meth:`BlockFileManager.read_many`,
        which coalesces same-file reads into one open handle -- N history
        fetches against one block file cost one open instead of N -- and
        count one ``ledger.block_batch_reads``.  Each block counts one
        ``ledger.blocks_deserialized`` and its payload size in
        ``ledger.block_bytes_read``, however much of it is decoded later:
        the batch changes IO shape, never the paper's cost metric.  The
        block cache is bypassed.
        """
        locations = []
        for number in block_numbers:
            if number < self._base_height:
                raise BlockNotFoundError(
                    f"block {number} predates this store's snapshot base "
                    f"({self._base_height})"
                )
            location = self._index.lookup(number - self._base_height)
            if location is None:
                raise BlockNotFoundError(
                    f"block {number} beyond height {self.height}"
                )
            locations.append(location)
        if len(locations) > 1:
            payloads = self._files.read_many(locations)
            self._metrics.increment(metric_names.BLOCK_BATCH_READS)
        else:
            payloads = [self._files.read(location) for location in locations]
        for payload in payloads:
            self._metrics.increment(metric_names.BLOCKS_DESERIALIZED)
            self._metrics.increment(metric_names.BLOCK_BYTES_READ, len(payload))
        return payloads

    def decode_transaction(self, payload: bytes, tx_num: int) -> Dict[str, Any]:
        """Decode transaction ``tx_num`` of a payload from
        :meth:`read_payloads`, leaving the block's other transactions
        undecoded.  Returns the :meth:`Transaction.to_dict` form.

        Raises :class:`CodecError` for a malformed frame and
        :class:`LedgerError` when the block has no transaction ``tx_num``.
        """
        bounds = _frame_bounds(payload)
        if not 0 <= tx_num < len(bounds) - 2:
            raise LedgerError(
                f"transaction {tx_num} out of range: the block holds "
                f"{len(bounds) - 2}"
            )
        return self._codec.decode(payload[bounds[tx_num + 1] : bounds[tx_num + 2]])

    def get_blocks(self, block_numbers: Sequence[int]) -> List[Block]:
        """Read several blocks in one batch.

        The uncached path reads every payload through
        :meth:`read_payloads` (one coalesced batch, counted exactly as N
        :meth:`get_block` calls plus one ``ledger.block_batch_reads``).
        With a cache configured the batch simply loops ``get_block`` so
        hit accounting and single-flight behaviour stay identical.
        """
        if self._cache is not None or len(block_numbers) <= 1:
            return [self.get_block(number) for number in block_numbers]
        return [self._decode_block(p) for p in self.read_payloads(block_numbers)]

    def iter_blocks(self, start: int = 0, end: Optional[int] = None) -> Iterator[Block]:
        """Yield blocks ``start .. end`` (``end`` exclusive, default height).

        Blocks before the snapshot base are silently absent (they do not
        exist on this peer).
        """
        stop = self.height if end is None else min(end, self.height)
        for number in range(max(start, self._base_height), stop):
            yield self.get_block(number)

    def total_bytes(self) -> int:
        """On-disk size of all block files (storage-cost reporting)."""
        return self._files.total_bytes()

    def sync(self) -> None:
        self._files.sync()
        self._index.sync()

    def close(self) -> None:
        self._files.close()
        self._index.close()
