"""Framed block records: GHFK decodes one transaction per step.

The block store writes each block as a frame (transaction count, part
lengths, then the codec-encoded header and each codec-encoded
transaction).  These tests pin the contract of that change:

* GHFK entries are identical to those derived from full block decodes,
  for every codec, with the block cache off and on, and at every
  prefetch depth;
* ``ledger.blocks_deserialized`` / ``ledger.block_bytes_read`` still
  count one per distinct block touched;
* a reopened ledger verifies its chain and rebuilds the same history;
* integrity: the record CRC still covers transactions GHFK does not
  decode, a malformed frame is a typed error, and a history location
  that does not write its key is a :class:`LedgerError`.
"""

from __future__ import annotations

import pytest

from repro.common import metrics as metric_names
from repro.common.codec import get_codec, write_uvarint
from repro.common.config import BlockCuttingConfig, BlockStoreConfig, FabricConfig
from repro.common.errors import BlockFileError, CodecError, LedgerError
from repro.common.metrics import MetricsRegistry
from repro.fabric.block import (
    GENESIS_PREVIOUS_HASH,
    MVCC_READ_CONFLICT,
    VALID,
    Block,
    BlockHeader,
    RWSet,
    Transaction,
)
from repro.fabric.blockstore import BlockStore
from repro.fabric.chaincode import KeyValueChaincode
from repro.fabric.historydb import HistoryDB, HistoryEntry
from repro.fabric.network import FabricNetwork

CODECS = ("json", "binary", "compact")
KEYS = ("alpha", "beta", "gamma", "delta")


def make_tx(tx_id, writes, timestamp, deletes=(), code=VALID):
    rw_set = RWSet()
    rw_set.add_read("alpha", (0, 0))
    for key, value in writes.items():
        rw_set.add_write(key, value)
    for key in deletes:
        rw_set.add_delete(key)
    tx = Transaction(
        tx_id=tx_id, chaincode="cc", creator="c", timestamp=timestamp,
        rw_set=rw_set, signature=b"\x00sig" + tx_id.encode(),
    )
    tx.validation_code = code
    return tx


def make_blocks():
    """Eight blocks of one to four transactions: values of every codec
    type, deletes, two writes to one key in one block, an invalid tx."""
    blocks, previous, clock = [], GENESIS_PREVIOUS_HASH, 0
    for number in range(8):
        txs = []
        for slot in range(1 + number % 4):
            clock += 1
            key = KEYS[(number + slot) % len(KEYS)]
            value = {
                "n": clock, "raw": bytes([number, slot]), "f": clock / 7,
                "tags": ["x", None, True], "neg": -clock,
            }
            deletes = ("delta",) if (number, slot) == (5, 0) else ()
            code = MVCC_READ_CONFLICT if (number, slot) == (3, 1) else VALID
            txs.append(
                make_tx(f"tx{number}.{slot}", {key: value}, clock, deletes, code)
            )
        if number == 6:
            clock += 1
            txs.append(make_tx("tx6.dup", {"alpha": "again"}, clock))
        header = BlockHeader(number, previous, Block.compute_data_hash(txs))
        blocks.append(Block(header, txs))
        previous = header.hash()
    return blocks


def write_store(path, codec):
    store = BlockStore(path, codec=codec)
    history = HistoryDB()
    for block in make_blocks():
        store.add_block(block)
        history.index_block(block)
    store.close()
    return history


def expected_entries(store, history, key):
    """History entries derived from full :meth:`BlockStore.get_block` decodes."""
    entries = []
    for block_num, tx_num in history.locations_for_key(key):
        tx = store.get_block(block_num).transactions[tx_num]
        write = tx.rw_set.writes[key]
        entries.append(
            HistoryEntry(
                key=key, value=write.value, is_delete=write.is_delete,
                timestamp=tx.timestamp, block_num=block_num, tx_num=tx_num,
                tx_id=tx.tx_id,
            )
        )
    return entries


def counters(metrics):
    return (
        metrics.counter(metric_names.BLOCKS_DESERIALIZED),
        metrics.counter(metric_names.BLOCK_BYTES_READ),
    )


@pytest.mark.parametrize("prefetch", [1, 4])
@pytest.mark.parametrize("cache_blocks", [0, 16])
@pytest.mark.parametrize("codec", CODECS)
def test_ghfk_matches_full_block_decodes(tmp_path, codec, cache_blocks, prefetch):
    history = write_store(tmp_path, codec)
    reference = MetricsRegistry()
    with_full = BlockStore(tmp_path, codec=codec, metrics=reference)
    for key in KEYS:
        expected = expected_entries(with_full, history, key)
        assert expected, key
        distinct = sorted({entry.block_num for entry in expected})
        before = counters(reference)
        with_full.get_blocks(distinct)
        full_blocks, full_bytes = (
            after - start for after, start in zip(counters(reference), before)
        )
        assert full_blocks == len(distinct)

        # A fresh store per key: with the cache on, every touched block
        # is a miss, so both configurations count the same blocks.
        metrics = MetricsRegistry()
        store = BlockStore(
            tmp_path, codec=codec, metrics=metrics, cache_blocks=cache_blocks
        )
        got = list(history.get_history_for_key(key, store, prefetch=prefetch))
        store.close()
        assert got == expected
        assert counters(metrics) == (len(distinct), full_bytes)
    with_full.close()


@pytest.mark.parametrize("codec", CODECS)
def test_reopened_ledger_verifies_and_rebuilds_the_same_history(tmp_path, codec):
    config = FabricConfig(
        block_store=BlockStoreConfig(codec=codec),
        block_cutting=BlockCuttingConfig(max_message_count=3),
    )
    network = FabricNetwork(tmp_path, config=config)
    network.install(KeyValueChaincode())
    gateway = network.gateway("writer")
    for step in range(20):
        key = f"k{step % 5}"
        if step % 7 == 6:
            gateway.submit_transaction("kv", "delete", [key], timestamp=step + 1)
        else:
            value = {"step": step, "blob": bytes([step])}
            gateway.submit_transaction("kv", "put", [key, value], timestamp=step + 1)
    gateway.flush()
    live = {key: network.ledger.history_db.locations_for_key(key)
            for key in (f"k{i}" for i in range(5))}
    live_rows = {key: list(network.ledger.get_history_for_key(key)) for key in live}
    head = network.ledger.last_header_hash
    fingerprint = network.ledger.state_fingerprint()
    network.close()

    reopened = FabricNetwork(tmp_path, config=config)
    ledger = reopened.ledger
    try:
        ledger.verify_chain()
        assert ledger.last_header_hash == head
        assert ledger.state_fingerprint() == fingerprint
        rebuilt = HistoryDB()
        rebuilt.rebuild(ledger.block_store)
        for key, locations in live.items():
            assert locations
            assert rebuilt.locations_for_key(key) == locations
            assert list(ledger.get_history_for_key(key)) == live_rows[key]
    finally:
        reopened.close()


class TestIntegrity:
    @pytest.fixture
    def store(self, tmp_path):
        write_store(tmp_path, "json")
        store = BlockStore(tmp_path)
        yield store
        store.close()

    def test_flip_in_an_unreferenced_transaction_fails_the_crc(self, tmp_path):
        history = write_store(tmp_path, "json")
        # Block 3 holds tx3.0..tx3.3; "delta" is written by tx3.0 only,
        # so its GHFK never decodes tx3.3.
        referenced = [loc for loc in history.locations_for_key("delta") if loc[0] == 3]
        assert referenced == [(3, 0)]
        chain = next((tmp_path / "chains").glob("blockfile_*"))
        data = bytearray(chain.read_bytes())
        position = data.find(b'"tx3.3"')
        assert position > 0
        data[position + 2] ^= 0x01
        chain.write_bytes(bytes(data))
        store = BlockStore(tmp_path)
        try:
            with pytest.raises(BlockFileError):
                list(history.get_history_for_key("delta", store))
        finally:
            store.close()

    @pytest.mark.parametrize(
        "frame",
        [
            b"\x80",  # truncated count varint
            b"\x01\x05",  # one transaction, its length missing
            b"\x01\x02\x02{}",  # parts claim 4 bytes, 2 present
            b"\x00\x02{}junk",  # trailing bytes after the last part
            b"\x7f" + b"\x00" * 4,  # count larger than the payload
        ],
    )
    def test_malformed_frame_is_a_typed_error(self, store, frame):
        with pytest.raises(CodecError):
            store.decode_transaction(frame, 0)

    def test_tx_number_out_of_range_is_a_ledger_error(self, store):
        (payload,) = store.read_payloads([0])
        with pytest.raises(LedgerError):
            store.decode_transaction(payload, 1)
        with pytest.raises(LedgerError):
            store.decode_transaction(payload, -1)

    def test_frame_parts_decode_independently(self, store):
        (payload,) = store.read_payloads([6])
        block = store.get_block(6)
        for tx_num, tx in enumerate(block.transactions):
            assert store.decode_transaction(payload, tx_num) == tx.to_dict()

    def test_truncated_record_on_disk_is_a_block_file_error(self, tmp_path):
        write_store(tmp_path, "binary")
        chain = next((tmp_path / "chains").glob("blockfile_*"))
        store = BlockStore(tmp_path)
        try:
            chain.write_bytes(chain.read_bytes()[:-5])
            with pytest.raises(BlockFileError):
                store.read_payloads([7])
        finally:
            store.close()

    @pytest.mark.parametrize("cache_blocks", [0, 4])
    @pytest.mark.parametrize("prefetch", [1, 4])
    def test_location_not_writing_the_key_is_a_ledger_error(
        self, tmp_path, cache_blocks, prefetch
    ):
        write_store(tmp_path, "json")
        store = BlockStore(tmp_path, cache_blocks=cache_blocks)
        try:
            # The stored block 0 holds one transaction, which writes
            # "alpha".  Indexing a forged block 0 instead yields locations
            # that claim it wrote "beta", and name a tenth tx for "gamma".
            forged = [make_tx("f", {"beta": 1}, 1)] + [
                make_tx(f"f{n}", {"gamma": n} if n == 9 else {}, 1)
                for n in range(1, 10)
            ]
            bogus = HistoryDB()
            bogus.index_block(Block(make_blocks()[0].header, forged))
            assert bogus.locations_for_key("gamma") == [(0, 9)]
            for key in ("beta", "gamma"):
                with pytest.raises(LedgerError):
                    list(bogus.get_history_for_key(key, store, prefetch=prefetch))
        finally:
            store.close()


def test_frame_layout_is_count_then_lengths_then_parts(tmp_path):
    """The documented layout, byte for byte, for one two-transaction block."""
    block = make_blocks()[1]
    store = BlockStore(tmp_path, codec="binary")
    store.add_block(make_blocks()[0])
    store.add_block(block)
    (payload,) = store.read_payloads([1])
    store.close()
    codec = get_codec("binary")
    codec_parts = [codec.encode(block.header.to_dict())] + [
        codec.encode(tx.to_dict()) for tx in block.transactions
    ]
    expected = bytearray()
    write_uvarint(len(block.transactions), expected)
    for part in codec_parts:
        write_uvarint(len(part), expected)
    expected += b"".join(codec_parts)
    assert payload == bytes(expected)
