"""Append-only ledger block files with size-based rollover.

The Fabric peer stores serialized blocks back to back in numbered files
(``blockfile_000000``, ``blockfile_000001``, ...), rolling to a new file
when the current one passes a size threshold.  Reading a block means
seeking to its recorded offset and reading its payload -- the actual disk
IO whose cost the paper's query models are designed to avoid.

Each stored record is ``length:u32  crc32:u32`` followed by the payload,
so torn tails *and* silent payload corruption are detected independently
of the index.  :meth:`BlockFileManager.scan_records` walks records
forward from any offset, which is how the block store rebuilds a missing
or torn block index straight from the files.

The manager is shared between the committer thread (appending) and query
worker threads (reading), so every access to the append handle and the
current-file number goes through one lock: the reader-side visibility
flush used to call ``flush()`` on the shared handle with no lock at all,
racing the committer's ``write()`` mid-append.  Reads themselves stay
outside the lock -- each opens its own handle (or consults a per-file
memory map for sealed files when ``mmap_io`` is on), so block IO never
serializes behind the committer.
"""

from __future__ import annotations

import mmap
import struct
import warnings
import zlib
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import BlockFileError
from repro.common.locks import make_rlock
from repro.faults.fs import REAL_FS, FileSystem
from repro.sanitizer.shared import sanitize_shared
from repro.storage.blockindex import BlockLocation

_HEADER = struct.Struct("<II")
_FILE_PREFIX = "blockfile_"


def _parse_file_num(file: Path) -> Optional[int]:
    """Numeric suffix of a block file name, or ``None`` for a foreign
    entry (``blockfile_backup``, editor droppings...) that merely shares
    the prefix."""
    suffix = file.name[len(_FILE_PREFIX) :]
    if not suffix.isdigit():
        return None
    return int(suffix)


@sanitize_shared("_writer", "_current_num")
class BlockFileManager:
    """Manages the directory of append-only block files."""

    def __init__(
        self,
        path: str | Path,
        max_file_bytes: int = 4 * 1024 * 1024,
        fsync: bool = False,
        fs: FileSystem = REAL_FS,
        mmap_io: bool = False,
    ) -> None:
        if max_file_bytes <= 0:
            raise ValueError(f"max_file_bytes must be positive, got {max_file_bytes}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._max_file_bytes = max_file_bytes
        self._fs = fs
        self._fsync = fsync
        #: Serializes every touch of the shared append handle and the
        #: current-file number (committer appends vs reader flushes).
        self._lock = make_rlock("BlockFileManager._lock")
        self._mmap_io = bool(mmap_io) and getattr(fs, "supports_mmap", False)
        #: Sealed-file maps, built lazily per file (only files *below*
        #: the current one are mapped -- the append file still grows).
        self._maps: Dict[int, mmap.mmap] = {}
        #: File number -> path, so a read does not format a new path.
        self._paths: Dict[int, Path] = {}
        self._current_num = self._latest_file_num()
        self._writer = fs.open(self._file_path(self._current_num), "ab")

    def _latest_file_num(self) -> int:
        """Highest *numeric* block file number present (0 when none).

        Parses the suffix instead of trusting lexicographic order --
        ``blockfile_1000000`` sorts before ``blockfile_999999`` as a
        string -- and skips (with a warning) foreign entries that would
        previously have crashed the open with ``ValueError``.
        """
        latest = 0
        for file in self.path.glob(f"{_FILE_PREFIX}*"):
            file_num = _parse_file_num(file)
            if file_num is None:
                warnings.warn(
                    f"ignoring foreign entry {file.name!r} in block file "
                    f"directory {self.path}",
                    stacklevel=2,
                )
                continue
            latest = max(latest, file_num)
        return latest

    def _file_path(self, file_num: int) -> Path:
        file_path = self._paths.get(file_num)
        if file_path is None:
            file_path = self.path / f"{_FILE_PREFIX}{file_num:06d}"
            self._paths[file_num] = file_path
        return file_path

    def append(self, payload: bytes) -> BlockLocation:
        """Append one serialized block; returns its location."""
        if not payload:
            raise BlockFileError("refusing to append an empty block payload")
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        with self._lock:
            if self._writer.tell() >= self._max_file_bytes:
                self._roll_over()
            offset = self._writer.tell()
            self._writer.write(_HEADER.pack(len(payload), crc))
            self._writer.write(payload)
            return BlockLocation(
                file_num=self._current_num, offset=offset, length=len(payload)
            )

    def _roll_over(self) -> None:
        with self._lock:
            self._writer.flush()
            self._writer.close()
            self._current_num += 1
            self._writer = self._fs.open(self._file_path(self._current_num), "ab")

    def _flush_for_read(self, file_num: int) -> None:
        """Make appended-but-buffered data visible before reading the
        *current* file.  Must hold the lock: the committer may be midway
        through the two writes of one record on the same handle."""
        with self._lock:
            if file_num == self._current_num:
                self._writer.flush()

    def _sealed_map(self, file_num: int) -> Optional[mmap.mmap]:
        """The cached memory map for a *sealed* file, or ``None`` when
        mapping does not apply (mmap off, or the file is still growing)."""
        if not self._mmap_io:
            return None
        with self._lock:
            if file_num >= self._current_num:
                return None
            cached = self._maps.get(file_num)
            if cached is not None:
                return cached
            file_path = self._file_path(file_num)
            try:
                with open(file_path, "rb") as handle:
                    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:
                raise BlockFileError(
                    f"cannot map block file {file_path.name}: {exc}"
                ) from exc
            self._maps[file_num] = mapped
            return mapped

    def _read_mapped(self, mapped: mmap.mmap, location: BlockLocation) -> bytes:
        """Decode and verify one record from a sealed file's map."""
        name = self._file_path(location.file_num).name
        if location.offset + _HEADER.size > len(mapped):
            raise BlockFileError(
                f"truncated block header at {name}:{location.offset}"
            )
        length, crc = _HEADER.unpack_from(mapped, location.offset)
        if length != location.length:
            raise BlockFileError(
                f"length mismatch at {name}:{location.offset}: "
                f"index says {location.length}, file says {length}"
            )
        start = location.offset + _HEADER.size
        payload = bytes(mapped[start : start + length])
        if len(payload) != length:
            raise BlockFileError(
                f"truncated block payload at {name}:{location.offset}"
            )
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise BlockFileError(
                f"block payload checksum mismatch at {name}:{location.offset}"
            )
        return payload

    def _read_with_handle(
        self, handle: IO[bytes], file_path: Path, location: BlockLocation
    ) -> bytes:
        """Seek/read/verify one record on an already-open read handle."""
        try:
            handle.seek(location.offset)
            header = handle.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise BlockFileError(
                    f"truncated block header at {file_path.name}:{location.offset}"
                )
            length, crc = _HEADER.unpack(header)
            if length != location.length:
                raise BlockFileError(
                    f"length mismatch at {file_path.name}:{location.offset}: "
                    f"index says {location.length}, file says {length}"
                )
            payload = handle.read(length)
        except OSError as exc:
            # Injected or genuine read fault (EIO): typed, never a
            # silently wrong block.
            raise BlockFileError(
                f"read failed at {file_path.name}:{location.offset}: {exc}"
            ) from exc
        if len(payload) != length:
            raise BlockFileError(
                f"truncated block payload at {file_path.name}:{location.offset}"
            )
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise BlockFileError(
                f"block payload checksum mismatch at "
                f"{file_path.name}:{location.offset}"
            )
        return payload

    def read(self, location: BlockLocation) -> bytes:
        """Read the serialized block payload at ``location``.

        This is a real file open/seek/read (or a sealed-file map
        consultation under ``mmap_io``) so block retrieval has genuine IO
        cost, as on a Fabric peer.  The payload is verified against the
        record's CRC32 so a flipped byte surfaces as
        :class:`BlockFileError`, never a silently wrong block.
        """
        mapped = self._sealed_map(location.file_num)
        if mapped is not None:
            return self._read_mapped(mapped, location)
        file_path = self._file_path(location.file_num)
        # The write handle buffers; make appended data visible to readers.
        self._flush_for_read(location.file_num)
        handle = None
        try:
            handle = self._fs.open(file_path, "rb")
            return self._read_with_handle(handle, file_path, location)
        except FileNotFoundError as exc:
            raise BlockFileError(
                f"block file {file_path.name} does not exist"
            ) from exc
        except OSError as exc:
            raise BlockFileError(
                f"read failed at {file_path.name}:{location.offset}: {exc}"
            ) from exc
        finally:
            if handle is not None:
                handle.close()

    def read_many(self, locations: Sequence[BlockLocation]) -> List[bytes]:
        """Read several payloads, coalescing same-file work.

        Locations in the same file share one open handle (or one sealed
        map) and are visited in offset order, so a batch of N history
        reads against one block file costs one open instead of N.
        Results come back in input order; every record is CRC-verified
        exactly as :meth:`read` would.
        """
        results: List[Optional[bytes]] = [None] * len(locations)
        by_file: Dict[int, List[int]] = {}
        for position, location in enumerate(locations):
            by_file.setdefault(location.file_num, []).append(position)
        for file_num in sorted(by_file):
            positions = sorted(
                by_file[file_num], key=lambda p: locations[p].offset
            )
            mapped = self._sealed_map(file_num)
            if mapped is not None:
                for position in positions:
                    results[position] = self._read_mapped(
                        mapped, locations[position]
                    )
                continue
            file_path = self._file_path(file_num)
            self._flush_for_read(file_num)
            handle = None
            try:
                handle = self._fs.open(file_path, "rb")
                for position in positions:
                    results[position] = self._read_with_handle(
                        handle, file_path, locations[position]
                    )
            except FileNotFoundError as exc:
                raise BlockFileError(
                    f"block file {file_path.name} does not exist"
                ) from exc
            except OSError as exc:
                raise BlockFileError(
                    f"read failed in {file_path.name}: {exc}"
                ) from exc
            finally:
                if handle is not None:
                    handle.close()
        # Every slot was filled or an exception escaped above.
        assert all(payload is not None for payload in results)
        return [payload for payload in results if payload is not None]

    # -- recovery ---------------------------------------------------------

    def scan_records(
        self, file_num: int = 0, offset: int = 0
    ) -> Iterator[Tuple[BlockLocation, bytes]]:
        """Walk intact records forward from ``(file_num, offset)``.

        Yields ``(location, payload)`` for every record whose header and
        checksum verify.  A torn or corrupt record *at the tail of the
        last file* ends the scan cleanly (crash-truncation semantics);
        the same damage with data after it raises :class:`BlockFileError`
        because bytes beyond the corruption cannot be trusted.
        """
        with self._lock:
            self._writer.flush()
            last_file_num = self._current_num
        while True:
            file_path = self._file_path(file_num)
            if not file_path.exists():
                return
            data = file_path.read_bytes()
            is_last_file = file_num == last_file_num
            while offset < len(data):
                tail_ok = is_last_file  # only the live tail may be torn
                if offset + _HEADER.size > len(data):
                    if tail_ok:
                        return
                    raise BlockFileError(
                        f"torn record header mid-chain at "
                        f"{file_path.name}:{offset}"
                    )
                length, crc = _HEADER.unpack_from(data, offset)
                end = offset + _HEADER.size + length
                if end > len(data):
                    if tail_ok:
                        return
                    raise BlockFileError(
                        f"torn record payload mid-chain at "
                        f"{file_path.name}:{offset}"
                    )
                payload = data[offset + _HEADER.size : end]
                if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                    if tail_ok and end == len(data):
                        return  # corrupt final record: crash-torn tail
                    raise BlockFileError(
                        f"record checksum mismatch at {file_path.name}:{offset}"
                    )
                yield (
                    BlockLocation(file_num=file_num, offset=offset, length=length),
                    payload,
                )
                offset = end
            if is_last_file:
                return
            file_num += 1
            offset = 0

    def truncate_tail(self, location: BlockLocation) -> None:
        """Cut the *last* block file back so ``location`` is its next
        append position (drops a torn record left by a crash)."""
        with self._lock:
            if location.file_num != self._current_num:
                raise BlockFileError(
                    f"refusing to truncate non-tail file {location.file_num}"
                )
            self._writer.flush()
            self._writer.close()
            file_path = self._file_path(location.file_num)
            # "r+" passes through the seam untouched (only write/append
            # modes are buffered) but still hits the dead-filesystem check.
            with self._fs.open(file_path, "r+b") as handle:
                handle.truncate(location.offset)
            self._writer = self._fs.open(file_path, "ab")

    def file_size(self, file_num: int) -> int:
        """Current byte size of one block file (0 when absent)."""
        self._flush_for_read(file_num)
        file_path = self._file_path(file_num)
        return file_path.stat().st_size if file_path.exists() else 0

    def sync(self) -> None:
        with self._lock:
            if self._fsync:
                self._fs.fsync(self._writer)
            else:
                self._writer.flush()

    def close(self) -> None:
        with self._lock:
            if not self._writer.closed:
                self._writer.flush()
                self._writer.close()
            for mapped in self._maps.values():
                mapped.close()
            self._maps.clear()

    @property
    def current_file_num(self) -> int:
        with self._lock:
            return self._current_num

    def total_bytes(self) -> int:
        """Total bytes across all block files (for storage-cost reporting)."""
        return sum(
            f.stat().st_size
            for f in self.path.glob(f"{_FILE_PREFIX}*")
            if _parse_file_num(f) is not None
        )
