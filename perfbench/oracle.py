"""Correctness oracle, computed off-ledger from the generator's events.

Query rows are recomputed from the generated event stream with an
implementation that shares no code with ``repro.temporal.join``.  The
semantics are the paper's query Q over the events *inside* the window
``(s, e]``: a load/unload pair with both ends inside is the placement
``(load, unload]``; a load inside whose unload is not is open to ``e``;
an unload inside whose load is not opens at ``s``; a pair with neither
end inside contributes nothing.  A shipment rode a truck wherever its
placement in a container overlaps that container's placement on the
truck, over the intersection.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

Row = Tuple[str, str, str, int, int]
Pair = Tuple[int, int, str]


def _pairs(events: Iterable) -> Dict[str, List[Pair]]:
    """Per key: ``(load time, unload time, counterpart)`` in time order."""
    pairs: Dict[str, List[Pair]] = {}
    open_loads: Dict[str, Tuple[int, str]] = {}
    for event in events:
        if event.is_load:
            open_loads[event.key] = (event.time, event.other)
        else:
            load_time, other = open_loads.pop(event.key)
            if other != event.other:
                raise ValueError(f"unload of {event.key} does not match its load")
            pairs.setdefault(event.key, []).append((load_time, event.time, other))
    if open_loads:
        raise ValueError(f"loads without unloads: {sorted(open_loads)}")
    return pairs


class JoinOracle:
    """Expected join rows for any window, from one generated dataset."""

    def __init__(self, data) -> None:
        pairs = _pairs(data.events)
        shipments = set(data.shipments)
        self._shipment_pairs = {k: v for k, v in pairs.items() if k in shipments}
        self._container_pairs = {k: v for k, v in pairs.items() if k not in shipments}

    @staticmethod
    def _placements(pairs: List[Pair], start: int, end: int) -> List[Pair]:
        placed = []
        for load, unload, other in pairs:
            load_in = start < load <= end
            unload_in = start < unload <= end
            if load_in and unload_in:
                placed.append((load, unload, other))
            elif load_in and load < end:
                placed.append((load, end, other))
            elif unload_in:
                placed.append((start, unload, other))
        return placed

    def rows(self, start: int, end: int) -> List[Row]:
        """Sorted ``(shipment, truck, container, start, end)`` rows."""
        on_truck: Dict[str, List[Pair]] = {
            container: self._placements(pairs, start, end)
            for container, pairs in self._container_pairs.items()
        }
        rows: List[Row] = []
        for shipment, pairs in self._shipment_pairs.items():
            for s_start, s_end, container in self._placements(pairs, start, end):
                for c_start, c_end, truck in on_truck.get(container, ()):
                    lo, hi = max(s_start, c_start), min(s_end, c_end)
                    if hi > lo:
                        rows.append((shipment, truck, container, lo, hi))
        rows.sort()
        return rows


def as_rows(join_rows) -> List[Row]:
    """The program's ``JoinRow`` list in the oracle's tuple form."""
    return sorted(
        (r.shipment, r.truck, r.container, r.interval.start, r.interval.end)
        for r in join_rows
    )


def interval_keys(events: Iterable, u: int) -> Set[Tuple[str, int, int]]:
    """The ``(k, θ)`` set M2 ingestion must leave in state: each event's
    key with the ``(start, end]`` interval of length ``u`` holding it."""
    keys = set()
    for event in events:
        bucket = -(-event.time // u)  # ceil(t / u): t = k*u lands in bucket k
        keys.add((event.key, (bucket - 1) * u, bucket * u))
    return keys
