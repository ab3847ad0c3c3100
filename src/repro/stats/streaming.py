"""Chunked append-only float buffers for the measurement probes.

Long runs sample queue occupancy for minutes of simulated time;
materialising every sample as a Python list costs a ~32-byte boxed float
plus a list slot each.  :class:`ChunkedSeries` stores retained traces in
``array('d')`` chunks (8 bytes/sample).
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Sequence, Union

import numpy as np

__all__ = ["ChunkedSeries"]


class ChunkedSeries:
    """Append-only float series stored in ``array('d')`` chunks.

    A drop-in replacement for the measurement probes' ``List[float]``
    accumulators: supports ``append``, ``len``, indexing, iteration and
    ``==`` against any sequence, at 8 bytes per sample and without the
    multi-hundred-MB reallocation spikes of giant lists.  Bulk data
    arrives through :meth:`extend_numpy`; :meth:`to_numpy` exports the
    whole series, viewing sealed chunks zero-copy.
    """

    __slots__ = ("_chunks", "_tail", "_tail_append", "_len", "chunk_size")

    def __init__(self, chunk_size: int = 65536) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        #: Sealed chunks are never mutated again, which is what makes the
        #: zero-copy ``np.frombuffer`` views in :meth:`to_numpy` sound.
        self._chunks: List[array] = []
        self._tail = array("d")
        self._tail_append = self._tail.append
        self._len = 0

    def _seal_tail(self) -> None:
        if self._tail:
            self._chunks.append(self._tail)
            self._tail = array("d")
            self._tail_append = self._tail.append

    def append(self, value: float) -> None:
        self._tail_append(value)
        self._len += 1
        if len(self._tail) >= self.chunk_size:
            self._seal_tail()

    def extend_numpy(self, values: np.ndarray) -> None:
        """Append a block in one go (sealed as its own chunk)."""
        block = np.ascontiguousarray(values, dtype=float)
        if block.size == 0:
            return
        self._seal_tail()
        chunk = array("d")
        chunk.frombytes(block.tobytes())
        self._chunks.append(chunk)
        self._len += block.size

    def to_numpy(self) -> np.ndarray:
        """The full series as one float array.

        Sealed chunks are viewed in place; only the live tail is copied.
        """
        parts = [np.frombuffer(c, dtype=float) for c in self._chunks]
        if self._tail:
            parts.append(np.frombuffer(bytes(self._tail), dtype=float))
        if not parts:
            return np.empty(0)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator[float]:
        for chunk in self._chunks:
            yield from chunk
        yield from self._tail

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[float, np.ndarray]:
        if isinstance(index, slice):
            return self.to_numpy()[index]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("ChunkedSeries index out of range")
        for chunk in self._chunks:
            if index < len(chunk):
                return chunk[index]
            index -= len(chunk)
        return self._tail[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ChunkedSeries):
            if other is self:
                return True
            other = other.to_numpy()
        if isinstance(other, (Sequence, np.ndarray, array)):
            if len(other) != self._len:
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment] - mutable container

    def __repr__(self) -> str:
        preview = ", ".join(f"{x:g}" for _, x in zip(range(6), self))
        if self._len > 6:
            preview += ", ..."
        return f"ChunkedSeries([{preview}], len={self._len})"
