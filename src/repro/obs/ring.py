"""The one bounded history: the newest ``capacity`` items, numbered.

The query log's records and its kept dumps and the span recorder's
roots are each a :class:`Ring`. An append is O(1) under one lock and
numbers the item with its sequence, so under concurrent writers the kept
items are exactly the newest ``capacity``, with no tearing; ``total``
counts appends and ``dropped`` the items pushed out by newer ones.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Generic, TypeVar

__all__ = ["Ring"]

T = TypeVar("T")


class Ring(Generic[T]):
    """A lock-guarded, sequence-numbered ring of the newest items."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._items: deque[T] = deque(maxlen=capacity)  # guarded-by: _lock
        self._total = 0  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock

    def add(self, make: Callable[[int], T]) -> T:
        """Append ``make(sequence)``, built under the lock so sequence
        order is ring order; returns the item."""
        with self._lock:
            item = make(self._total)
            self._total += 1
            self._dropped += len(self._items) == self.capacity
            self._items.append(item)
        return item

    def append(self, item: T) -> T:
        return self.add(lambda _: item)

    def items(self) -> list[T]:
        """The kept items, oldest first."""
        with self._lock:
            return list(self._items)

    def clear(self) -> None:
        """Forget everything, counts included: sequences restart at 0."""
        with self._lock:
            self._items.clear()
            self._total = self._dropped = 0

    @property
    def total(self) -> int:
        with self._lock:
            return self._total

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
