"""Event queue of the pre-kernel simulator (:mod:`oracles.legacy_sim`)."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

__all__ = ["EventQueue", "ORDER_DELIVER", "ORDER_BUS", "ORDER_DISPATCH"]


#: Event ordering classes at equal timestamps: deliveries and completions
#: settle first, then bus slot actions, then process dispatches — so a
#: message arriving exactly at a slot start rides that slot and a TT
#: process dispatched exactly at a message's arrival time sees the message
#: (both boundary conventions match the analysis).
ORDER_DELIVER = 0
ORDER_BUS = 1
ORDER_DISPATCH = 2


class EventQueue:
    """A time-ordered queue of callbacks.

    Ties are broken by an explicit ordering class and then by insertion
    order, which makes runs deterministic — important because the
    simulator is used in property-based tests that compare traces against
    analysis bounds.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(
        self, time: float, callback: Callable[[], None], order: int = ORDER_DELIVER
    ) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now - 1e-9:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        heapq.heappush(self._heap, (time, order, next(self._counter), callback))

    def run_until(self, horizon: float) -> None:
        """Process events in order until the queue drains or ``horizon``."""
        while self._heap and self._heap[0][0] <= horizon + 1e-9:
            time, _order, _seq, callback = heapq.heappop(self._heap)
            self.now = max(self.now, time)
            callback()
        self.now = max(self.now, horizon)

    def empty(self) -> bool:
        """True when no events remain."""
        return not self._heap
