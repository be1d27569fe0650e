"""In-flight result registry.

When several concurrent queries share computation, the paper's recycler
stalls all but one until the producer either finishes materializing the
shared result or decides not to materialize it (Section V).  This
registry tracks which graph nodes currently have a producing query and
provides the real synchronization: :meth:`wait_for` blocks the calling
thread on a condition variable until the producer releases the node —
from the store-completion callback (result admitted to the cache), a
speculation abort, or the producer query's finalize/abandon.

Cancellation: a blocked consumer cannot be interrupted from its own
thread, so :meth:`cancel` marks its token dead — :meth:`wait_for`
returns immediately for a cancelled token, and :meth:`register`
*refuses* it.  Without the refusal, abandoning a waiting consumer whose
producer already finalized would leave a stale entry: the woken
consumer would plant store registrations its (never-run) finalize could
never release, wedging every later query that matches those nodes.

Ownership: ``release`` only removes a registration when the caller is
its owner.  First-registration-wins means a query that *lost* the race
must not inject a store at all (``StorePlanner`` checks the verdict);
owner-checked release is the backstop that keeps a late or duplicated
completion callback from evicting a live producer's registration.

The virtual-time stream simulator keeps using the registry purely as a
producer directory (``producer_of``) to schedule stalls in virtual time;
real sessions (:mod:`repro.session`) block for real.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from .graph import GraphNode

#: cancelled tokens remembered (FIFO-bounded); tokens are per-query
#: unique, so the bound only guards against pathological churn.
MAX_CANCELLED_TOKENS = 4096


class InFlightRegistry:
    """graph node -> opaque producer token (e.g. a query/stream id)."""

    def __init__(self) -> None:
        self._producers: dict[GraphNode, object] = {}
        self._cancelled: OrderedDict[object, None] = OrderedDict()
        self._cond = threading.Condition(threading.Lock())

    def register(self, node: GraphNode, token: object) -> bool:
        """Register ``token`` as the producer of ``node``.  The first
        registration wins; returns True when ``token`` is now (or already
        was) the registered producer.  A cancelled token is refused."""
        with self._cond:
            if token in self._cancelled:
                return False
            current = self._producers.setdefault(node, token)
            return current == token

    def release(self, node: GraphNode, token: object = None) -> bool:
        """Release ``node``; with a ``token`` only the owner's
        registration is removed.  Returns True when an entry was
        dropped."""
        with self._cond:
            current = self._producers.get(node)
            if current is None:
                return False
            if token is not None and current != token:
                return False
            del self._producers[node]
            self._cond.notify_all()
            return True

    def producer_of(self, node: GraphNode) -> object | None:
        with self._cond:
            return self._producers.get(node)

    def producers(self) -> list[tuple[GraphNode, object]]:
        """Every ``(node, producer token)`` registration right now."""
        with self._cond:
            return list(self._producers.items())

    def active_nodes(self) -> set[int]:
        """Ids of every node currently being produced — the pin set for
        graph truncation (an in-flight node must survive maintenance)."""
        with self._cond:
            return {node.node_id for node in self._producers}

    def release_all(self, token: object) -> list[int]:
        """Drop every registration owned by ``token`` (query finished or
        aborted); returns the released node ids."""
        with self._cond:
            return self._drop(token, wake=False)

    def _drop(self, token: object, wake: bool) -> list[int]:
        """Drop ``token``'s registrations (caller holds the condition);
        returns the released node ids.  Waiters are woken when a
        registration went, or when ``wake`` says their condition
        changed otherwise (a token just cancelled) — not to re-check a
        registry nothing changed in."""
        released = [node for node, t in self._producers.items()
                    if t == token]
        for node in released:
            del self._producers[node]
        if released or wake:
            self._cond.notify_all()
        return [node.node_id for node in released]

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, token: object) -> list[int]:
        """Mark ``token`` dead: wake it if it is waiting, drop its
        registrations, and refuse any registration it attempts later.

        This is how a *waiting consumer* is abandoned (e.g. pool
        shutdown mid-query): the consumer may be blocked in
        :meth:`wait_for` on a producer that already finalized — by the
        time the cancel lands it is planning stores, and only the
        cancelled-token check keeps those registrations out."""
        with self._cond:
            marked = token not in self._cancelled
            if marked:
                self._cancelled[token] = None
                while len(self._cancelled) > MAX_CANCELLED_TOKENS:
                    self._cancelled.popitem(last=False)
            return self._drop(token, wake=marked)

    def is_cancelled(self, token: object) -> bool:
        with self._cond:
            return token in self._cancelled

    # ------------------------------------------------------------------
    def wait_for(self, node: GraphNode, token: object,
                 timeout: float | None = None) -> float:
        """Block until ``node`` has no producer other than ``token``.

        This is the paper's "the recycler stalls all but one": the caller
        must hold no recycler locks (the producer needs them to complete
        its store).  Returns the seconds actually waited; on ``timeout``
        expiry or cancellation of ``token`` it returns without the
        producer having released (callers then simply recompute instead
        of reusing).
        """
        started = time.monotonic()
        deadline = None if timeout is None else started + timeout
        with self._cond:
            while True:
                producer = self._producers.get(node)
                if producer is None or producer == token:
                    return time.monotonic() - started
                if token in self._cancelled:
                    return time.monotonic() - started
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return time.monotonic() - started
                self._cond.wait(remaining)

    def __len__(self) -> int:
        with self._cond:
            return len(self._producers)
