"""Per-client quota policies: QPS caps, cohort-size caps, injection throttles.

The paper's threat model gives the attacker "only query access", but real
platforms bound even that: recommendation endpoints sit behind per-client
rate limits, and account registration (the injection pathway) is throttled
far more aggressively.  Related work (learning-to-generate shilling
attacks, knowledge-enhanced black-box attacks) treats these limits as part
of the attack surface; this module lets the reproduction express them.

``RateLimiter`` keeps one sliding window per ``(client, operation)`` pair.
The clock is injectable so tests and deterministic experiment replays can
drive logical time; by default wall-clock ``time.monotonic`` is used.
Admission and reset are thread-safe (one internal lock): under the
sharded deployment's threaded engine, concurrent client threads admit
against the coordinator's one limiter.  A limiter never crosses a
process boundary (admission happens before fan-out), though it
round-trips through ``pickle`` and ``copy.deepcopy`` like every serving
component.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, RateLimitExceededError

__all__ = ["QuotaPolicy", "RateLimiter", "UNLIMITED"]


@dataclass(frozen=True)
class QuotaPolicy:
    """Limits applied to one client class.

    ``None`` disables the corresponding limit.  ``window_seconds`` is the
    sliding-window length shared by the query and injection counters.
    """

    max_queries_per_window: int | None = None
    max_injections_per_window: int | None = None
    max_users_per_query: int | None = None
    max_total_injections: int | None = None
    window_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        for name in (
            "max_queries_per_window",
            "max_injections_per_window",
            "max_users_per_query",
            "max_total_injections",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive when set")

    @property
    def unlimited(self) -> bool:
        return (
            self.max_queries_per_window is None
            and self.max_injections_per_window is None
            and self.max_users_per_query is None
            and self.max_total_injections is None
        )


#: Policy with every limit disabled (the default serving posture).
UNLIMITED = QuotaPolicy()


class RateLimiter:
    """Sliding-window limiter with per-client policies.

    Parameters
    ----------
    default_policy:
        Policy applied to clients without an explicit entry.
    per_client:
        Overrides per client name; map a client to :data:`UNLIMITED` to
        exempt it (e.g. the evaluator's out-of-band measurements).
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        default_policy: QuotaPolicy = UNLIMITED,
        per_client: dict[str, QuotaPolicy] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.default_policy = default_policy
        self.per_client = dict(per_client or {})
        self._clock = clock
        self._lock = threading.Lock()
        self._query_windows: dict[str, deque[float]] = {}  # guarded-by: _lock
        self._injection_windows: dict[str, deque[float]] = {}  # guarded-by: _lock
        self._injection_totals: dict[str, int] = {}  # guarded-by: _lock
        self.n_denied_queries = 0  # guarded-by: _lock
        self.n_denied_injections = 0  # guarded-by: _lock

    def __getstate__(self) -> dict:
        """Pickle policies, windows, and counters; not the in-process lock.

        No limiter crosses a process boundary (the coordinator admits
        before fan-out), but like every serving component a limiter
        round-trips through ``pickle`` and ``copy.deepcopy`` with its
        windows and counters intact (``tests/test_pickling.py`` pins
        both); the lock is recreated fresh on load.  A caller-supplied
        closure ``clock`` would still fail to pickle — by design:
        deterministic fake clocks are single-process test instruments.
        """
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def policy_for(self, client: str) -> QuotaPolicy:
        return self.per_client.get(client, self.default_policy)

    def _admit(
        self, windows: dict[str, deque[float]], client: str, limit: int | None, window: float
    ) -> None:
        if limit is None:
            return
        now = self._clock()
        events = windows.setdefault(client, deque())
        while events and now - events[0] >= window:
            events.popleft()
        if len(events) >= limit:
            raise RateLimitExceededError(
                f"client {client!r} exceeded {limit} ops per {window:g}s window"
            )
        events.append(now)

    def admit_query(self, client: str, n_users: int) -> None:
        """Admit one top-k query for ``n_users`` users or raise."""
        policy = self.policy_for(client)
        with self._lock:
            if policy.max_users_per_query is not None and n_users > policy.max_users_per_query:
                self.n_denied_queries += 1
                raise RateLimitExceededError(
                    f"client {client!r} requested {n_users} users per query "
                    f"(cap {policy.max_users_per_query})"
                )
            try:
                self._admit(
                    self._query_windows,
                    client,
                    policy.max_queries_per_window,
                    policy.window_seconds,
                )
            except RateLimitExceededError:
                self.n_denied_queries += 1
                raise

    def admit_injection(self, client: str) -> None:
        """Admit one profile injection or raise."""
        policy = self.policy_for(client)
        with self._lock:
            total = self._injection_totals.get(client, 0)
            if policy.max_total_injections is not None and total >= policy.max_total_injections:
                self.n_denied_injections += 1
                raise RateLimitExceededError(
                    f"client {client!r} exhausted its "
                    f"{policy.max_total_injections}-injection quota"
                )
            try:
                self._admit(
                    self._injection_windows,
                    client,
                    policy.max_injections_per_window,
                    policy.window_seconds,
                )
            except RateLimitExceededError:
                self.n_denied_injections += 1
                raise
            self._injection_totals[client] = total + 1

    def reset(self) -> None:
        """Clear every window and counter (episode boundary helper)."""
        with self._lock:
            self._query_windows.clear()
            self._injection_windows.clear()
            self._injection_totals.clear()
            self.n_denied_queries = 0
            self.n_denied_injections = 0
