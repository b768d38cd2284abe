"""Retry with exponential backoff and deterministic seeded jitter.

:func:`retry_call` is the single retry primitive for every surrogate API
call in the stack (Heat orchestration calls into Nova/Cinder, Ostro's
commit path). Semantics:

* Only :class:`~repro.errors.TransientAPIError` is retried.
  :class:`~repro.errors.PermanentAPIError` -- and every other error --
  propagates unchanged on the first occurrence.
* Backoff is exponential (``base_delay_s * backoff_factor**(attempt-1)``)
  with multiplicative jitter drawn from the policy's own seeded RNG, so
  a fixed policy seed yields the same delay sequence on every run.
* The policy carries a total *time budget*: when the accumulated backoff
  would exceed ``timeout_budget_s``, retrying stops early.
* Exhaustion (attempts or budget) raises
  :class:`~repro.errors.RetryError` chained from the last transient
  error, with the attempt count and total backoff attached.

By default delays are **virtual**: they are accounted and reported but
nobody sleeps, keeping chaos runs fast and free of wall-clock reads (the
determinism rules OST001/OST002 apply -- see docs/STATIC_ANALYSIS.md).
Pass ``sleep=time.sleep`` to a policy to wait for real.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, TypeVar

from repro import obs
from repro.errors import DataCenterError, RetryError, TransientAPIError

T = TypeVar("T")


class RetryPolicy:
    """Deterministic retry/backoff configuration.

    Args:
        max_attempts: total tries including the first (>= 1).
        base_delay_s: backoff before the second attempt.
        backoff_factor: multiplier applied per subsequent attempt.
        jitter: each delay is scaled by ``1 + jitter * u`` with ``u``
            uniform in [-1, 1] from the seeded RNG; 0 disables jitter.
        timeout_budget_s: cap on the *total* backoff delay across all
            retries of one call; exceeding it raises RetryError.
        seed: seeds the jitter RNG.
        sleep: called with each delay in seconds; None (the default)
            makes delays virtual -- accounted but not slept.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay_s: float = 0.05,
        backoff_factor: float = 2.0,
        jitter: float = 0.5,
        timeout_budget_s: float = 30.0,
        seed: int = 0,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if max_attempts < 1:
            raise DataCenterError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if base_delay_s < 0 or backoff_factor < 1.0:
            raise DataCenterError(
                "base_delay_s must be >= 0 and backoff_factor >= 1"
            )
        if not 0.0 <= jitter <= 1.0:
            raise DataCenterError(f"jitter must be within [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.backoff_factor = backoff_factor
        self.jitter = jitter
        self.timeout_budget_s = timeout_budget_s
        self.seed = seed
        self.sleep = sleep
        self._rng = random.Random(seed)

    def next_delay_s(self, attempt: int) -> float:
        """Jittered backoff delay after a failed attempt (1-based)."""
        delay = self.base_delay_s * self.backoff_factor ** (attempt - 1)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay


def retry_call(
    policy: Optional[RetryPolicy],
    fn: Callable[[], T],
    service: str = "unknown",
    method: str = "call",
) -> T:
    """Invoke ``fn`` under the policy; see the module docstring.

    Args:
        policy: retry configuration (owns the jitter RNG); ``None``
            means no retrying -- ``fn`` runs once and its error, if any,
            propagates -- so call sites with an optional policy do not
            branch on it.
        fn: zero-argument callable performing the API call.
        service: label for telemetry and error messages ("nova", ...).
        method: label for telemetry and error messages.

    Returns:
        ``fn()``'s return value from the first successful attempt.

    Raises:
        RetryError: when the attempt or time budget is exhausted; the
            last :class:`TransientAPIError` is chained as ``__cause__``.
    """
    if policy is None:
        return fn()
    rec = obs.get_recorder()
    total_backoff_s = 0.0
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except TransientAPIError as exc:
            exhausted_reason = None
            delay_s = 0.0
            if attempt >= policy.max_attempts:
                exhausted_reason = (
                    f"gave up after {attempt} attempts"
                )
            else:
                delay_s = policy.next_delay_s(attempt)
                if total_backoff_s + delay_s > policy.timeout_budget_s:
                    exhausted_reason = (
                        f"backoff budget {policy.timeout_budget_s}s exhausted "
                        f"after {attempt} attempts"
                    )
            if exhausted_reason is not None:
                if rec.enabled:
                    rec.inc(
                        "ostro_retries_exhausted_total",
                        service=service,
                        method=method,
                    )
                    rec.event(
                        "retries_exhausted",
                        service=service,
                        method=method,
                        attempts=attempt,
                    )
                raise RetryError(
                    f"{service}.{method}: {exhausted_reason}",
                    attempts=attempt,
                    backoff_s=total_backoff_s,
                ) from exc
            total_backoff_s += delay_s
            if rec.enabled:
                rec.inc(
                    "ostro_api_retries_total", service=service, method=method
                )
                rec.inc("ostro_retry_backoff_seconds_total", delay_s)
                rec.event(
                    "retry",
                    service=service,
                    method=method,
                    attempt=attempt,
                    delay_s=delay_s,
                )
            if policy.sleep is not None:
                policy.sleep(delay_s)
