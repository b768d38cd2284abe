"""Fault-mid-scale-in suite, mirroring ``tests/defrag/test_executor.py``.

Two distinct transactional domains are exercised:

* the *shrink* itself -- one gated surrogate API call
  (``ostro.scale_in``) releasing every victim's reservations inside a
  state transaction; a fault there rolls the whole release back
  bit-exactly and re-raises;
* the optional *consolidation* pass -- one gated call
  (``defrag.migrate``) per migration step; a fault there aborts the
  pass transactionally while the already-committed shrink stays
  durable.

The permanent-fault sweeps over both domains (every gate, bit-exact
restore, one rollback report) are the ``scale_in`` and ``consolidate``
rows of ``tests/faults/test_rollback.py``; this module keeps the retry,
exhaustion and host-crash cases.
"""

from __future__ import annotations

import pytest

from repro.core.online import remove_vms_from_tier, tier_members
from repro.core.validate import conservation_violations
from repro.defrag import DefragConfig
from repro.errors import RetryError, TransientAPIError
from repro.faults import RetryPolicy
from tests.conftest import ScriptedInjector

APP = "web-fleet"
CONSOLIDATE = DefragConfig(algorithm="eg", max_moves_per_pass=16)

#: fragmented fixture, count=3: call 1 is the shrink's release gate,
#: calls 2..7 are the consolidation pass's six migration steps
N_CONSOLIDATION_STEPS = 6
TOTAL_CALLS = 1 + N_CONSOLIDATION_STEPS


class TestShrinkGateFault:
    def test_transient_fault_is_retried_to_success(
        self, fragmented_elastic_ostro
    ):
        ostro = fragmented_elastic_ostro
        injector = ScriptedInjector([1], error=TransientAPIError)
        ostro.injector = injector
        ostro.retry_policy = RetryPolicy(max_attempts=3)
        result = remove_vms_from_tier(ostro, APP, "vm", count=3)
        assert len(result.removed) == 3
        assert injector.calls == 2  # one failure, one successful retry
        assert ostro.verify_state() == []

    def test_exhausted_retries_leave_state_untouched(
        self, fragmented_elastic_ostro
    ):
        ostro = fragmented_elastic_ostro
        before = ostro.state.snapshot()
        ostro.injector = ScriptedInjector(
            [1, 2, 3], error=TransientAPIError
        )
        ostro.retry_policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with pytest.raises(RetryError):
            remove_vms_from_tier(ostro, APP, "vm", count=3)
        assert ostro.state.snapshot() == before
        assert len(tier_members(ostro.deployed(APP).topology, "vm")) == 8
        assert ostro.verify_state() == []


class TestFaultMidConsolidation:
    def test_transient_consolidation_faults_retry_to_completion(
        self, fragmented_elastic_ostro
    ):
        ostro = fragmented_elastic_ostro
        injector = ScriptedInjector([3, 5], error=TransientAPIError)
        ostro.injector = injector
        ostro.retry_policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        result = remove_vms_from_tier(
            ostro, APP, "vm", count=3, consolidate=CONSOLIDATE
        )
        assert result.consolidated
        assert result.consolidation_moves == N_CONSOLIDATION_STEPS
        assert injector.calls > TOTAL_CALLS  # retries happened
        assert ostro.verify_state() == []


class TestHostCrashMidConsolidation:
    @pytest.mark.parametrize(
        "fail_at", [0, 2, N_CONSOLIDATION_STEPS - 1]
    )
    def test_crash_aborts_pass_but_shrink_survives(
        self, fragmented_elastic_ostro, fail_at
    ):
        """A migration-target host crashing mid-consolidation aborts the
        pass before the in-flight step touches capacity; after repair
        the state equals the snapshot taken just before the crash, and
        the shrink remains applied throughout."""
        ostro = fragmented_elastic_ostro
        crashed = []
        captured = {}

        def hook(app, index, step):
            if index == fail_at and not crashed:
                captured["snapshot"] = ostro.state.snapshot()
                ostro.state.fail_host(step.to_host)
                crashed.append(step.to_host)

        result = remove_vms_from_tier(
            ostro,
            APP,
            "vm",
            count=3,
            consolidate=CONSOLIDATE,
            step_hook=hook,
        )
        assert len(result.removed) == 3
        assert not result.consolidated
        assert result.consolidation_moves == fail_at
        ostro.state.restore_host(crashed[0])
        assert ostro.state.snapshot() == captured["snapshot"]
        assert len(tier_members(ostro.deployed(APP).topology, "vm")) == 5
        assert conservation_violations(ostro) == []
        assert ostro.verify_state() == []
