"""Span self-time arithmetic and the wrapper installer."""

import pytest

import repro.core.astar as astar
import repro.core.candidates as candidates
import repro.core.greedy as greedy
from benchmarks.ledger import layers, spans
from repro.core.astar import BAStar
from repro.core.base import PlacementAlgorithm
from repro.core.kernel import StateView
from repro.core.objective import Objective


def test_self_time_is_duration_minus_direct_children():
    # root 0..10; child A 1..4 with grandchild 2..3; child B 5..9
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    own = spans.self_times(parent, start, end)
    assert own == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0]
    # self times partition the root's wall exactly
    assert sum(own) == pytest.approx(10.0)


def test_totals_by_label_aggregates_calls_self_and_inclusive():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "layer.a:inner", None)
    outer = tracer.wrap(lambda: (inner(), inner()), "layer.b:outer", None)
    tracer.begin_op()
    outer()
    wall = tracer.end_op()
    totals = spans.totals_by_label(tracer)
    assert totals["layer.a:inner"].calls == 2
    assert totals["layer.b:outer"].calls == 1
    assert totals[spans.OP_LABEL].calls == 1
    assert totals["layer.b:outer"].inclusive_s >= totals["layer.a:inner"].inclusive_s
    assert sum(t.self_s for t in totals.values()) == pytest.approx(wall)
    assert spans.count_children(tracer, "layer.a:inner", "layer.b:outer") == 2
    assert spans.count_children(tracer, "layer.a:inner", spans.OP_LABEL) == 0


def test_wrapper_is_a_pass_through_outside_an_op():
    tracer = spans.Tracer()
    wrapped = tracer.wrap(lambda x: x + 1, "layer:f", None)
    assert wrapped(1) == 2
    assert len(tracer) == 0


def test_raising_span_is_closed_and_flagged():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "layer:boom", None)
    tracer.begin_op()
    with pytest.raises(ValueError):
        wrapped()
    tracer.end_op()
    totals = spans.totals_by_label(tracer)["layer:boom"]
    assert (totals.calls, totals.raised) == (1, 1)


def test_installer_patches_every_binding_and_restores():
    original = candidates.candidate_targets
    assert greedy.candidate_targets is original
    assert astar.candidate_targets is original
    for_state = vars(StateView)["for_state"]
    for_topology = vars(Objective)["for_topology"]
    assert "place" not in vars(BAStar)

    tracer = spans.Tracer()
    with spans.Installer(tracer, layers.targets()):
        patched = candidates.candidate_targets
        assert patched is not original and patched.__wrapped__ is original
        assert greedy.candidate_targets is patched
        assert astar.candidate_targets is patched
        assert isinstance(vars(StateView)["for_state"], classmethod)
        assert isinstance(vars(Objective)["for_topology"], staticmethod)
        # inherited method shadowed on the subclass only
        assert vars(BAStar)["place"].__wrapped__ is PlacementAlgorithm.place
        assert "__wrapped__" not in vars(PlacementAlgorithm.place)

    assert candidates.candidate_targets is original
    assert greedy.candidate_targets is original
    assert astar.candidate_targets is original
    assert vars(StateView)["for_state"] is for_state
    assert vars(Objective)["for_topology"] is for_topology
    assert "place" not in vars(BAStar)


def test_every_target_resolves_to_a_layer_in_the_report():
    for target in layers.targets():
        assert target.layer in layers.LAYERS
        assert layers.layer_of(target.label) == target.layer
