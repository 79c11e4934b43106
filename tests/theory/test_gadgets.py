"""The paper's appendix counter-examples, executed on the simulator.

These tests are the project's deepest correctness anchors: each one runs a
construction from the paper and asserts the *theorem* it was built to
demonstrate.
"""

from __future__ import annotations

import pytest

from repro.theory.blackbox import blackbox_gadget
from repro.theory.lstf_failure import lstf_three_congestion_gadget
from repro.theory.priority_cycle import all_priority_orderings_fail, priority_cycle_gadget
from tests.sim.reference_tracer import rows


class TestFigure7LstfFailure:
    """Appendix G.3: three congestion points defeat LSTF."""

    def test_original_schedule_matches_the_figure(self):
        g = lstf_three_congestion_gadget()
        out = {g.packet_name(r["pid"]): r["o"] for r in rows(g.record())}
        assert out == pytest.approx(
            {"a": 5.0, "b": 2.0, "c1": 3.0, "c2": 4.0, "d1": 3.0, "d2": 4.0}
        )

    def test_packet_a_crosses_three_congestion_points_with_slack_2(self):
        g = lstf_three_congestion_gadget()
        a = next(r for r in rows(g.record()) if g.packet_name(r["pid"]) == "a")
        assert a["o"] - a["i"] - 3.0 == pytest.approx(2.0)
        assert {"a0", "a1", "a2"} <= set(a["path"])

    @pytest.mark.parametrize("mode", ["lstf", "edf", "lstf-preemptive"])
    def test_lstf_family_cannot_replay(self, mode):
        g = lstf_three_congestion_gadget()
        result = g.replay(mode)
        assert not result.perfect
        # The paper's narrative: either c2 or a misses its target.
        assert set(g.overdue_names(result)) <= {"a", "c2"}

    def test_omniscient_replays_perfectly(self):
        g = lstf_three_congestion_gadget()
        assert g.replay("omniscient").perfect


class TestFigure6PriorityCycle:
    """Appendix F: a priority cycle with two congestion points per packet."""

    def test_original_schedule_matches_the_figure(self):
        g = priority_cycle_gadget()
        out = {g.packet_name(r["pid"]): r["o"] for r in rows(g.record())}
        assert out == pytest.approx({"a": 3.4, "b": 2.5, "c": 3.2})

    def test_every_static_priority_assignment_fails(self):
        assert all_priority_orderings_fail(priority_cycle_gadget())

    def test_lstf_replays_the_cycle_perfectly(self):
        """LSTF's dynamic slack escapes the static-priority trap."""
        g = priority_cycle_gadget()
        result = g.replay("lstf")
        assert result.perfect, g.overdue_names(result)

    def test_omniscient_replays_perfectly(self):
        g = priority_cycle_gadget()
        assert g.replay("omniscient").perfect


class TestFigure5Blackbox:
    """Appendix C: no deterministic UPS under black-box initialisation."""

    def test_critical_packets_have_identical_blackbox_attributes(self):
        views = {}
        for case in (1, 2):
            g = blackbox_gadget(case)
            views[case] = {
                g.packet_name(r["pid"]): (r["i"], r["o"], r["path"])
                for r in rows(g.record())
                if g.packet_name(r["pid"]) in ("a", "x")
            }
        assert views[1] == views[2]

    def test_both_cases_are_viable(self):
        """Each case's oracle schedule executes without contradiction and
        is perfectly replayed by the omniscient UPS."""
        for case in (1, 2):
            assert blackbox_gadget(case).replay("omniscient").perfect

    @pytest.mark.parametrize("mode", ["lstf", "edf"])
    def test_no_deterministic_blackbox_candidate_replays_both(self, mode):
        outcomes = [blackbox_gadget(case).replay(mode).perfect for case in (1, 2)]
        assert not all(outcomes)

    def test_priority_with_output_time_fails_at_least_one_case(self):
        outcomes = [
            blackbox_gadget(case).replay("priority").perfect for case in (1, 2)
        ]
        assert not all(outcomes)
