"""The appendix counter-example gadgets as a registered experiment.

Re-derives the paper's three impossibility/possibility constructions on
the live simulator and reports whether each claim holds:

* Figure 6 / Appendix F — the priority cycle: every static priority
  ordering fails, LSTF replays perfectly.
* Figure 7 / Appendix G.3 — three congestion points: LSTF fails, the
  omniscient UPS succeeds.
* Figure 5 / Appendix C — black-box impossibility: identical header
  inputs demand opposite decisions, so LSTF fails at least one case
  while the omniscient replay passes both.

The gadgets take no workload parameters — the constructions are exact —
so the runner refuses a spec that moves a field other than ``seeds`` off
its default.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec

__all__: list[str] = []


@register_experiment(
    "gadgets",
    help="Appendix counter-examples: Figures 5/6/7 as executable theorems",
)
def _run_gadgets(_spec: ExperimentSpec) -> tuple[Table, dict]:
    """Evaluate every appendix construction; one table row per claim."""
    from repro.theory.blackbox import blackbox_gadget
    from repro.theory.lstf_failure import lstf_three_congestion_gadget
    from repro.theory.priority_cycle import (
        all_priority_orderings_fail,
        priority_cycle_gadget,
    )

    table = Table(["construction", "claim", "holds"],
                  title="Appendix counter-examples")
    pc = priority_cycle_gadget()
    table.add_row(["Figure 6", "all static priority orderings fail",
                   all_priority_orderings_fail(pc)])
    table.add_row(["Figure 6", "LSTF replays perfectly", pc.replay("lstf").perfect])
    f7 = lstf_three_congestion_gadget()
    table.add_row(["Figure 7", "LSTF fails at 3 congestion points",
                   not f7.replay("lstf").perfect])
    table.add_row(["Figure 7", "omniscient replay perfect",
                   f7.replay("omniscient").perfect])
    lstf_both = all(blackbox_gadget(c).replay("lstf").perfect for c in (1, 2))
    omni_both = all(blackbox_gadget(c).replay("omniscient").perfect for c in (1, 2))
    table.add_row(["Figure 5", "LSTF fails at least one case", not lstf_both])
    table.add_row(["Figure 5", "omniscient passes both cases", omni_both])
    return table, {"claims": len(table.rows)}
