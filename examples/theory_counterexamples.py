#!/usr/bin/env python
"""The paper's appendix constructions, run live (Figures 5, 6, 7).

Three hand-crafted networks prove the replayability hierarchy:

* Figure 6 / Appendix F — a *priority cycle*: no static priority
  assignment can replay it, but LSTF can (two congestion points).
* Figure 7 / Appendix G — three congestion points defeat LSTF itself.
* Figure 5 / Appendix C — two schedules that agree on every black-box
  header input yet need opposite decisions: no deterministic UPS exists.

Run:  python examples/theory_counterexamples.py
"""

from __future__ import annotations

from repro.theory.blackbox import blackbox_gadget
from repro.theory.lstf_failure import lstf_three_congestion_gadget
from repro.theory.priority_cycle import all_priority_orderings_fail, priority_cycle_gadget


def show(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    show("Figure 6: the priority cycle (Appendix F)")
    gadget = priority_cycle_gadget()
    lstf = gadget.replay("lstf")
    print(f"LSTF replay perfect?           {lstf.perfect}")
    print(f"all 6 priority orderings fail? {all_priority_orderings_fail(gadget)}")
    print("-> static priorities cannot even handle two congestion points;")
    print("   LSTF's hop-by-hop slack rewriting breaks the cycle.")

    show("Figure 7: three congestion points defeat LSTF (Appendix G)")
    gadget = lstf_three_congestion_gadget()
    for mode in ("lstf", "lstf-preemptive", "omniscient"):
        result = gadget.replay(mode)
        late = gadget.overdue_names(result)
        print(f"{mode:16s} perfect? {str(result.perfect):5s}  overdue: {late}")
    print("-> with three congestion points, LSTF cannot know where to spend")
    print("   packet a's slack; only the omniscient per-hop timetable wins.")

    show("Figure 5: no black-box UPS exists at all (Appendix C)")
    for case in (1, 2):
        gadget = blackbox_gadget(case)
        schedule = gadget.record()
        # The schedule is columns, one row per packet.
        row = {gadget.packet_name(pid): k for k, pid in enumerate(schedule.pid.tolist())}
        i, o = schedule.ingress.tolist(), schedule.output.tolist()
        a, x = row["a"], row["x"]
        lstf = gadget.replay("lstf")
        print(
            f"case {case}: a=(i={i[a]:g}, o={o[a]:g}) "
            f"x=(i={i[x]:g}, o={o[x]:g})  "
            f"LSTF perfect? {lstf.perfect}"
        )
    print("-> packets a and x look identical to the ingress in both cases,")
    print("   so any deterministic header initialisation fails one of them.")


if __name__ == "__main__":
    main()
