"""Compare two suite documents row by row (``run.py compare A B``).

One row per (end-to-end metric, workload), judged against the bound that
BENCHMARK.json fixes for the metric:

* ``worse`` / ``better`` -- B's median moved by more than the bound;
* ``same`` -- it did not;
* ``unresolved`` -- the medians are not known well enough to say: the
  spread of either median (IQR / sqrt(n); a single run's IQR is 6-27% of
  the median on this host, so raw IQR would flag every row) is wider than
  the bound -- unless every run of one side beats every run of the other,
  which settles the direction whatever the spread.

Exact counts of the traced pass (``<layer>.calls``, ``sim.engine.events``,
``api.legs``, bytes left in the stores) either repeat or they do not.
"""

from __future__ import annotations

import math
import statistics
from typing import Any

__all__ = ["compare_documents", "render_comparison"]

#: Rows compared beside the gated ones, never judged.
_UNGATED = ("wall_raw_s",)


def _verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    a_beats_b = (max(a["runs"]) < min(b["runs"]) if lower_is_better
                 else min(a["runs"]) > max(b["runs"]))
    b_beats_a = (max(b["runs"]) < min(a["runs"]) if lower_is_better
                 else min(b["runs"]) > max(a["runs"]))
    blur = max(s["iqr"] / math.sqrt(s["n"]) / s["median"] for s in (a, b))
    if blur > bound and not (a_beats_b or b_beats_a):
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare_documents(a: dict, b: dict, manifest: dict) -> list[dict[str, Any]]:
    """Rows for every (end-to-end metric, workload) both documents hold."""
    rows: list[dict[str, Any]] = []
    metrics = [(m["name"], m["unit"], m["bound"], m["better"] == "lower")
               for m in manifest["end_to_end"]]
    metrics += [(name, "s", None, True) for name in _UNGATED]
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        e2e_a, e2e_b = entry_a.get("end_to_end", {}), entry_b.get("end_to_end", {})
        fail_rise = (entry_b.get("fail_share", 0.0)
                     > entry_a.get("fail_share", 0.0))
        for name, unit, bound, lower in metrics:
            if name not in e2e_a or name not in e2e_b:
                continue
            a_stats, b_stats = e2e_a[name], e2e_b[name]
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "bound": bound, "a": a_stats["median"], "b": b_stats["median"],
                "change": b_stats["median"] / a_stats["median"] - 1.0,
                "verdict": ("ungated" if bound is None
                            else _verdict(a_stats, b_stats, bound, lower)),
                "fail_rise": bound is not None and fail_rise,
            })
        counts_a = entry_a.get("traced", {}).get("per_layer", {})
        counts_b = entry_b.get("traced", {}).get("per_layer", {})
        exact = [k for k in counts_a
                 if k in counts_b and (k.endswith((".calls", ".bytes"))
                                       or k in ("sim.engine.events", "api.legs"))]
        if exact:
            moved = [k for k in exact if counts_a[k] != counts_b[k]]
            rows.append({
                "workload": workload, "metric": "exact counts", "unit": "count",
                "bound": None, "a": len(exact), "b": len(exact) - len(moved),
                "change": 0.0,
                "verdict": "repeat" if not moved else "moved: " + ", ".join(moved[:6]),
                "fail_rise": False,
            })
    return rows


def render_comparison(rows: list[dict[str, Any]]) -> str:
    lines = [f"{'workload':<15} {'metric':<18} {'A':>12} {'B':>12} "
             f"{'change':>8} {'bound':>6}  verdict"]
    for row in rows:
        bound = "" if row["bound"] is None else f"{100 * row['bound']:.0f}%"
        lines.append(
            f"{row['workload']:<15} {row['metric']:<18} {row['a']:>12.6g} "
            f"{row['b']:>12.6g} {100 * row['change']:>+7.1f}% {bound:>6}  "
            f"{row['verdict']}" + ("  FAIL-SHARE ROSE" if row["fail_rise"] else ""))
    verdicts = [r["verdict"] for r in rows if r["bound"] is not None]
    summary = {v: verdicts.count(v) for v in ("better", "same", "worse", "unresolved")}
    lines.append("gated rows: " + ", ".join(f"{n} {v}" for v, n in summary.items()))
    raw = [abs(r["change"]) for r in rows if r["metric"] == "wall_raw_s"]
    norm = [abs(r["change"]) for r in rows if r["metric"] == "wall_norm_s"]
    if raw and norm:
        lines.append(
            f"median |change| of wall: raw {100 * statistics.median(raw):.1f}% "
            f"vs drift-corrected {100 * statistics.median(norm):.1f}%")
    return "\n".join(lines)
