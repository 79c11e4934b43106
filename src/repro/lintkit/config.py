"""Path-scoped rule application: where in the tree each family bites.

Scopes are directory names matched against a file's path segments, so
``src/repro/sim/engine.py`` is in scope ``sim`` and
``tests/cluster/test_stress.py`` is in scope ``cluster``.  The layering
principle, from strict to lax:

* **Simulation-facing code** (:data:`SIM_SCOPE`: sim, core, schedulers,
  experiments, workload, topology, transport, theory, metrics,
  scenarios) gets the
  full determinism family — these modules produce the bytes the
  byte-identity suite compares, so a wall-clock read or an unseeded RNG
  there is an artifact-corrupting bug, not a style issue.
* **Cluster code** (queue, worker, client — and the cluster test suite
  when pointed at it) gets the transaction rule plus the RNG and
  set-iteration rules, but *not* the wall-clock rule: leases and
  heartbeats are wall-clock by design.
* **Everything else** (cli, api glue, analysis, obs) gets only the
  always-on rules about the suppression machinery itself — scheduling
  policy does not live there, so the strict families would only generate
  noise.

A rule with scope ``("*",)`` applies to every linted file.
"""

from __future__ import annotations

from pathlib import PurePath

from repro.lintkit.rules import Rule, load_rules

__all__ = ["CLUSTER_SCOPE", "SIM_SCOPE", "rules_for_path"]

#: Directories whose code feeds deterministic artifacts (strict rules).
SIM_SCOPE = (
    "sim",
    "core",
    "schedulers",
    "experiments",
    "workload",
    "topology",
    "transport",
    "theory",
    "metrics",
    "scenarios",
)

#: Directories holding the distributed queue/worker machinery.
CLUSTER_SCOPE = ("cluster",)


def rules_for_path(path: str | PurePath) -> tuple[Rule, ...]:
    """The rules that apply to ``path``, per its directory segments."""
    parts = set(PurePath(path).parts)
    return tuple(
        rule
        for rule in load_rules().values()
        if rule.scopes == ("*",) or parts.intersection(rule.scopes)
    )
