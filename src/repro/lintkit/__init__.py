"""Static analysis for the reproduction's determinism & concurrency rules.

Every correctness claim this repo makes — byte-identical artifacts
across serial, process-pool and queue runs, replayed schedules matching
recorded ones, exactly-once queue semantics — rests on coding
invariants that no test can watch all the time: RNG must be injected
and seeded, simulation code must never read the wall clock, queue
mutations must run inside ``BEGIN IMMEDIATE`` transactions, worker
threads must not scribble on shared state, hot-path classes must stay
``__slots__``-ed.  :mod:`repro.lintkit` turns those reviewer-memory
rules into machine-checked ones:

* :mod:`~repro.lintkit.rules` — the rule registry: stable IDs, one
  visitor-style checker per rule, and the per-module AST context they
  share.
* :mod:`~repro.lintkit.config` — path-scoped application: sim/core/
  schedulers get the strict determinism rules, cluster gets the
  transaction/thread rules, cli gets almost nothing.
* :mod:`~repro.lintkit.runner` — walks files, applies suppressions
  (``# repro: allow(RULE-ID) reason`` — the reason is mandatory and
  itself linted), and renders text or JSON.

The CLI front end is ``repro lint`` (see :mod:`repro.cli`); the
enforced invariants are catalogued in ``docs/determinism.md``.
"""

from __future__ import annotations

from repro.lintkit.config import rules_for_path
from repro.lintkit.findings import JSON_SCHEMA_VERSION, Finding, LintReport
from repro.lintkit.rules import RULES, Rule, rule_ids
from repro.lintkit.runner import lint_file, lint_paths

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "RULES",
    "Rule",
    "lint_file",
    "lint_paths",
    "rule_ids",
    "rules_for_path",
]
