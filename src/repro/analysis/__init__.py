"""``repro.analysis`` — repo-specific static analysis for the statistics
service.

An AST-based lint suite (stdlib :mod:`ast`, zero dependencies) with
eight rules guarding the invariants the concurrent service layer and the
plan cache depend on:

=====  ========================  ===================================================
id     name                      checks
=====  ========================  ===================================================
R001   guarded-by                ``guarded_by()``-annotated attributes accessed
                                 only under their declared lock
R002   lock-order                the global lock acquisition graph is acyclic
R003   exhaustive-dispatch       marked visitors handle every SQL AST / plan node
R004   no-blocking-under-lock    no sleep/join/wait/blocking-get or statement
                                 execution while holding a component lock
R005   magic-number-literals     ε / 1−ε selectivity pins come from
                                 ``optimizer/variables.py``, never inline floats
R006   epoch-bump                every path mutating epoch-versioned guarded
                                 state also bumps ``_epoch``
R007   metrics-registry          metric names are literals registered in
                                 ``service/metric_names.py``
R008   deprecation-shims         ``ReproDeprecationWarning`` shims are documented
                                 in CONTRIBUTING.md and test-covered
=====  ========================  ===================================================

R006–R008 run on a summary-based interprocedural **effect analysis**
(:mod:`repro.analysis.effects`): per-function effect sets — attributes
mutated, metrics emitted, warnings raised, locks taken — propagated to a
fixpoint through ``self.method()`` and module-call edges.

Run via ``repro lint src/`` (``--cache`` for incremental re-runs,
``--format json|sarif`` for machine-readable output, ``--fix`` for
mechanical rewrites) or programmatically::

    from repro.analysis import run_lint
    findings = run_lint(["src"])

See ``docs/analysis.md`` for the rule catalog and suppression syntax.
"""

from repro.analysis.framework import (
    BASELINE_FILENAME,
    Finding,
    Rule,
    RULES,
    all_rule_ids,
    lint_paths,
    lint_project,
    build_project,
    load_baseline,
    save_baseline,
)
from repro.analysis.engine import CACHE_FILENAME, run_lint
from repro.analysis.model import Project

__all__ = [
    "BASELINE_FILENAME",
    "CACHE_FILENAME",
    "Finding",
    "Project",
    "Rule",
    "RULES",
    "all_rule_ids",
    "build_project",
    "lint_paths",
    "lint_project",
    "load_baseline",
    "run_lint",
    "save_baseline",
]
