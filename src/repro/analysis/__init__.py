"""Project-specific static analysis: the determinism and contract lint.

ViHOT's serving layer re-verifies on every run that served estimates are
bit-identical to a standalone replay (``repro.serve.loadgen``).  That
property only holds because nothing in the estimation path reads global
entropy or a clock, and the phase stays in its domain on the way to the
DTW match.  This package checks those contracts without running the
code:

* :mod:`~repro.analysis.engine` — the rule engine: file walker,
  import-aware module context, findings, suppression;
* per-module rules — :mod:`~repro.analysis.determinism` (VH1xx) and
  :mod:`~repro.analysis.contracts` (VH2xx typing / API contracts);
* the project view — :mod:`~repro.analysis.callgraph` (call graph,
  declared contracts, return-domain summaries) and the one forward
  interpreter over it, :mod:`~repro.analysis.flow`, with its three
  lattices: :mod:`~repro.analysis.dataflow` (VH3xx phase domains, over
  :mod:`~repro.analysis.domains`), :mod:`~repro.analysis.aliasing`
  (VH4xx numpy aliasing) and :mod:`~repro.analysis.shapes` (VH5xx shapes
  and dtypes, over :mod:`~repro.analysis.dtypes`);
* :mod:`~repro.analysis.concurrency` — VH6xx process safety over
  worker reachability;
* run-time cross-checks of the declarations —
  :mod:`~repro.analysis.runtime_contracts` (shapes/dtypes, ``pytest
  --runtime-contracts``) and :mod:`~repro.analysis.process_contracts`
  (shared memory and seeds, ``--process-contracts``).

Run it as ``vihot lint`` (add ``--dataflow``/``--shapes``/
``--concurrency`` for the project rules); CI runs it as a blocking job.
See ``docs/static-analysis.md`` for the rule catalogue and the
suppression mechanism (``# vihot: noqa[RULE]`` plus the reviewed
allowlist in :mod:`repro.analysis.config`, which also assembles the rule
sets).
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.analysis.config import (
    DEFAULT_ALLOWLIST,
    concurrency_rules,
    dataflow_rules,
    default_rules,
    lint_rules,
    shape_rules,
)
from repro.analysis.engine import (
    Allowlist,
    AllowlistEntry,
    Analyzer,
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    Severity,
)

__all__ = [
    "Allowlist",
    "AllowlistEntry",
    "Analyzer",
    "DEFAULT_ALLOWLIST",
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "Severity",
    "concurrency_rules",
    "dataflow_rules",
    "default_rules",
    "run_analysis",
    "shape_rules",
]


def run_analysis(
    paths: Sequence[str | Path] | None = None,
    use_default_allowlist: bool = True,
    dataflow: bool = False,
    shapes: bool = False,
    concurrency: bool = False,
    cache_dir: str | Path | None = None,
) -> list[Finding]:
    """Lint ``paths`` (default: the installed ``repro`` tree) and return findings.

    Thin convenience wrapper over :class:`Analyzer` used by the CLI and
    the test suite.  ``dataflow=True`` adds the inter-procedural VH3xx /
    VH4xx rules (phase-domain tracking, numpy aliasing); ``shapes=True``
    adds the VH5xx array shape/dtype rules; ``concurrency=True`` adds
    the VH6xx process-safety rules; ``cache_dir`` persists the shared
    call-graph summaries between runs.
    """
    if paths is None:
        paths = [Path(__file__).resolve().parent.parent]
    allowlist = DEFAULT_ALLOWLIST if use_default_allowlist else Allowlist()
    rules = lint_rules(dataflow, shapes, concurrency)
    analyzer = Analyzer(rules, allowlist=allowlist, cache_dir=cache_dir)
    return analyzer.run([Path(p) for p in paths])
