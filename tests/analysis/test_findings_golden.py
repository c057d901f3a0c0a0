"""Every finding the project lint reports over the fixtures, pinned exactly.

The per-rule tests check fragments of messages and traces; this one pins
the whole output of ``vihot lint --dataflow --shapes --concurrency`` over
``tests/analysis/fixtures`` (path, line, col, rule, message and full
trace), so a refactor of the analyzer cannot shift a column or a trace
step unseen.  Paths are relative to the fixtures directory, and findings
are ordered by that relative location (the analyzer sorts on the path as
it spells it, which depends on where the checkout lives).

Regenerate after an intended change of findings with::

    PYTHONPATH=src python -m tests.analysis.test_findings_golden
"""

import json
from pathlib import Path

from repro.analysis import Analyzer, run_analysis

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "fixtures_findings.json"


def _fixture_findings() -> list[dict[str, object]]:
    # How the analyzer spells a fixture path, up to the fixture's name.
    prefix = Analyzer._relativize(FIXTURES / "x.py")[: -len("x.py")]
    findings = run_analysis(
        [FIXTURES], dataflow=True, shapes=True, concurrency=True
    )
    records = [
        {
            "path": f.path.replace(prefix, ""),
            "line": f.line,
            "col": f.col,
            "rule": f.rule,
            "message": f.message,
            "trace": [step.replace(prefix, "") for step in f.trace],
        }
        for f in findings
    ]
    return sorted(records, key=lambda r: (r["path"], r["line"], r["col"], r["rule"]))


def test_fixture_findings_match_the_golden_file():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _fixture_findings() == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(_fixture_findings(), indent=2) + "\n", encoding="utf-8"
    )
