"""The repro.staticcheck/1 document and the suppression baseline."""

import json
from pathlib import Path

import pytest

from repro.staticcheck import (
    Baseline,
    BaselineError,
    SchemaError,
    build_report,
    read_report,
    run_suite,
    validate_report,
    write_report,
)

VIOLATING = (
    "import time\n"
    "\n"
    "def deadline():\n"
    "    return time.time()\n"
)


def write_fixture_tree(tmp_path):
    """A tiny src-like tree with one violating hot-path module."""
    pkg = tmp_path / "src" / "repro" / "net"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "clock.py").write_text(VIOLATING)
    return tmp_path / "src"


def test_report_roundtrip_and_schema(tmp_path):
    root = write_fixture_tree(tmp_path)
    result = run_suite([root])
    assert [f.rule for f in result.findings] == ["RS101"]

    doc = build_report(result)
    validate_report(doc)
    out = tmp_path / "report.json"
    write_report(doc, out)
    loaded = read_report(out)
    assert loaded["schema"] == "repro.staticcheck/1"
    assert loaded["summary"]["ok"] is False
    assert loaded["summary"]["by_rule"] == {"RS101": 1}
    rule_ids = {r["id"] for r in loaded["rules"]}
    assert {"RS101", "RS203", "RS303", "RS402"} <= rule_ids


def test_report_is_byte_deterministic(tmp_path):
    root = write_fixture_tree(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_report(build_report(run_suite([root])), a)
    write_report(build_report(run_suite([root])), b)
    assert a.read_bytes() == b.read_bytes()


def test_validate_rejects_malformed_documents():
    with pytest.raises(SchemaError):
        validate_report({"schema": "nope"})
    with pytest.raises(SchemaError):
        validate_report([])
    good = {
        "schema": "repro.staticcheck/1",
        "tool": "repro.staticcheck",
        "roots": [],
        "files_scanned": 0,
        "rules": [],
        "findings": [],
        "suppressed": [],
        "stale_suppressions": [],
        "summary": {"findings": 0, "suppressed": 0,
                    "stale_suppressions": 0, "by_rule": {}, "ok": True},
    }
    validate_report(good)
    # JSON booleans are not integers
    with pytest.raises(SchemaError):
        validate_report(dict(good, files_scanned=True))
    # summary count must agree with the findings list
    bad = dict(good, summary=dict(good["summary"], findings=3))
    with pytest.raises(SchemaError):
        validate_report(bad)
    # findings must reference declared rules
    bad = dict(good, findings=[
        {"rule": "RS999", "path": "x.py", "line": 1, "col": 0, "message": "m"}])
    with pytest.raises(SchemaError):
        validate_report(bad)


def test_baseline_suppresses_and_reports_stale(tmp_path):
    root = write_fixture_tree(tmp_path)
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS101", "path": "src/repro/net/clock.py",
             "justification": "fixture: grandfathered"},
            {"rule": "RS201", "path": "src/repro/net/ghost.py",
             "justification": "fixture: no longer exists"},
        ],
    })
    result = run_suite([root], baseline=baseline)
    assert result.findings == []
    # a stale entry now fails the run: baselines may only shrink
    assert not result.ok
    assert [f.rule for f in result.suppressed] == ["RS101"]
    assert result.suppressed[0].justification == "fixture: grandfathered"
    assert [s["path"] for s in result.stale_suppressions] == ["src/repro/net/ghost.py"]


def test_out_of_scope_baseline_entries_are_not_stale(tmp_path):
    root = write_fixture_tree(tmp_path)
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS101", "path": "src/repro/net/clock.py",
             "justification": "fixture: grandfathered"},
            {"rule": "RS201", "path": "benchmarks/other.py",
             "justification": "different scan root: not this run's business"},
        ],
    })
    result = run_suite([root], baseline=baseline)
    assert result.stale_suppressions == []
    assert result.ok

    # a rule outside --select is equally out of scope
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS201", "path": "src/repro/net/clock.py",
             "justification": "purity rule not selected in this run"},
        ],
    })
    result = run_suite([root], baseline=baseline, select=["RS4"])
    assert result.stale_suppressions == []


def test_baseline_path_matching_is_suffix_tolerant(tmp_path):
    root = write_fixture_tree(tmp_path)
    # scan rooted *inside* src: findings carry absolute-ish paths, but the
    # repo-root-relative baseline entry still matches
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS101", "path": "src/repro/net/clock.py",
             "justification": "fixture"},
        ],
    })
    result = run_suite([root / "repro" / "net"], baseline=baseline)
    assert result.findings == []
    assert len(result.suppressed) == 1


def test_baseline_requires_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [{"rule": "RS101", "path": "x.py", "justification": " "}],
    }))
    with pytest.raises(BaselineError):
        Baseline.load(path)
    path.write_text("not json")
    with pytest.raises(BaselineError):
        Baseline.load(path)
    path.write_text(json.dumps({"schema": "wrong/1", "suppressions": []}))
    with pytest.raises(BaselineError):
        Baseline.load(path)


def test_parse_error_is_an_active_finding_even_with_baseline(tmp_path):
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "broken.py").write_text("def f(:\n")
    baseline = Baseline.from_dict({
        "schema": "repro.staticcheck-baseline/1",
        "suppressions": [
            {"rule": "RS000", "path": "src/broken.py", "justification": "nope"},
        ],
    })
    result = run_suite([pkg], baseline=baseline)
    assert [f.rule for f in result.findings] == ["RS000"]
    assert not result.ok
