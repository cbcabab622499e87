"""The ``repro.staticcheck/1`` report document.

Sibling of ``repro.bench/1`` (:mod:`repro.obs.export`) and
``repro.chaos/1`` (:mod:`repro.chaos.replay`): a JSON artifact CI
uploads on every run, deterministic byte-for-byte for a given tree --
findings are sorted, the rule table is sorted, and no timestamps or
host details are embedded.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.artifact import ArtifactSchemaError, Schema, array, boolean, fail, integer, obj, string
from repro.staticcheck.framework import Pass, Rule, SuiteResult, all_rules

SCHEMA = "repro.staticcheck/1"


def build_report(result: SuiteResult,
                 passes: Optional[Sequence[Pass]] = None) -> Dict[str, Any]:
    """A JSON-ready document for one suite run."""
    rules: List[Rule] = all_rules(passes)
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "tool": "repro.staticcheck",
        "roots": list(result.roots),
        "files_scanned": result.files_scanned,
        "rules": [
            {
                "id": rule.id,
                "title": rule.title,
                "invariant": rule.invariant,
                "paper": rule.paper,
                "hint": rule.hint,
            }
            for rule in rules
        ],
        "findings": [f.to_json() for f in result.findings],
        "suppressed": [f.to_json() for f in result.suppressed],
        "stale_suppressions": list(result.stale_suppressions),
        "summary": {
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
            "stale_suppressions": len(result.stale_suppressions),
            "by_rule": result.by_rule(),
            "ok": result.ok,
        },
    }
    if result.artifacts:
        # whole-program side outputs: the RS6xx shared-state inventory,
        # the extracted port FSM -- machine-readable gates for later PRs
        doc["dataflow"] = result.artifacts
    if result.cache_stats is not None:
        doc["cache"] = dict(result.cache_stats)
    return doc


def _rules_known(doc: Dict[str, Any]) -> None:
    """Rule ids are ``RS`` ids, and every finding names a declared rule."""
    for i, rule in enumerate(doc["rules"]):
        if not rule["id"].startswith("RS"):
            fail(f"$.rules[{i}].id", f"expected an RS rule id, got {rule['id']!r}")
    known = {rule["id"] for rule in doc["rules"]}
    for section in ("findings", "suppressed"):
        for i, finding in enumerate(doc[section]):
            if finding["rule"] not in known:
                fail(f"$.{section}[{i}].rule",
                     f"finding references unknown rule {finding['rule']!r}")


def _summary_counts_findings(doc: Dict[str, Any]) -> None:
    counted = doc["summary"]["findings"]
    if counted != len(doc["findings"]):
        fail("$.summary.findings",
             f"{counted} disagrees with the findings list ({len(doc['findings'])})")


_FINDING = {**dict.fromkeys(("rule", "path", "message"), string()),
            **dict.fromkeys(("line", "col"), integer())}

REPORT = Schema(SCHEMA, {
    "roots": array(string()),
    "files_scanned": integer(),
    "rules": array(obj({"id": string()})),
    "findings": array(obj(_FINDING)),
    # a suppressed finding must carry its baseline justification
    "suppressed": array(obj({**_FINDING, "justification": string(non_empty=True)})),
    "stale_suppressions": array(),
    "summary": obj({"findings": integer(), "ok": boolean()}),
}, checks=[_rules_known, _summary_counts_findings], sort_keys=True)

SchemaError = ArtifactSchemaError
validate_report = REPORT.validate
read_report = REPORT.read


def write_report(doc: Dict[str, Any], path: Union[str, Path]) -> None:
    REPORT.write(path, doc)


def render_text(result: SuiteResult, verbose: bool = False) -> str:
    """Human-readable run summary for terminals and CI logs."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(f"{finding.location()}: {finding.rule}: {finding.message}")
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    if verbose and result.suppressed:
        lines.append("")
        lines.append(f"baselined ({len(result.suppressed)}):")
        for finding in result.suppressed:
            lines.append(
                f"  {finding.location()}: {finding.rule} -- {finding.justification}")
    for entry in result.stale_suppressions:
        lines.append(
            f"stale baseline entry: {entry['rule']} at {entry['path']} matched "
            f"nothing (delete it, or run --prune-baseline)")
    if result.cache_stats is not None:
        lines.append(cache_line(result))
    verdict = "OK" if result.ok else "FAIL"
    by_rule = ", ".join(f"{k}={v}" for k, v in result.by_rule().items())
    lines.append(
        f"staticcheck {verdict}: {result.files_scanned} files, "
        f"{len(result.findings)} finding(s)"
        + (f" [{by_rule}]" if by_rule else "")
        + (f", {len(result.suppressed)} baselined" if result.suppressed else "")
        + (f", {len(result.stale_suppressions)} stale baseline entr"
           f"{'y' if len(result.stale_suppressions) == 1 else 'ies'}"
           if result.stale_suppressions else "")
    )
    return "\n".join(lines)


def cache_line(result: SuiteResult) -> str:
    """One line of incremental-cache accounting for the text report."""
    stats = result.cache_stats
    if stats is None or not stats.get("enabled"):
        return "cache: disabled"
    project = "reused" if stats.get("project_hit") else "re-analyzed"
    return (
        f"cache: {stats.get('file_hits', 0)}/{stats.get('files', 0)} file "
        f"results reused, project analysis {project}"
    )


def render_github(result: SuiteResult) -> str:
    """GitHub Actions workflow-command output: inline PR annotations.

    One ``::error`` per active finding and per stale baseline entry
    (both fail the run), then the same verdict line as the text format
    so logs stay greppable.
    """
    lines: List[str] = []
    for finding in result.findings:
        message = finding.message
        if finding.hint:
            message += f" -- fix: {finding.hint}"
        lines.append(
            f"::error file={finding.path},line={max(finding.line, 1)},"
            f"col={max(finding.col, 1)},title={finding.rule}::{_escape(message)}"
        )
    for entry in result.stale_suppressions:
        lines.append(
            f"::error file={entry['path']},line=1,title=stale-baseline::"
            + _escape(
                f"baseline entry {entry['rule']} at {entry['path']} matched "
                f"nothing -- delete it or run --prune-baseline")
        )
    if result.cache_stats is not None:
        lines.append(cache_line(result))
    verdict = "OK" if result.ok else "FAIL"
    lines.append(
        f"staticcheck {verdict}: {result.files_scanned} files, "
        f"{len(result.findings)} finding(s), "
        f"{len(result.stale_suppressions)} stale baseline entries"
    )
    return "\n".join(lines)


def _escape(message: str) -> str:
    """GitHub workflow-command data escaping (%, CR, LF)."""
    return (message.replace("%", "%25")
            .replace("\r", "%0D").replace("\n", "%0A"))
