"""Core machinery for the ``repro.staticcheck`` analysis suite.

The suite is a set of *passes*, each owning a family of rules with stable
IDs (``RS1xx`` determinism, ``RS2xx`` event-handler purity, ``RS3xx``
observability discipline, ``RS4xx`` mutable-state hygiene).  A pass is a
pure function from a parsed module to findings: no imports of the code
under analysis, no execution, just :mod:`ast`.  That keeps the linter
safe to run on broken trees and byte-deterministic -- the same source
always yields the same report, which is itself a determinism invariant
this repo cares about.

Layout of a run:

1. :func:`discover` walks the scan roots for ``*.py`` files (sorted, so
   report order never depends on filesystem order).
2. :func:`parse_module` builds a :class:`ParsedModule` with a best-effort
   dotted module name (walking ``__init__.py`` parents), which rules use
   to scope themselves to hot-path packages vs CLI/analysis modules.
3. Each pass's :meth:`Pass.check` yields :class:`Finding` objects.
4. A :class:`~repro.staticcheck.baseline.Baseline` splits findings into
   *active* (fail the build) and *suppressed* (grandfathered, each with a
   recorded justification).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: rule id for files the parser itself rejects -- always active, never
#: baselined away silently (a file that cannot be parsed cannot be checked)
PARSE_ERROR_RULE = "RS000"

#: bumped whenever any rule's behavior changes; invalidates the
#: incremental result cache (:mod:`repro.staticcheck.cache`) wholesale
RULESET_VERSION = "10.0"


@dataclass(frozen=True)
class Rule:
    """Stable metadata for one check.

    ``invariant`` names what the rule protects; ``paper`` points at the
    section of the Autonet paper (or of DESIGN.md) that motivates it;
    ``hint`` is the one-line fix suggestion attached to every finding.
    """

    id: str
    title: str
    invariant: str
    paper: str
    hint: str


@dataclass
class Finding:
    """One rule violation at a specific location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    #: set when a baseline suppression matched; carries its justification
    justification: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }
        if self.justification is not None:
            out["justification"] = self.justification
        return out


@dataclass
class ParsedModule:
    """A source file plus the context rules need to scope themselves."""

    path: Path
    relpath: str  # posix-style, as reported in findings
    module: str  # best-effort dotted name ("repro.net.switch")
    tree: ast.Module
    source: str

    @property
    def is_main(self) -> bool:
        """True for ``python -m`` entry points (CLI modules)."""
        return self.module.endswith("__main__")

    def in_package(self, *packages: str) -> bool:
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )


class Pass:
    """Base class: one family of rules sharing an AST traversal."""

    name = "base"
    rules: Tuple[Rule, ...] = ()

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(rule_id)

    def finding(self, rule_id: str, module: ParsedModule, node: ast.AST,
                message: str) -> Finding:
        rule = self.rule(rule_id)
        return Finding(
            rule=rule_id,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=rule.hint,
        )


class ProjectPass:
    """Base class: a whole-program analysis over the parsed project.

    Unlike :class:`Pass`, a project pass sees every module at once (via
    the :class:`~repro.staticcheck.dataflow.callgraph.Project` model) so
    it can follow a value through calls, returns and attribute stores
    across files.  :meth:`run` returns its findings plus a dict of
    machine-readable artifacts (e.g. the RS6xx shared-state inventory)
    that the report embeds under ``dataflow``.
    """

    name = "project-base"
    rules: Tuple[Rule, ...] = ()

    def run(self, project: Any) -> Tuple[List[Finding], Dict[str, Any]]:
        raise NotImplementedError

    def rule(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(rule_id)

    def finding(self, rule_id: str, path: str, line: int, col: int,
                message: str) -> Finding:
        rule = self.rule(rule_id)
        return Finding(
            rule=rule_id,
            path=path,
            line=line,
            col=col,
            message=message,
            hint=rule.hint,
        )


# -- shared AST helpers ----------------------------------------------------------


class ImportMap:
    """Resolves names back to the dotted path they were imported from.

    ``import time as t`` maps ``t`` -> ``time``; ``from datetime import
    datetime`` maps ``datetime`` -> ``datetime.datetime``.  With that,
    :meth:`resolve_call` turns ``t.monotonic()`` into the canonical
    ``time.monotonic`` every rule table is written against.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: Dict[str, str] = {}
        self.name_origins: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.name_origins[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of an expression, or None if unknown."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.name_origins:
            base = self.name_origins[root]
        elif root in self.module_aliases:
            base = self.module_aliases[root]
        elif not parts:
            # a bare name that was never imported: a builtin or local
            return root
        else:
            return None
        return ".".join([base] + list(reversed(parts)))


def dotted_name(node: ast.AST) -> Optional[str]:
    """Literal dotted form of an attribute chain (``self.sim.metrics``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Outermost type name of a parameter annotation.

    Unwraps ``Optional[X]``/``"X"`` string annotations to ``X`` so purity
    rules can recognize component-typed parameters.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: take the outer identifier
        text = node.value.strip().strip("'\"")
        for wrapper in ("Optional[", "Union["):
            if text.startswith(wrapper) and text.endswith("]"):
                text = text[len(wrapper):-1].split(",")[0].strip()
        return text.split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        outer = annotation_name(node.value)
        if outer in ("Optional", "Union"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                return annotation_name(inner.elts[0])
            return annotation_name(inner)
        return outer
    return None


def function_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module plus every (possibly nested) function definition."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# -- discovery and parsing --------------------------------------------------------


def discover(paths: Sequence[Path]) -> List[Path]:
    """All ``*.py`` files under the given files/directories, sorted."""
    found: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name, walking ``__init__.py`` parents."""
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


def display_path(path: Path) -> str:
    """Stable posix-style path for reports: CWD-relative when possible."""
    try:
        rel = path.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def parse_module(path: Path,
                 source: Optional[str] = None,
                 ) -> Tuple[Optional[ParsedModule], Optional[Finding]]:
    """Parse one file; on a syntax error return an RS000 finding instead."""
    if source is None:
        source = path.read_text(encoding="utf-8", errors="replace")
    relpath = display_path(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return None, Finding(
            rule=PARSE_ERROR_RULE,
            path=relpath,
            line=error.lineno or 0,
            col=error.offset or 0,
            message=f"file does not parse: {error.msg}",
            hint="fix the syntax error; unparsable files cannot be checked",
        )
    return ParsedModule(
        path=path,
        relpath=relpath,
        module=module_name_for(path),
        tree=tree,
        source=source,
    ), None


# -- suite driver ------------------------------------------------------------------


def default_passes() -> List[Pass]:
    from repro.staticcheck.determinism import DeterminismPass
    from repro.staticcheck.hygiene import HygienePass
    from repro.staticcheck.obsrules import ObsDisciplinePass
    from repro.staticcheck.purity import PurityPass

    return [DeterminismPass(), PurityPass(), ObsDisciplinePass(), HygienePass()]


def default_project_passes() -> List[ProjectPass]:
    from repro.staticcheck.dataflow import (
        ParallelReadinessPass,
        PortFsmPass,
        TaintPass,
    )

    return [TaintPass(), PortFsmPass(), ParallelReadinessPass()]


def all_rules(passes: Optional[Sequence[Pass]] = None,
              project_passes: Optional[Sequence[ProjectPass]] = None) -> List[Rule]:
    rules: List[Rule] = [
        Rule(
            id=PARSE_ERROR_RULE,
            title="file does not parse",
            invariant="every checked file is analyzable",
            paper="-",
            hint="fix the syntax error; unparsable files cannot be checked",
        )
    ]
    for pass_ in passes if passes is not None else default_passes():
        rules.extend(pass_.rules)
    projects = project_passes if project_passes is not None \
        else default_project_passes()
    for project_pass in projects:
        rules.extend(project_pass.rules)
    return sorted(rules, key=lambda r: r.id)


@dataclass
class SuiteResult:
    """Outcome of one suite run, before rendering."""

    findings: List[Finding]  # active: fail the run
    suppressed: List[Finding]  # matched a baseline entry
    stale_suppressions: List[Dict[str, str]]  # in-scope baseline entries that matched nothing
    files_scanned: int
    roots: List[str]
    #: machine-readable side outputs of project passes (e.g. the RS6xx
    #: shared-state inventory), keyed by artifact name
    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: incremental-cache accounting for the report's cache line; None
    #: when no cache was offered to the run
    cache_stats: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        # stale suppressions fail the run: a baseline may only shrink,
        # and a dead entry means a fix landed without its cleanup
        return not self.findings and not self.stale_suppressions

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def check_module(module: ParsedModule,
                 passes: Optional[Sequence[Pass]] = None) -> List[Finding]:
    """All findings for one parsed module (test seam for fixture snippets)."""
    found: List[Finding] = []
    for pass_ in passes if passes is not None else default_passes():
        found.extend(pass_.check(module))
    return sorted(found, key=Finding.sort_key)


def check_source(source: str, module: str = "repro.fixture",
                 path: str = "src/repro/fixture.py",
                 passes: Optional[Sequence[Pass]] = None) -> List[Finding]:
    """Check an in-memory snippet as if it were the named module.

    The unit-test entry point: rule fixtures feed violating and clean
    snippets through here without touching the filesystem.
    """
    parsed = ParsedModule(
        path=Path(path),
        relpath=path,
        module=module,
        tree=ast.parse(source),
        source=source,
    )
    return check_module(parsed, passes=passes)


def parse_sources(sources: Dict[str, str]) -> List[ParsedModule]:
    """Parse an in-memory ``{module name: source}`` mapping.

    The multi-module analogue of :func:`check_source`'s single snippet:
    fixture projects for the dataflow passes are built from a dict
    without touching the filesystem.  Paths are synthesized as
    ``src/<module path>.py``.
    """
    parsed: List[ParsedModule] = []
    for module in sorted(sources):
        path = "src/" + module.replace(".", "/") + ".py"
        parsed.append(ParsedModule(
            path=Path(path),
            relpath=path,
            module=module,
            tree=ast.parse(sources[module]),
            source=sources[module],
        ))
    return parsed


def check_project_sources(
    sources: Dict[str, str],
    project_passes: Optional[Sequence[ProjectPass]] = None,
) -> Tuple[List[Finding], Dict[str, Any]]:
    """Run project passes over an in-memory fixture project.

    Returns ``(findings, artifacts)``, findings sorted.  The unit-test
    entry point for the RS5xx/RS6xx whole-program rules.
    """
    modules = parse_sources(sources)
    from repro.staticcheck.dataflow import build_project

    project = build_project(modules)
    passes = list(project_passes) if project_passes is not None \
        else default_project_passes()
    findings: List[Finding] = []
    artifacts: Dict[str, Any] = {}
    for project_pass in passes:
        pass_findings, pass_artifacts = project_pass.run(project)
        findings.extend(pass_findings)
        artifacts.update(pass_artifacts)
    return sorted(findings, key=Finding.sort_key), artifacts


def suppression_in_scope(rule: str, path: str, roots: Sequence[str],
                         prefixes: Sequence[str]) -> bool:
    """Whether a baseline entry could possibly match in this run.

    Stale detection (and :option:`--prune-baseline`) must only judge
    entries the run actually looked at: an ``src/`` suppression is not
    stale just because this invocation scanned ``tests/``, and an RS101
    entry is not stale under ``--select RS4``.
    """
    if prefixes and not (rule == PARSE_ERROR_RULE
                         or any(rule.startswith(p) for p in prefixes)):
        return False
    entry = path.replace("\\", "/").strip("/")
    for root in roots:
        r = str(root).replace("\\", "/").strip("/")
        if r in ("", "."):
            return True
        # suffix-tolerant containment, mirroring Baseline path matching:
        # a scan rooted at "/abs/src" still covers "src/repro/x.py"
        parts = r.split("/")
        for i in range(len(parts)):
            suffix = "/".join(parts[i:])
            if entry == suffix or entry.startswith(suffix + "/"):
                return True
    return False


def run_suite(
    paths: Sequence[Path],
    passes: Optional[Sequence[Pass]] = None,
    select: Optional[Iterable[str]] = None,
    baseline: Optional[Any] = None,  # Baseline; Any avoids a cycle
    project_passes: Optional[Sequence[ProjectPass]] = None,
    cache: Optional[Any] = None,  # ResultCache; Any avoids a cycle
) -> SuiteResult:
    """Run every per-file pass and every project pass under ``paths``.

    ``project_passes`` defaults to :func:`default_project_passes` when
    both pass lists are left at their defaults; a caller customizing
    ``passes`` (rule unit tests, the doctor's quick modes) gets no
    project analysis unless it asks.  The ``cache`` (a
    :class:`repro.staticcheck.cache.ResultCache`) is consulted only for
    all-default runs -- cached results are keyed by file content, so a
    custom pass list would read stale findings.
    """
    default_local = passes is None
    passes = list(passes) if passes is not None else default_passes()
    if project_passes is None:
        project_list: List[ProjectPass] = (
            default_project_passes() if default_local else []
        )
    else:
        project_list = list(project_passes)
    use_cache = (cache is not None and getattr(cache, "enabled", False)
                 and default_local and project_passes is None)
    prefixes = tuple(select) if select else ()
    files = discover([Path(p) for p in paths])

    sources: Dict[Path, str] = {}
    digests: List[Tuple[str, str]] = []  # (relpath, content digest) per file
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        sources[path] = text
        digests.append((display_path(path), cache.digest(text) if use_cache else ""))

    findings: List[Finding] = []
    project_findings: List[Finding] = []
    artifacts: Dict[str, Any] = {}
    stats: Dict[str, Any] = {
        "enabled": bool(use_cache),
        "files": len(files),
        "file_hits": 0,
        "project_hit": False,
    }

    project_key = cache.project_key(digests) if use_cache else None
    cached_project = cache.get_project(project_key) if use_cache else None
    cached_files: Dict[Path, List[Finding]] = {}
    if use_cache:
        for (rel, digest), path in zip(digests, files):
            hit = cache.get_file(rel, digest)
            if hit is not None:
                cached_files[path] = hit

    if cached_project is not None and len(cached_files) == len(files):
        # fully warm: every per-file result and the whole-program result
        # are reusable, so nothing needs parsing at all
        stats["file_hits"] = len(files)
        stats["project_hit"] = True
        for path in files:
            findings.extend(cached_files[path])
        project_findings, artifacts = cached_project
    else:
        parsed_modules: List[ParsedModule] = []
        for (rel, digest), path in zip(digests, files):
            parsed, parse_error = parse_module(path, source=sources[path])
            hit = cached_files.get(path)
            if hit is not None:
                stats["file_hits"] += 1
                findings.extend(hit)
            else:
                found = [parse_error] if parse_error is not None \
                    else check_module(parsed, passes=passes)  # type: ignore[arg-type]
                if use_cache:
                    cache.put_file(rel, digest, found)
                findings.extend(found)
            if parsed is not None:
                parsed_modules.append(parsed)
        if cached_project is not None:
            stats["project_hit"] = True
            project_findings, artifacts = cached_project
        elif project_list:
            from repro.staticcheck.dataflow import build_project

            project = build_project(parsed_modules)
            for project_pass in project_list:
                pass_findings, pass_artifacts = project_pass.run(project)
                project_findings.extend(pass_findings)
                artifacts.update(pass_artifacts)
            if use_cache:
                cache.put_project(project_key, project_findings, artifacts)
        if use_cache:
            cache.save(digests)

    findings = findings + project_findings
    if prefixes:
        findings = [
            f for f in findings
            if f.rule == PARSE_ERROR_RULE or any(f.rule.startswith(p) for p in prefixes)
        ]
    findings.sort(key=Finding.sort_key)

    roots = [display_path(Path(p)) for p in paths]
    active: List[Finding] = []
    suppressed: List[Finding] = []
    stale: List[Dict[str, str]] = []
    if baseline is not None:
        for finding in findings:
            entry = baseline.match(finding)
            if entry is not None and finding.rule != PARSE_ERROR_RULE:
                finding.justification = entry.justification
                suppressed.append(finding)
            else:
                active.append(finding)
        stale = [
            {"rule": s.rule, "path": s.path, "justification": s.justification}
            for s in baseline.stale()
            if suppression_in_scope(s.rule, s.path, roots, prefixes)
        ]
    else:
        active = findings
    return SuiteResult(
        findings=active,
        suppressed=suppressed,
        stale_suppressions=stale,
        files_scanned=len(files),
        roots=roots,
        artifacts=artifacts,
        cache_stats=stats if cache is not None else None,
    )
