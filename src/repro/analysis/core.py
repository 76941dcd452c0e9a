"""Core of the invariant checker: findings, file context, rule registry.

The checker is a plain :mod:`ast` walk — no imports of the analyzed code,
no type inference — so it runs on any tree in milliseconds and cannot be
broken by import-time side effects. Each rule sees a :class:`FileContext`
(parsed tree, parent links, source lines, comment map) and yields
:class:`Finding` records; cross-file rules accumulate state on the shared
:class:`ProjectContext` and report from :meth:`Rule.finish`.

Two suppression mechanisms exist, both explicit and reviewable:

* inline ``# repro: noqa(RPA001)`` on the offending line (or alone on the
  line directly above) — for violations that are *intentional*, with the
  reason in the trailing comment text;
* a committed baseline file (:mod:`repro.analysis.baseline`) — for
  *grandfathered* findings awaiting a fix. CI fails when a baseline entry
  goes stale, so suppressions cannot outlive the code they excuse.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "FileContext",
    "ProjectContext",
    "Rule",
    "AnalysisResult",
    "register",
    "all_rules",
    "run_paths",
    "dotted_name",
]

NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\(([A-Z0-9_,\s]+)\))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored for humans (line) and for the baseline
    (rule + path + symbol + snippet, all line-number independent)."""

    rule: str
    path: str  # project-relative, posix separators
    line: int
    message: str
    snippet: str = ""
    symbol: str = ""  # enclosing qualname, e.g. "QueryLog.dump"

    @property
    def key(self) -> str:
        """Stable identity used by baseline matching (survives reflow)."""
        return "::".join(
            (self.rule, self.path, self.symbol, self.snippet.strip())
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        location = f"{self.path}:{self.line}"
        text = f"{location}: {self.rule} {self.message}"
        if self.snippet.strip():
            text += f"\n    {self.snippet.strip()}"
        return text


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        # e.g. ``self.cache.stats().hits`` — opaque base, keep the tail
        parts.append("()")
    else:
        return None
    return ".".join(reversed(parts))


class FileContext:
    """Everything a rule needs about one source file."""

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module, project: "ProjectContext") -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.project = project
        self.module = relpath[:-3].replace("/", ".") \
            if relpath.endswith(".py") else relpath
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.comments = self._collect_comments(source)

    @staticmethod
    def _collect_comments(source: str) -> dict[int, str]:
        comments: dict[int, str] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    comments[token.start[0]] = token.string
        except (tokenize.TokenError, IndentationError):
            # A file that parsed but does not tokenize cleanly keeps its
            # findings; it just loses comment-based escapes.
            return comments
        return comments

    # -- tree navigation ---------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor,
                          (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def qualname(self, node: ast.AST) -> str:
        """Dotted path of enclosing class/function defs, innermost last."""
        parts: list[str] = []
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                parts.append(ancestor.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            parts.insert(0, node.name)
        return ".".join(reversed(parts))

    # -- source access -----------------------------------------------------

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def comment_in_range(self, first: int, last: int,
                         pattern: re.Pattern[str]) -> bool:
        return any(
            pattern.search(self.comments[line])
            for line in range(first, last + 1)
            if line in self.comments
        )

    # -- noqa --------------------------------------------------------------

    def noqa_rules(self, lineno: int) -> set[str] | None:
        """Rules suppressed at ``lineno``; empty set = all rules; None =
        no suppression. A comment-only line directly above also applies,
        so 79-column lines keep their escape readable."""
        for candidate in (lineno, lineno - 1):
            comment = self.comments.get(candidate)
            if comment is None:
                continue
            if candidate != lineno:
                # the line above only counts when it is comment-only
                stripped = self.lines[candidate - 1].strip()
                if not stripped.startswith("#"):
                    continue
            match = NOQA_RE.search(comment)
            if match:
                if match.group(1):
                    return {
                        rule.strip()
                        for rule in match.group(1).split(",")
                        if rule.strip()
                    }
                return set()
        return None

    def make_finding(self, rule: str, node: ast.AST, message: str,
                     symbol: str | None = None) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule=rule,
            path=self.relpath,
            line=lineno,
            message=message,
            snippet=self.snippet(lineno),
            symbol=symbol if symbol is not None else self.qualname(node),
        )


class ProjectContext:
    """Cross-file state: the root, the scanned files, shared rule scratch
    space (e.g. the global lock-nesting graph), and cached baselines."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.files: list[FileContext] = []
        self.state: dict[str, object] = {}
        self._bench_cache: dict[Path, frozenset[str] | None] = {}

    def bench_keys(self, start: Path, filename: str) -> frozenset[str] | None:
        """Top-level keys of the committed ``filename`` bench baseline,
        searched upward from ``start`` to the project root; ``None`` when
        no committed file exists (the rule then skips, it does not guess).
        """
        import json

        directory = start if start.is_dir() else start.parent
        candidates = [directory, *directory.parents]
        for candidate in candidates:
            path = candidate / filename
            if path in self._bench_cache:
                return self._bench_cache[path]
            if path.is_file():
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                    keys = frozenset(data) if isinstance(data, dict) \
                        else frozenset()
                except (OSError, ValueError):
                    keys = frozenset()
                self._bench_cache[path] = keys
                return keys
            if candidate == self.root:
                break
        return None


class Rule:
    """One invariant. Subclasses set the id/name/description and implement
    :meth:`check`; cross-file rules also implement :meth:`finish`."""

    id: str = "RPA000"
    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finish(self, project: ProjectContext) -> Iterable[Finding]:
        return ()


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    # Import for the registration side effect; cheap and idempotent.
    from . import rules  # noqa: F401  (registration import)

    return dict(sorted(_REGISTRY.items()))


@dataclass
class AnalysisResult:
    """One checker run: what fired, what inline-noqa ate, what broke."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors


def discover_files(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
                and not any(part.startswith(".") for part in candidate.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
    return files


def run_paths(
    paths: Iterable[str | Path],
    root: str | Path | None = None,
    rule_ids: Iterable[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> AnalysisResult:
    """Run the registered rules over ``paths`` and apply inline noqa.

    ``root`` anchors relative paths in findings (defaults to the current
    directory); baseline subtraction is the CLI's job, not this one's.
    """
    root_path = Path(root).resolve() if root is not None else Path.cwd()
    registry = all_rules()
    if rule_ids is not None:
        unknown = set(rule_ids) - set(registry)
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
        registry = {rid: registry[rid] for rid in rule_ids}
    rules = [cls() for cls in registry.values()]

    project = ProjectContext(root_path)
    result = AnalysisResult()
    raw: list[tuple[FileContext, Finding]] = []

    for file_path in discover_files(Path(p) for p in paths):
        resolved = file_path.resolve()
        try:
            relpath = resolved.relative_to(root_path).as_posix()
        except ValueError:
            relpath = file_path.as_posix()
        try:
            source = resolved.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(resolved))
        except (OSError, SyntaxError, ValueError) as exc:
            result.parse_errors.append(Finding(
                rule="RPA000", path=relpath, line=getattr(exc, "lineno", 1)
                or 1, message=f"file could not be analyzed: {exc}",
            ))
            continue
        ctx = FileContext(resolved, relpath, source, tree, project)
        project.files.append(ctx)
        result.files_scanned += 1
        if progress is not None:
            progress(relpath)
        for rule in rules:
            for finding in rule.check(ctx):
                raw.append((ctx, finding))

    contexts = {ctx.relpath: ctx for ctx in project.files}
    for rule in rules:
        for finding in rule.finish(project):
            raw.append((contexts.get(finding.path, project.files[0]
                        if project.files else None), finding))

    for ctx, finding in raw:
        suppressed_rules = ctx.noqa_rules(finding.line) \
            if ctx is not None else None
        if suppressed_rules is not None and (
            not suppressed_rules or finding.rule in suppressed_rules
        ):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    result.suppressed.sort(key=lambda f: (f.path, f.line, f.rule))
    return result
