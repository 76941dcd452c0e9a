"""The repro.env registry: typed readers, completeness, README drift."""

import re
from pathlib import Path

import pytest

from repro.env import (
    REGISTRY,
    declared,
    markdown_table,
    read_flag,
    read_raw,
    read_str,
)

REPO = Path(__file__).resolve().parents[2]


class TestReaders:
    def test_flag_falsy_spellings(self, monkeypatch):
        for falsy in ("", "0", "false", "False", "NO", "off"):
            monkeypatch.setenv("REPRO_TRACE", falsy)
            assert read_flag("REPRO_TRACE") is False
        for truthy in ("1", "true", "yes", "on", "anything"):
            monkeypatch.setenv("REPRO_TRACE", truthy)
            assert read_flag("REPRO_TRACE") is True

    def test_flag_unset_is_false(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert read_flag("REPRO_TRACE") is False

    def test_str_falls_back_to_declared_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SKETCH_K", raising=False)
        assert read_str("REPRO_SKETCH_K") == "128"
        monkeypatch.setenv("REPRO_SKETCH_K", "  64  ")
        assert read_str("REPRO_SKETCH_K") == "64"

    def test_reads_are_live(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert read_flag("REPRO_TRACE") is True
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert read_flag("REPRO_TRACE") is False

    def test_undeclared_variable_is_an_error(self):
        with pytest.raises(KeyError):
            read_raw("REPRO_NOT_DECLARED")
        with pytest.raises(KeyError):
            declared("REPRO_NOT_DECLARED")


class TestCompleteness:
    def test_every_repro_token_in_tree_is_declared(self):
        """Grep src/ and benchmarks/ for REPRO_* tokens: each must be a
        declared variable, so no knob exists outside the registry."""
        declared_names = {var.name for var in REGISTRY}
        token_re = re.compile(r"\bREPRO_[A-Z_]+\b")
        seen: set[str] = set()
        for base in ("src", "benchmarks"):
            for path in sorted((REPO / base).rglob("*.py")):
                if "__pycache__" in path.parts:
                    continue
                seen.update(token_re.findall(path.read_text(
                    encoding="utf-8")))
        assert seen <= declared_names
        # and the registry carries no dead declarations either
        assert declared_names <= seen

    def test_registry_is_the_only_environ_touchpoint(self):
        from repro.analysis import run_paths

        result = run_paths([REPO / "src", REPO / "benchmarks"],
                           root=REPO, rule_ids=["RPA004"])
        assert result.findings == []
        assert result.suppressed == []


class TestReadmeTable:
    def test_readme_table_matches_generator(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        match = re.search(
            r"<!-- env-table:begin -->\n(.*?)<!-- env-table:end -->",
            readme, re.DOTALL,
        )
        assert match, "README is missing the env-table markers"
        assert match.group(1) == markdown_table(), (
            "README env table drifted: regenerate it with "
            "`python -m repro.env`"
        )
