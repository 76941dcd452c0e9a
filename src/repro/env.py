"""Typed registry of every ``REPRO_*`` environment variable.

Seven PRs of growth left ``REPRO_*`` knobs scattered as ad hoc
``os.environ`` reads with per-site falsy conventions. This module is the
single declaration point — name, type, default, docstring — and the
**only** place in the tree allowed to touch ``os.environ`` (enforced by
the RPA004 rule in :mod:`repro.analysis`). Everything else reads through
the typed accessors::

    from repro.env import read_flag, read_str

    if read_flag("REPRO_TRACE"):
        ...

Reads are live (no import-time caching), so tests that monkeypatch
``os.environ`` keep working. ``python -m repro.env`` prints the registry
as the Markdown table embedded in the README (and a drift test holds the
two together).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "EnvVar",
    "REGISTRY",
    "declared",
    "read_raw",
    "read_str",
    "read_flag",
    "read_int",
    "markdown_table",
]

# One definition of falsy for flag-typed variables, replacing the three
# slightly different spellings the tree grew (("", "0"), ("", "0",
# "false"), case-sensitive vs not).
_FALSY = frozenset({"", "0", "false", "no", "off"})


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one environment variable."""

    name: str
    kind: str  # "flag" | "string" | "path" | "int"
    default: str
    doc: str


REGISTRY: tuple[EnvVar, ...] = (
    EnvVar(
        "REPRO_TRACE", "flag", "0",
        "Enable the span tracer at process start; spans land in "
        "`OBS.tracer.recorder` and exporters (`repro.obs`).",
    ),
    EnvVar(
        "REPRO_QUERYLOG", "flag", "0",
        "Record every query in the structured query log ring "
        "(`repro.obs.querylog`). Implied on when REPRO_QUERYLOG_DIR is "
        "set; always on inside `repro.server`.",
    ),
    EnvVar(
        "REPRO_QUERYLOG_DIR", "path", "",
        "Directory for the query log's JSONL mirror "
        "(`queries-<pid>.jsonl`); setting it implies REPRO_QUERYLOG=1.",
    ),
    EnvVar(
        "REPRO_FLIGHT_DIR", "path", "",
        "Directory where the query log's dumps (the newest records, "
        "taken on a budget violation or an error) are written as "
        "`flight-<seq>.jsonl` (CI uploads these as artifacts).",
    ),
    EnvVar(
        "REPRO_BENCH_QUICK", "flag", "0",
        "Shrink the benchmark suite to CI smoke size; regress.py widens "
        "its tolerances accordingly (`--quick`).",
    ),
    EnvVar(
        "REPRO_SKETCH_PRECISION", "int", "12",
        "HLL register precision `p` (2**p one-byte registers) for distinct "
        "counting in the approximate tier and `/statistics` "
        "(`repro.approx.sketch`); 12 ≈ 1.6% standard error in 4 KiB.",
    ),
    EnvVar(
        "REPRO_SKETCH_GROUPS", "int", "256",
        "Group budget for the grouped-moments sketch: at most this many "
        "GROUP BY keys are tracked exactly, the rest fold into the "
        "`other` bucket (`repro.approx.sketch.moments`).",
    ),
    EnvVar(
        "REPRO_SKETCH_K", "int", "128",
        "Compactor budget `k` for the KLL quantile sketch — higher k, "
        "tighter rank error, more memory (`repro.approx.sketch.quantile`).",
    ),
)

_BY_NAME: dict[str, EnvVar] = {var.name: var for var in REGISTRY}


def declared(name: str) -> EnvVar:
    """The declaration for ``name``; raises ``KeyError`` when unknown —
    an undeclared variable is a bug, not a default."""
    return _BY_NAME[name]


def read_raw(name: str) -> str:
    """Live raw value of a *declared* variable (the single point where
    the process environment is consulted)."""
    declared(name)
    return os.environ.get(name, "")


def read_str(name: str) -> str:
    """Stripped string value, falling back to the declared default."""
    value = read_raw(name).strip()
    return value if value else declared(name).default


def read_flag(name: str) -> bool:
    """Boolean value: unset/empty/``0``/``false``/``no``/``off`` (any
    case) is False, everything else True."""
    return read_raw(name).strip().lower() not in _FALSY


def read_int(name: str) -> int:
    """Integer value, falling back to the declared default on unset *or*
    unparseable input (a malformed knob should degrade to the documented
    default, not crash the server at import time)."""
    value = read_raw(name).strip()
    try:
        return int(value)
    except ValueError:
        return int(declared(name).default)


def markdown_table() -> str:
    """The registry as a GitHub-flavored Markdown table (README embeds
    this; a drift test holds them together)."""
    rows = [
        "| Variable | Type | Default | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for var in REGISTRY:
        default = f"`{var.default}`" if var.default else "*(unset)*"
        rows.append(f"| `{var.name}` | {var.kind} | {default} | {var.doc} |")
    return "\n".join(rows) + "\n"


if __name__ == "__main__":
    print(markdown_table(), end="")
