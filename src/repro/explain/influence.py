"""Outlier explanation for aggregate views (Scorpion, Wu & Madden [141]).

Survey §2, assisting users: "in other cases systems provide explanations
regarding data trends and anomalies; e.g., [141]". Scorpion's question: the
user marks some bars of an aggregate chart as *outliers* (and optionally
some as *normal*); which input tuples — described by a simple predicate —
caused the anomaly?

This module implements the single-predicate core of that idea:

* candidate predicates are enumerated over the non-aggregated attributes
  (equality on categoricals, quantile-split ranges on numerics);
* each predicate is scored by **influence**: how far removing its tuples
  moves the outlier groups' aggregate toward the normal groups' level,
  penalized by how much it disturbs the normal (holdout) groups.

The result is a ranked list of human-readable explanations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["Predicate", "Explanation", "explain_outliers"]

Row = dict[str, object]


@dataclass(frozen=True)
class Predicate:
    """A simple selection over one attribute."""

    attribute: str
    operator: str  # "=" | "in_range"
    value: object = None
    low: float = 0.0
    high: float = 0.0

    def matches(self, row: Row) -> bool:
        value = row.get(self.attribute)
        if value is None:
            return False
        if self.operator == "=":
            return value == self.value
        if self.operator == "in_range":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return False
            return self.low <= float(value) < self.high
        raise ValueError(f"unknown operator {self.operator!r}")

    def describe(self) -> str:
        if self.operator == "=":
            return f"{self.attribute} = {self.value!r}"
        return f"{self.low:g} <= {self.attribute} < {self.high:g}"


@dataclass(frozen=True)
class Explanation:
    """One ranked finding."""

    predicate: Predicate
    influence: float
    outlier_shift: float  # how far the outlier aggregate moved (toward normal)
    holdout_shift: float  # collateral movement of the normal groups
    tuples_removed: int

    def __str__(self) -> str:
        return (
            f"{self.predicate.describe()}  "
            f"(influence {self.influence:.3g}, removes {self.tuples_removed} tuples)"
        )


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _aggregate_by_group(
    rows: Sequence[Row], group_by: str, measure: str, keys: set
) -> dict[object, float]:
    groups: dict[object, list[float]] = {key: [] for key in keys}
    for row in rows:
        key = row.get(group_by)
        if key in groups:
            value = row.get(measure)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                groups[key].append(float(value))
    return {k: (_mean(v) if v else None) for k, v in groups.items()}


def _candidate_predicates(
    rows: Sequence[Row],
    attributes: Sequence[str],
    max_categorical: int = 20,
    numeric_splits: int = 4,
) -> list[Predicate]:
    candidates: list[Predicate] = []
    for attribute in attributes:
        values = [row.get(attribute) for row in rows if row.get(attribute) is not None]
        if not values:
            continue
        numeric = [
            float(v) for v in values
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        if len(numeric) == len(values):
            ordered = sorted(numeric)
            edges = [
                ordered[min(int(i * len(ordered) / numeric_splits), len(ordered) - 1)]
                for i in range(numeric_splits)
            ] + [ordered[-1] + 1e-9]
            for low, high in zip(edges, edges[1:]):
                if high > low:
                    candidates.append(
                        Predicate(attribute, "in_range", low=low, high=high)
                    )
        else:
            distinct = sorted({str(v) for v in values})
            if len(distinct) <= max_categorical:
                raw = {v if not isinstance(v, str) else v for v in values}
                for value in sorted(raw, key=str):
                    candidates.append(Predicate(attribute, "=", value=value))
    return candidates


def explain_outliers(
    rows: Sequence[Row],
    group_by: str,
    measure: str,
    outlier_groups: Sequence[object],
    normal_groups: Sequence[object] | None = None,
    attributes: Sequence[str] | None = None,
    direction: str = "high",
    top_k: int = 5,
    min_support: int = 1,
) -> list[Explanation]:
    """Rank single predicates by how well they explain the outlier groups.

    ``direction`` says what the user flagged: ``"high"`` — the outlier
    groups' mean is suspiciously high (an explanation should *lower* it);
    ``"low"`` — the reverse. Normal groups default to all other groups.
    """
    if direction not in ("high", "low"):
        raise ValueError("direction must be 'high' or 'low'")
    if top_k < 1:
        raise ValueError("top_k must be positive")
    outliers = set(outlier_groups)
    if not outliers:
        raise ValueError("need at least one outlier group")
    all_groups = {row.get(group_by) for row in rows} - {None}
    normals = set(normal_groups) if normal_groups is not None else all_groups - outliers

    if attributes is None:
        attributes = sorted(
            {k for row in rows for k in row} - {group_by, measure}
        )

    before_out = _aggregate_by_group(rows, group_by, measure, outliers)
    before_norm = _aggregate_by_group(rows, group_by, measure, normals)
    sign = 1.0 if direction == "high" else -1.0

    explanations: list[Explanation] = []
    for predicate in _candidate_predicates(rows, attributes):
        kept = [row for row in rows if not predicate.matches(row)]
        removed = len(rows) - len(kept)
        if removed < min_support or removed == len(rows):
            continue
        after_out = _aggregate_by_group(kept, group_by, measure, outliers)
        after_norm = _aggregate_by_group(kept, group_by, measure, normals)

        outlier_shift = 0.0
        valid = 0
        for key in outliers:
            if before_out.get(key) is not None and after_out.get(key) is not None:
                outlier_shift += sign * (before_out[key] - after_out[key])
                valid += 1
        if not valid:
            continue
        outlier_shift /= valid

        holdout_shift = 0.0
        if normals:
            count = 0
            for key in normals:
                if before_norm.get(key) is not None and after_norm.get(key) is not None:
                    holdout_shift += abs(before_norm[key] - after_norm[key])
                    count += 1
            if count:
                holdout_shift /= count

        influence = outlier_shift - holdout_shift
        if influence > 0:
            explanations.append(
                Explanation(
                    predicate=predicate,
                    influence=influence,
                    outlier_shift=outlier_shift,
                    holdout_shift=holdout_shift,
                    tuples_removed=removed,
                )
            )
    explanations.sort(key=lambda e: (-e.influence, e.predicate.describe()))
    return explanations[:top_k]
