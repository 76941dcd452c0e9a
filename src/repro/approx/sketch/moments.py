"""Grouped moments: per-group COUNT/SUM/AVG/variance under a group budget.

The sketch behind approximate ``GROUP BY``: one
:class:`~repro.approx.progressive.StreamingMoments` accumulator per group
key, capped at ``max_groups`` tracked groups. Once the budget is full, new
keys fold into a single ``other`` bucket — their values still count toward
stream totals, and an embedded small HLL estimates how many distinct
groups the bucket swallowed, so the answer can say "... and ~173 more
groups" instead of silently truncating.

Group keys are opaque strings (the server wire-encodes RDF terms to their
canonical JSON before feeding the sketch), which keeps this module free of
SPARQL types. Merging unions the group tables moment-wise (lossless, per
Chan et al.) and re-applies the budget by folding the smallest groups —
after a merge the surviving per-group stats are still exact over
everything either side saw for that key, provided the key never spilled.
"""

from __future__ import annotations

from ..progressive import StreamingMoments
from .base import SketchEstimate, register_sketch
from .hll import HllSketch

__all__ = ["GroupedMomentsSketch", "OTHER_BUCKET"]

# Reserved display key for the overflow bucket; real group keys are
# canonical-JSON strings so this cannot collide.
OTHER_BUCKET = "__other__"

_OVERFLOW_HLL_PRECISION = 10  # ~3.3% RSE is plenty for "~N more groups"


class GroupedMomentsSketch:
    """Bounded-cardinality per-group moments with an ``other`` bucket."""

    kind = "grouped_moments"

    __slots__ = ("max_groups", "confidence", "_groups", "_other",
                 "_other_keys", "n")

    def __init__(
        self, max_groups: int = 256, confidence: float = 0.95
    ) -> None:
        if max_groups < 1:
            raise ValueError("max_groups must be positive")
        self.max_groups = max_groups
        self.confidence = confidence
        self._groups: dict[str, StreamingMoments] = {}
        self._other = StreamingMoments(confidence)
        self._other_keys = HllSketch(
            precision=_OVERFLOW_HLL_PRECISION, confidence=confidence
        )
        self.n = 0

    # -- protocol ----------------------------------------------------------

    def add(self, value: object) -> None:
        """Protocol-shaped entry point: ``value`` is a ``(key, x)`` pair."""
        key, x = value  # type: ignore[misc]
        self.add_group(str(key), float(x))

    def add_group(self, key: str, value: float = 1.0) -> None:
        """Absorb one observation for ``key`` (``value`` defaults to 1 so
        a pure COUNT query can feed rows without inventing a measure)."""
        self.n += 1
        moments = self._groups.get(key)
        if moments is None:
            if len(self._groups) >= self.max_groups:
                self._other.add(value)
                self._other_keys.add(key)
                return
            moments = StreamingMoments(self.confidence)
            self._groups[key] = moments
        moments.add(value)

    def add_groups(self, keys, counts, means, m2s) -> None:
        """Absorb whole groups at once: ``counts[i]`` observations of
        ``keys[i]`` with mean ``means[i]`` and summed squared deviations
        ``m2s[i]`` — what a ``bincount`` over a batch of columns gives,
        in place of one :meth:`add_group` per row. A merge, so the budget
        is re-applied as :meth:`merge` does it: the largest groups stay
        tracked, whatever order the rows arrived in."""
        for key, n, mean, m2 in zip(keys, counts, means, m2s):
            if not n:
                continue
            mine = self._groups.get(key)
            if mine is None:
                mine = self._groups[key] = StreamingMoments(self.confidence)
            mine.merge(StreamingMoments.from_tuple((n, mean, m2), self.confidence))
            self.n += n
        if len(self._groups) > self.max_groups:
            self._spill_to_budget()

    def merge(self, other: "GroupedMomentsSketch") -> None:
        if not isinstance(other, GroupedMomentsSketch):
            raise ValueError(
                f"cannot merge {type(other).__name__} into GroupedMoments"
            )
        for key, theirs in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                mine = StreamingMoments(self.confidence)
                self._groups[key] = mine
            mine.merge(theirs)
        self._other.merge(other._other)
        self._other_keys.merge(other._other_keys)
        self.n += other.n
        if len(self._groups) > self.max_groups:
            self._spill_to_budget()

    def _spill_to_budget(self) -> None:
        """Fold the smallest groups into ``other`` until back in budget
        (ties by key: the outcome must not depend on arrival order)."""
        ranked = sorted(
            self._groups, key=lambda key: (-self._groups[key].n, key)
        )
        for key in ranked[self.max_groups:]:
            spilled = self._groups.pop(key)
            self._other.merge(spilled)
            self._other_keys.add(key)

    # -- reading -----------------------------------------------------------

    def group_keys(self) -> list[str]:
        return sorted(self._groups)

    def group(self, key: str) -> StreamingMoments | None:
        return self._groups.get(key)

    def group_stats(self) -> list[tuple[str, int, float, float, float]]:
        """``(key, count, sum, mean, variance)`` rows, largest group first;
        the ``other`` bucket (when non-empty) is appended last under
        :data:`OTHER_BUCKET`."""
        rows = [
            (key, m.n, m.total, m.mean, m.variance)
            for key, m in sorted(
                self._groups.items(), key=lambda item: -item[1].n
            )
        ]
        if self._other.n:
            m = self._other
            rows.append((OTHER_BUCKET, m.n, m.total, m.mean, m.variance))
        return rows

    @property
    def spilled(self) -> bool:
        """True when any group was folded into the ``other`` bucket."""
        return self._other.n > 0

    def other_group_estimate(self) -> float:
        """Approximate number of distinct groups inside ``other``."""
        return self._other_keys.cardinality() if self.spilled else 0.0

    def estimate(self) -> SketchEstimate:
        """Total observation count — exact over the stream the sketch saw
        (per-group sampling error is the *serving* layer's scale-up job)."""
        return SketchEstimate(
            value=float(self.n),
            error_bound=0.0,
            bound_kind="absolute",
            confidence=1.0,
            n=self.n,
        )

    # -- wire --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "max_groups": self.max_groups,
            "confidence": self.confidence,
            "n": self.n,
            "groups": {
                key: list(m.as_tuple())
                for key, m in sorted(self._groups.items())
            },
            "other": list(self._other.as_tuple()),
            "other_keys": self._other_keys.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GroupedMomentsSketch":
        sketch = cls(
            max_groups=int(payload["max_groups"]),
            confidence=float(payload.get("confidence", 0.95)),
        )
        sketch.n = int(payload.get("n", 0))
        for key, state in payload.get("groups", {}).items():
            sketch._groups[str(key)] = StreamingMoments.from_tuple(
                state, sketch.confidence
            )
        if "other" in payload:
            sketch._other = StreamingMoments.from_tuple(
                payload["other"], sketch.confidence
            )
        if "other_keys" in payload:
            sketch._other_keys = HllSketch.from_dict(payload["other_keys"])
        return sketch

    def size_bytes(self) -> int:
        per_group = 96  # three floats + dict slot + key, roughly
        keys = sum(len(key) for key in self._groups)
        return (
            len(self._groups) * per_group
            + keys
            + self._other_keys.size_bytes()
            + 64
        )

    def __len__(self) -> int:
        return len(self._groups)


register_sketch(GroupedMomentsSketch.kind, GroupedMomentsSketch.from_dict)
