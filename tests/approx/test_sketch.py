"""The mergeable sketch families: bounds hold, merges compose, wire
round-trips.

Every family carries the same contract (repro.approx.sketch.base): the
measured error of ``estimate()`` must sit inside the *declared* bound,
and ``merge(sketch(A), sketch(B))`` must summarize ``A ∪ B`` — the
property that lets one combine step serve shards, federation members,
and progressive passes alike.
"""

import random

import pytest

from repro.approx.sketch import (
    GroupedMomentsSketch,
    HllSketch,
    KllSketch,
    OTHER_BUCKET,
    SpaceSavingSketch,
    default_groups,
    default_k,
    default_precision,
    deserialize_sketch,
    hash_term,
    registered_kinds,
    serialize_sketch,
    sketch_from_bytes,
    sketch_to_bytes,
)


class TestHll:
    def test_error_within_declared_bound(self):
        sketch = HllSketch(precision=12)
        true_distinct = 20_000
        for i in range(true_distinct):
            sketch.add(f"term-{i}")
            sketch.add(f"term-{i}")  # duplicates must not inflate
        estimate = sketch.estimate()
        relative_error = abs(estimate.value - true_distinct) / true_distinct
        assert relative_error <= estimate.error_bound
        assert estimate.bound_kind == "relative"

    def test_small_range_uses_linear_counting(self):
        sketch = HllSketch(precision=12)
        for i in range(100):
            sketch.add(i)
        assert abs(sketch.cardinality() - 100) <= 5

    def test_merge_equals_single_pass(self):
        """Register-wise max is lossless: the merged sketch is *identical*
        to one built over the concatenated stream."""
        left, right, combined = (HllSketch(precision=10) for _ in range(3))
        for i in range(5_000):
            target = left if i % 2 else right
            target.add(i)
            combined.add(i)
        left.merge(right)
        assert left.cardinality() == combined.cardinality()

    def test_merge_deduplicates_overlap(self):
        left, right = HllSketch(precision=12), HllSketch(precision=12)
        for i in range(4_000):
            left.add(i)
            right.add(i + 2_000)  # half the stream is shared
        left.merge(right)
        estimate = left.estimate()
        assert abs(estimate.value - 6_000) / 6_000 <= estimate.error_bound

    def test_precision_mismatch_refused(self):
        with pytest.raises(ValueError):
            HllSketch(precision=10).merge(HllSketch(precision=12))

    def test_hash_is_process_stable(self):
        # blake2b, not the per-process-salted builtin hash
        assert hash_term("http://example.org/x") == hash_term(
            "http://example.org/x"
        )


class TestKll:
    def test_rank_error_within_ledger(self):
        rng = random.Random(7)
        values = [rng.gauss(100.0, 15.0) for _ in range(30_000)]
        sketch = KllSketch(k=128)
        for value in values:
            sketch.add(value)
        ordered = sorted(values)
        for q in (0.1, 0.5, 0.9):
            estimate = sketch.quantile(q)
            true_rank = (
                sum(1 for v in ordered if v <= estimate) / len(ordered)
            )
            assert abs(true_rank - q) <= sketch.rank_error

    def test_merge_within_bound(self):
        rng = random.Random(11)
        values = [rng.expovariate(0.01) for _ in range(20_000)]
        parts = [KllSketch(k=128, seed=s) for s in (1, 2, 3, 4)]
        for i, value in enumerate(values):
            parts[i % 4].add(value)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        assert len(merged) == len(values)
        ordered = sorted(values)
        median = merged.quantile(0.5)
        true_rank = sum(1 for v in ordered if v <= median) / len(ordered)
        assert abs(true_rank - 0.5) <= merged.rank_error


class TestSpaceSaving:
    @staticmethod
    def _zipf_stream(n, rng):
        # key-0 dominates: weights 1/(rank+1)
        keys = [f"key-{i}" for i in range(200)]
        weights = [1.0 / (i + 1) for i in range(200)]
        return rng.choices(keys, weights=weights, k=n)

    def test_overestimate_with_honest_error(self):
        """SpaceSaving guarantees estimate >= truth and
        estimate - error <= truth, per tracked key."""
        rng = random.Random(3)
        stream = self._zipf_stream(30_000, rng)
        truth: dict = {}
        sketch = SpaceSavingSketch(capacity=32)
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
            sketch.add(key)
        for key, count, error in sketch.top(5):
            assert count >= truth.get(key, 0)
            assert count - error <= truth.get(key, 0)

    def test_merge_keeps_guarantees(self):
        rng = random.Random(5)
        stream = self._zipf_stream(30_000, rng)
        truth: dict = {}
        parts = [SpaceSavingSketch(capacity=32) for _ in range(3)]
        for i, key in enumerate(stream):
            truth[key] = truth.get(key, 0) + 1
            parts[i % 3].add(key)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        assert merged.n == len(stream)
        top_key, count, error = merged.top(1)[0]
        assert top_key == "key-0"
        assert count >= truth["key-0"]
        assert count - error <= truth["key-0"]


class TestGroupedMoments:
    def test_tracks_groups_exactly_within_budget(self):
        sketch = GroupedMomentsSketch(max_groups=16)
        for i in range(1_000):
            sketch.add_group(f"g{i % 8}", float(i % 10))
        assert not sketch.spilled
        stats = dict(
            (key, (n, total)) for key, n, total, _m, _v in sketch.group_stats()
        )
        assert stats["g0"][0] == 125

    def test_spills_smallest_groups_into_other(self):
        sketch = GroupedMomentsSketch(max_groups=4)
        for i in range(400):
            sketch.add_group(f"g{i % 8}", 1.0)
        assert sketch.spilled
        tracked = [k for k in sketch.group_keys() if k != OTHER_BUCKET]
        assert len(tracked) <= 4
        # no observation is lost: tracked + other == stream length
        total_n = sum(n for _k, n, _t, _m, _v in sketch.group_stats())
        assert total_n == 400
        assert sketch.other_group_estimate() > 0

    def test_whole_groups_add_up_to_the_per_row_feed(self):
        """``add_groups`` takes a batch's per-group n / mean / M2; in two
        batches it ends where one ``add_group`` per row does."""
        rng = random.Random(5)
        rows = [(f"g{rng.randrange(5)}", float(rng.randrange(50)))
                for _ in range(600)]
        per_row = GroupedMomentsSketch(max_groups=16)
        for key, value in rows:
            per_row.add_group(key, value)
        bulk = GroupedMomentsSketch(max_groups=16)
        for batch in (rows[:250], rows[250:]):
            values: dict = {}
            for key, value in batch:
                values.setdefault(key, []).append(value)
            means = {k: sum(v) / len(v) for k, v in values.items()}
            bulk.add_groups(
                list(values),
                [len(v) for v in values.values()],
                [means[k] for k in values],
                [sum((x - means[k]) ** 2 for x in v) for k, v in values.items()],
            )
        assert bulk.n == per_row.n == 600
        for key, n, total, mean, variance in per_row.group_stats():
            moments = bulk.group(key)
            assert moments.n == n and moments.total == pytest.approx(total)
            assert moments.variance == pytest.approx(variance)

    def test_budget_keeps_the_largest_groups_whatever_the_order(self):
        sizes = {"a": 5, "b": 40, "c": 40, "d": 7, "e": 90}
        outcomes = []
        for order in (sorted(sizes), sorted(sizes, reverse=True)):
            sketch = GroupedMomentsSketch(max_groups=2)
            sketch.add_groups(
                order, [sizes[k] for k in order], [1.0] * 5, [0.0] * 5
            )
            outcomes.append(sketch.to_dict())
            assert sketch.group_keys() == ["b", "e"]  # the tie goes by key
            assert sketch.spilled and sketch.n == 182
        assert outcomes[0] == outcomes[1]

    def test_merge_unions_groups(self):
        left = GroupedMomentsSketch(max_groups=32)
        right = GroupedMomentsSketch(max_groups=32)
        combined = GroupedMomentsSketch(max_groups=32)
        rng = random.Random(13)
        for _ in range(2_000):
            key = f"g{rng.randrange(6)}"
            value = rng.uniform(0, 100)
            (left if rng.random() < 0.5 else right).add_group(key, value)
            combined.add_group(key, value)
        left.merge(right)
        for key, n, total, mean, variance in combined.group_stats():
            merged = left.group(key)
            assert merged is not None
            assert merged.n == n
            assert merged.mean == pytest.approx(mean)
            assert merged.variance == pytest.approx(variance)


class TestWire:
    FAMILIES = (
        lambda: HllSketch(precision=10),
        lambda: KllSketch(k=64),
        lambda: SpaceSavingSketch(capacity=16),
        lambda: GroupedMomentsSketch(max_groups=8),
    )

    @staticmethod
    def _fill(sketch):
        rng = random.Random(17)
        for _ in range(3_000):
            value = rng.uniform(0, 1_000)
            if isinstance(sketch, GroupedMomentsSketch):
                sketch.add_group(f"g{int(value) % 12}", value)
            else:
                sketch.add(value)

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_roundtrip_preserves_estimate(self, factory):
        sketch = factory()
        self._fill(sketch)
        clone = sketch_from_bytes(sketch_to_bytes(sketch))
        assert type(clone) is type(sketch)
        assert clone.estimate() == sketch.estimate()

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_deserialized_partial_still_merges(self, factory):
        """The federation shape: serialize on one side, deserialize on
        the other, merge into a local sketch of the same family."""
        local, remote = factory(), factory()
        self._fill(remote)
        wire = serialize_sketch(remote)
        local.merge(deserialize_sketch(wire))
        assert local.estimate() == remote.estimate()

    def test_unknown_kind_and_version_refused(self):
        with pytest.raises(ValueError):
            deserialize_sketch({"sketch": "bogus", "v": 1, "payload": {}})
        envelope = serialize_sketch(HllSketch())
        envelope["v"] = 99
        with pytest.raises(ValueError):
            deserialize_sketch(envelope)

    def test_all_families_registered(self):
        assert {"hll", "kll", "spacesaving", "grouped_moments"} <= set(
            registered_kinds()
        )


class TestEnvDefaults:
    def test_defaults_come_from_registry(self, monkeypatch):
        monkeypatch.delenv("REPRO_SKETCH_PRECISION", raising=False)
        monkeypatch.delenv("REPRO_SKETCH_GROUPS", raising=False)
        monkeypatch.delenv("REPRO_SKETCH_K", raising=False)
        assert default_precision() == 12
        assert default_groups() == 256
        assert default_k() == 128

    def test_malformed_values_clamp_instead_of_crashing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SKETCH_PRECISION", "99")
        assert default_precision() == 16
        monkeypatch.setenv("REPRO_SKETCH_PRECISION", "not-a-number")
        assert default_precision() == 12
        monkeypatch.setenv("REPRO_SKETCH_GROUPS", "0")
        assert default_groups() == 1
        monkeypatch.setenv("REPRO_SKETCH_K", "2")
        assert default_k() == 8
