"""Tests for the CorrectionStore (repro.learned.store)."""

import pytest

from repro.errors import ServiceError
from repro.feedback import FeedbackKey, OperatorObservation, q_error
from repro.learned import CorrectionStore
from repro.service.metrics import MetricsRegistry


def observation(
    operator="scan",
    table="emp",
    columns=("age",),
    estimated=10.0,
    actual=1000,
):
    return OperatorObservation(
        operator=operator,
        tables=(table,),
        targets=(FeedbackKey.of(table, columns),),
        estimated_rows=estimated,
        actual_rows=actual,
        q_error=q_error(estimated, actual),
    )


class TestObserve:
    def test_misestimate_trains_and_bumps_version(self):
        store = CorrectionStore()
        assert store.observe(observation()) is True
        assert store.version == 1
        assert len(store) == 1

    @pytest.mark.parametrize(
        "operator,kind",
        [
            ("scan", "filter"),
            ("seek", "filter"),
            ("join", "join"),
            ("aggregate", "group"),
        ],
    )
    def test_operator_kind_mapping(self, operator, kind):
        store = CorrectionStore()
        store.observe(observation(operator=operator))
        ((_, snapshot_kind, _aggregates),) = store.snapshot()
        assert snapshot_kind == kind

    @pytest.mark.parametrize("operator", ["sort", "having"])
    def test_non_statistics_operators_are_ignored(self, operator):
        store = CorrectionStore()
        assert store.observe(observation(operator=operator)) is False
        assert store.counters()["observations"] == 0
        assert store.version == 0

    def test_targetless_observation_is_ignored(self):
        store = CorrectionStore()
        obs = OperatorObservation(
            operator="scan",
            tables=("emp",),
            targets=(),
            estimated_rows=1.0,
            actual_rows=100,
            q_error=100.0,
        )
        assert store.observe(obs) is False

    def test_eviction_beyond_capacity_bumps_version(self):
        store = CorrectionStore(capacity=1)
        store.observe(observation(columns=("age",)))
        version = store.version
        assert store.observe(observation(columns=("salary",)))
        assert store.version > version
        assert store.counters()["evictions"] == 1
        assert len(store) == 1

    def test_observe_all_counts_version_bumps(self):
        store = CorrectionStore()
        bumps = store.observe_all(
            [observation(), observation(operator="sort")]
        )
        assert bumps == 1


class TestCorrect:
    def test_underestimate_scales_the_selectivity_up(self):
        store = CorrectionStore()
        store.observe(observation(estimated=10.0, actual=80))
        corrected = store.correct_filter("emp", ("age",), 0.001)
        assert corrected == pytest.approx(0.008, rel=1e-6)

    def test_observed_ratio_is_capped_at_max_factor(self):
        store = CorrectionStore()  # max_factor 32
        store.observe(observation(estimated=10.0, actual=10**6))
        assert store.correct_filter(
            "emp", ("age",), 0.001
        ) == pytest.approx(0.032, rel=1e-6)

    def test_correction_respects_max_factor(self):
        store = CorrectionStore(max_factor=4.0)
        store.observe(observation(estimated=1.0, actual=10**6))
        assert store.correct_filter(
            "emp", ("age",), 0.001
        ) == pytest.approx(0.004)

    def test_join_uses_geometric_mean_of_both_sides(self):
        store = CorrectionStore()
        store.observe(
            observation(
                operator="join",
                table="emp",
                columns=("dept_id",),
                estimated=10.0,
                actual=90,
            )
        )
        store.observe(
            observation(
                operator="join",
                table="dept",
                columns=("id",),
                estimated=10.0,
                actual=40,
            )
        )
        # geomean(9, 4) = 6
        assert store.correct_join(
            "emp", ("dept_id",), "dept", ("id",), 0.01
        ) == pytest.approx(0.06, rel=1e-6)

    def test_join_with_one_known_side_uses_it_alone(self):
        store = CorrectionStore()
        store.observe(
            observation(
                operator="join",
                table="emp",
                columns=("dept_id",),
                estimated=10.0,
                actual=40,
            )
        )
        assert store.correct_join(
            "emp", ("dept_id",), "dept", ("id",), 0.01
        ) == pytest.approx(0.04, rel=1e-6)

    def test_empty_column_set_is_identity(self):
        store = CorrectionStore()
        assert store.correct_filter("emp", (), 0.25) == 0.25
        assert store.correct_group("emp", (), 1.5) == 1.0  # clamped

    def test_hit_and_miss_counters(self):
        store = CorrectionStore()
        store.correct_filter("emp", ("age",), 0.5)  # miss: untrained
        store.observe(observation())
        store.correct_filter("emp", ("age",), 0.5)  # hit
        counters = store.counters()
        assert counters["misses"] == 1
        assert counters["hits"] == 1

    def test_counters_shape(self):
        counters = CorrectionStore().counters()
        assert set(counters) == {
            "observations",
            "hits",
            "misses",
            "invalidations",
            "evictions",
            "tracked",
            "version",
        }


class TestInvalidation:
    def test_invalidate_table_always_bumps_even_when_empty(self):
        store = CorrectionStore()
        assert store.invalidate_table("emp") == 0
        assert store.version == 1

    def test_clear_forgets_corrections(self):
        store = CorrectionStore()
        store.observe(observation())
        store.clear()
        assert len(store) == 0
        assert store.correct_filter("emp", ("age",), 0.5) == 0.5


class TestConfigAndMetrics:
    def test_bad_capacity_raises(self):
        with pytest.raises(ServiceError):
            CorrectionStore(capacity=0)

    def test_bad_max_factor_raises(self):
        with pytest.raises(ServiceError):
            CorrectionStore(max_factor=1.0)

    def test_metrics_are_mirrored_under_registered_names(self):
        from repro.service.metric_names import METRICS

        registry = MetricsRegistry()
        store = CorrectionStore(metrics=registry)
        store.observe(observation())
        store.correct_filter("emp", ("age",), 0.5)
        store.invalidate_table("emp")
        emitted = {
            name
            for name in registry.snapshot()
            if name.startswith("correction.")
        }
        assert emitted == {
            "correction.observations",
            "correction.hits",
            "correction.misses",
            "correction.invalidations",
            "correction.evictions",
            "correction.tracked_models",
            "correction.version",
        }
        assert emitted <= set(METRICS)
