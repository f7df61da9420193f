"""Tests for the correction model (repro.learned.model)."""

import math

import pytest

from repro.errors import ServiceError
from repro.feedback import FeedbackKey
from repro.learned import MultiplicativeCorrection
from repro.learned.model import DEFAULT_DRIFT

EMP_AGE = FeedbackKey.of("emp", ("age",))
EMP_SALARY = FeedbackKey.of("emp", ("salary",))
DEPT_ID = FeedbackKey.of("dept", ("id",))


class TestEwmaHysteresis:
    def test_first_observation_publishes_exactly(self):
        """The debiased EWMA equals the first observation instead of
        being shrunk toward zero by the decay."""
        model = MultiplicativeCorrection(decay=0.8)
        assert model.absorb(EMP_AGE, "filter", math.log(4.0))
        assert model.factor(EMP_AGE, "filter") == pytest.approx(4.0)

    def test_repeats_within_the_drift_band_do_not_republish(self):
        model = MultiplicativeCorrection(decay=0.8)
        assert model.absorb(EMP_AGE, "filter", 1.0)
        # the same ratio again: the effective estimate does not move
        assert not model.absorb(EMP_AGE, "filter", 1.0)
        assert not model.absorb(EMP_AGE, "filter", 1.0 + DEFAULT_DRIFT / 4)

    def test_sustained_drift_republishes(self):
        model = MultiplicativeCorrection(decay=0.8)
        model.absorb(EMP_AGE, "filter", 1.0)
        published = [
            model.absorb(EMP_AGE, "filter", 3.0) for _ in range(6)
        ]
        assert any(published)
        assert model.factor(EMP_AGE, "filter") > math.e  # moved past e^1

    def test_small_noise_never_publishes(self):
        model = MultiplicativeCorrection(decay=0.8)
        ratios = [0.01, -0.02, 0.015, -0.005, 0.0]
        assert not any(
            model.absorb(EMP_AGE, "filter", r) for r in ratios
        )
        # nothing published: the factor stays identity
        assert model.factor(EMP_AGE, "filter") == pytest.approx(1.0)


class TestSlotMechanics:
    def test_kinds_do_not_bleed_into_each_other(self):
        model = MultiplicativeCorrection()
        model.absorb(EMP_AGE, "join", math.log(8.0))
        assert model.factor(EMP_AGE, "filter") is None
        assert model.factor(EMP_AGE, "join") == pytest.approx(8.0)

    def test_trim_evicts_least_recently_observed(self):
        model = MultiplicativeCorrection()
        model.absorb(EMP_AGE, "filter", 1.0)
        model.absorb(EMP_SALARY, "filter", 1.0)
        model.absorb(EMP_AGE, "filter", 1.0)  # refresh recency
        assert model.trim(1) == 1
        assert model.factor(EMP_SALARY, "filter") is None
        assert model.factor(EMP_AGE, "filter") is not None

    def test_drop_table_sweeps_only_that_table(self):
        model = MultiplicativeCorrection()
        model.absorb(EMP_AGE, "filter", 1.0)
        model.absorb(EMP_SALARY, "join", 1.0)
        model.absorb(DEPT_ID, "join", 1.0)
        assert model.drop_table("emp") == 2
        assert model.size() == 1
        assert model.factor(DEPT_ID, "join") is not None

    def test_snapshot_orders_strongest_corrections_first(self):
        model = MultiplicativeCorrection()
        model.absorb(EMP_AGE, "filter", 0.5)
        model.absorb(EMP_SALARY, "filter", -2.0)
        rows = model.snapshot_rows()
        assert [row[0] for row in rows] == ["emp.salary", "emp.age"]
        label, kind, aggregates = rows[0]
        assert kind == "filter"
        assert aggregates["factor"] == pytest.approx(math.exp(-2.0))
        assert aggregates["count"] == 1.0


class TestValidation:
    def test_bad_decay_raises(self):
        with pytest.raises(ServiceError):
            MultiplicativeCorrection(decay=1.0)
        with pytest.raises(ServiceError):
            MultiplicativeCorrection(decay=0.0)
