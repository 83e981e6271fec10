"""Tests for repro.utils (rng, timing, text helpers)."""

import math
import time

import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    Timer,
    derive_seed,
    seeded_rng,
    timed,
)
from repro.utils.rng import DEFAULT_SEED, stable_hash
from repro.utils.text import (
    character_ngrams,
    is_null,
    is_numeric,
    normalize_text,
    to_float,
)


class TestRng:
    def test_seeded_rng_is_deterministic(self):
        first = seeded_rng(42).random(5)
        second = seeded_rng(42).random(5)
        assert (first == second).all()

    def test_seeded_rng_default_seed(self):
        assert (seeded_rng().random(3) == seeded_rng(DEFAULT_SEED).random(3)).all()

    def test_seeded_rng_rejects_negative(self):
        with pytest.raises(ValueError):
            seeded_rng(-1)

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_derive_seed_differs_across_labels(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_stable_hash_deterministic_and_bucketed(self):
        assert stable_hash("park") == stable_hash("park")
        assert 0 <= stable_hash("park", buckets=17) < 17

    def test_stable_hash_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            stable_hash("x", buckets=0)

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_seed_in_valid_range(self, seed, label):
        value = derive_seed(seed, label)
        assert 0 <= value < 2**63 - 1


class TestTimer:
    def test_timer_accumulates(self):
        timer = Timer()
        with timer.measure():
            time.sleep(0.001)
        with timer.measure():
            pass
        assert timer.count == 2
        assert timer.total >= 0.001
        assert len(timer.laps) == 2

    def test_timer_mean_and_reset(self):
        timer = Timer()
        assert timer.mean == 0.0
        with timer.measure():
            pass
        assert timer.mean > 0.0
        timer.reset()
        assert timer.count == 0 and timer.total == 0.0

    def test_timed_returns_result_and_elapsed(self):
        result, elapsed = timed(lambda x: x * 2, 21)
        assert result == 42
        assert elapsed >= 0.0


class TestText:
    def test_normalize_text_lowercases_and_strips(self):
        assert normalize_text("  River   PARK! ") == "river park"
        assert normalize_text(None) == ""

    def test_is_null_variants(self):
        assert is_null(None)
        assert is_null("")
        assert is_null(" NaN ")
        assert is_null(float("nan"))
        assert not is_null("0")
        assert not is_null(0)

    def test_is_numeric(self):
        assert is_numeric("3.14")
        assert is_numeric(10)
        assert is_numeric("1,000")
        assert not is_numeric("USA")
        assert not is_numeric(True)

    def test_to_float(self):
        assert to_float("2.5") == 2.5
        assert to_float("1,200") == 1200.0
        assert to_float("park") is None
        assert to_float(None) is None
        assert to_float(3) == 3.0

    def test_character_ngrams(self):
        grams = character_ngrams("park")
        assert "<pa" in grams
        assert "rk>" in grams
        assert all(3 <= len(g) <= 5 for g in grams)

    @given(st.text(max_size=30))
    def test_normalize_text_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_to_float_roundtrip_for_numbers(self, value):
        parsed = to_float(value)
        assert parsed is not None
        assert math.isclose(parsed, float(value), rel_tol=1e-6, abs_tol=1e-6)
