"""Unit-conversion and formatting helpers."""

from __future__ import annotations

import math

import pytest

from repro import units


class TestConversions:
    def test_minutes(self):
        assert units.minutes(2) == 120.0

    def test_hours(self):
        assert units.hours(1.5) == 5400.0

    def test_days(self):
        assert units.days(2) == 172800.0

    def test_years_julian_convention(self):
        assert units.years(1) == pytest.approx(365.25 * 86400)

    def test_century_mtbf_matches_paper_intro(self):
        # The intro's example: 100k nodes with one-century MTBF fail every
        # ~9 hours on average.
        platform_mtbf = units.years(100) / 100_000
        assert platform_mtbf / units.SECONDS_PER_HOUR == pytest.approx(8.766, rel=1e-3)


class TestFormatting:
    def test_format_duration_seconds(self):
        assert units.format_duration(90) == "90.0 s"

    def test_format_duration_hours(self):
        assert units.format_duration(7200) == "2.00 h"

    def test_format_duration_minutes(self):
        assert "min" in units.format_duration(1200)

    def test_format_duration_days(self):
        assert "d" in units.format_duration(2 * 86400)

    def test_format_duration_years(self):
        assert units.format_duration(units.years(3)).endswith("y")

    def test_format_duration_subsecond(self):
        assert "ms" in units.format_duration(0.005)

    def test_format_duration_microseconds(self):
        assert "us" in units.format_duration(5e-6)

    def test_format_duration_nonfinite(self):
        assert units.format_duration(math.inf) == "inf"

    def test_format_si_large(self):
        assert units.format_si(1_200_000) == "1.2M"

    def test_format_si_small_passthrough(self):
        assert units.format_si(42.0) == "42"

    def test_format_si_tera(self):
        assert units.format_si(2.5e12).endswith("T")

    def test_format_si_zero(self):
        assert units.format_si(0) == "0"
