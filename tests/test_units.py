"""Unit helpers: conversions and formatting."""

from repro.units import MSEC, SEC, USEC, format_time, ms, s, us


class TestConstants:
    def test_usec_is_canonical(self):
        assert USEC == 1.0

    def test_msec(self):
        assert MSEC == 1_000.0

    def test_sec(self):
        assert SEC == 1_000_000.0


class TestConversions:
    def test_us_identity(self):
        assert us(42) == 42.0

    def test_ms(self):
        assert ms(10) == 10_000.0

    def test_s(self):
        assert s(5) == 5_000_000.0

    def test_integer_input_returns_float(self):
        assert isinstance(us(7), float)
        assert isinstance(ms(7), float)
        assert isinstance(s(7), float)


class TestFormatTime:
    def test_microseconds(self):
        assert format_time(350.0) == "350.0us"

    def test_milliseconds(self):
        assert format_time(2_240.0) == "2.240ms"

    def test_seconds(self):
        assert format_time(5_000_000.0) == "5.000s"

    def test_negative(self):
        assert format_time(-1500.0) == "-1.500ms"

    def test_zero(self):
        assert format_time(0.0) == "0.0us"

    def test_boundary_one_ms(self):
        assert format_time(1000.0) == "1.000ms"
