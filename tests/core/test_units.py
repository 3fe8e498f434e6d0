"""Units: constructors, parsers and formatting."""

import math

import pytest

from repro.core.units import (
    GB,
    MB,
    TB,
    format_bandwidth,
    format_size,
    format_time,
    gbps,
    gigabytes,
    gigabytes_per_second,
    gigaflops,
    kilobytes,
    megabytes,
    parse_flops,
    parse_size,
    teraflops,
    terabytes_per_second,
)


class TestConstructors:
    def test_gbps_is_bits(self):
        # The exact factor behind Eq. 3: 25 Gb/s == 3.125 GB/s.
        assert gbps(25) == 3.125e9

    def test_byte_scales(self):
        assert kilobytes(1) == 1e3
        assert megabytes(204) == 204e6
        assert gigabytes(54) == 54e9

    def test_rate_scales(self):
        assert gigabytes_per_second(10) == 10e9
        assert terabytes_per_second(1) == 1e12

    def test_flop_scales(self):
        assert teraflops(11) == 11e12
        assert gigaflops(105.8) == pytest.approx(105.8e9)


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("204MB", 204 * MB),
            ("3 GB", 3 * GB),
            ("1.5GB", 1.5 * GB),
            ("22 kB", 22e3),
            ("1TB", TB),
            ("512B", 512.0),
            ("1GiB", 1024.0**3),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["", "abc", "12 XB", "GB12", "-3GB"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_size(text)


class TestParseFlops:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1.56T", 1.56e12),
            ("105.8G", 105.8e9),
            ("2.5 TFLOPs", 2.5e12),
            ("330.7 GFLOPs", 330.7e9),
            ("7.9TFLOPs/s", 7.9e12),
            ("2P", 2e15),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_flops(text) == pytest.approx(expected)

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_flops("lots")


class TestFormatting:
    def test_format_size_units(self):
        assert format_size(204e6) == "204MB"
        assert format_size(3e9) == "3GB"
        assert format_size(12) == "12B"

    def test_format_bandwidth(self):
        assert format_bandwidth(10e9).endswith("/s")

    def test_format_time_scales(self):
        assert format_time(1.5) == "1.5s"
        assert format_time(2e-3) == "2ms"
        assert format_time(3e-6) == "3us"

    def test_roundtrip_size(self):
        value = 357e6
        assert parse_size(format_size(value)) == pytest.approx(value, rel=0.01)

    def test_format_size_monotone_prefix(self):
        # A value on a unit boundary renders without overflowing digits.
        assert format_size(1e12) == "1TB"
        assert not math.isnan(parse_size(format_size(999.0)))
