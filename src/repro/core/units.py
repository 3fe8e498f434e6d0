"""Physical quantities used throughout the analytical model.

The paper (Table I) mixes unit conventions freely: Ethernet bandwidth is
quoted in gigabits per second (``25 Gb/s``) while PCIe and NVLink are in
gigabytes per second (``10 GB/s``, ``50 GB/s``), GPU compute in teraFLOPs
and memory bandwidth in terabytes per second.  Getting a single factor of
eight wrong silently changes every conclusion (for example the exact 21x
speedup of Eq. 3 depends on 25 Gb/s == 3.125 GB/s).  This module therefore
provides explicit constructors and parsers so that every quantity in the
code base states its unit at the point of creation.

All quantities are stored in base SI-ish units:

* data sizes in **bytes**
* bandwidths in **bytes per second**
* compute rates in **FLOPs per second**
* compute amounts in **FLOPs**
* times in **seconds**

The module deliberately exposes plain ``float`` values rather than wrapper
classes: the analytical model is a large amount of simple arithmetic, and
wrapper types would make it noisy.  The constructors and the parser are the
type boundary.
"""

from __future__ import annotations

import re

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "KILO",
    "MEGA",
    "GIGA",
    "TERA",
    "kilobytes",
    "megabytes",
    "gigabytes",
    "gbps",
    "gigabytes_per_second",
    "terabytes_per_second",
    "teraflops",
    "gigaflops",
    "parse_size",
    "parse_flops",
    "format_size",
    "format_bandwidth",
    "format_time",
]

# Decimal multipliers.  The paper uses vendor-style decimal units (a
# "25 Gbps" NIC moves 25e9 bits per second), so decimal is the default
# throughout; binary multipliers are provided for data-size parsing only.
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

KB = KILO
MB = MEGA
GB = GIGA
TB = TERA

KIB = 1024.0
MIB = 1024.0**2
GIB = 1024.0**3
TIB = 1024.0**4

_BITS_PER_BYTE = 8.0


def kilobytes(n: float) -> float:
    """``n`` kilobytes expressed in bytes."""
    return float(n) * KB


def megabytes(n: float) -> float:
    """``n`` megabytes expressed in bytes."""
    return float(n) * MB


def gigabytes(n: float) -> float:
    """``n`` gigabytes expressed in bytes."""
    return float(n) * GB


def gbps(n: float) -> float:
    """``n`` gigabits per second expressed in bytes per second.

    This is the unit of the Ethernet rows in Table I and Table III.
    """
    return float(n) * GIGA / _BITS_PER_BYTE


def gigabytes_per_second(n: float) -> float:
    """``n`` GB/s expressed in bytes per second (PCIe/NVLink rows)."""
    return float(n) * GB


def terabytes_per_second(n: float) -> float:
    """``n`` TB/s expressed in bytes per second (GPU memory row)."""
    return float(n) * TB


def teraflops(n: float) -> float:
    """``n`` TFLOPs expressed in FLOPs (or TFLOP/s in FLOP/s)."""
    return float(n) * TERA


def gigaflops(n: float) -> float:
    """``n`` GFLOPs expressed in FLOPs (or GFLOP/s in FLOP/s)."""
    return float(n) * GIGA


_SIZE_PATTERN = re.compile(
    r"^\s*(?P<value>[0-9]*\.?[0-9]+)\s*(?P<unit>[KMGTP]?i?B|B)\s*$",
    re.IGNORECASE,
)

_SIZE_MULTIPLIERS = {
    "b": 1.0,
    "kb": KB,
    "mb": MB,
    "gb": GB,
    "tb": TB,
    "pb": 1e15,
    "kib": KIB,
    "mib": MIB,
    "gib": GIB,
    "tib": TIB,
    "pib": 1024.0**5,
}


def parse_size(text: str) -> float:
    """Parse a human-readable data size (``"204MB"``, ``"1.5 GiB"``) to bytes.

    >>> parse_size("204MB")
    204000000.0
    >>> parse_size("3 GB")
    3000000000.0
    """
    match = _SIZE_PATTERN.match(text)
    if match is None:
        raise ValueError(f"unparseable data size: {text!r}")
    value = float(match.group("value"))
    unit = match.group("unit").lower()
    return value * _SIZE_MULTIPLIERS[unit]


_FLOPS_MULTIPLIERS = {"": 1.0, "k": KILO, "m": MEGA, "g": GIGA, "t": TERA, "p": 1e15}

_FLOPS_PATTERN = re.compile(
    r"^\s*(?P<value>[0-9]*\.?[0-9]+)\s*(?P<unit>[KMGTP]?)\s*(?:FLOPs?(?:/s)?)?\s*$",
    re.IGNORECASE,
)


def parse_flops(text: str) -> float:
    """Parse a FLOP count / rate string (``"1.56T"``, ``"105.8 GFLOPs"``).

    >>> parse_flops("1.56T")
    1560000000000.0
    """
    match = _FLOPS_PATTERN.match(text)
    if match is None:
        raise ValueError(f"unparseable FLOP quantity: {text!r}")
    value = float(match.group("value"))
    return value * _FLOPS_MULTIPLIERS[match.group("unit").lower()]


def _format_with_scale(value: float, scales: list, suffixes: list) -> str:
    for scale, suffix in zip(scales, suffixes):
        if abs(value) >= scale:
            return f"{value / scale:.3g}{suffix}"
    return f"{value:.3g}{suffixes[-1]}"


def format_size(num_bytes: float) -> str:
    """Render bytes as a short human-readable string (decimal units)."""
    return _format_with_scale(
        float(num_bytes),
        [TB, GB, MB, KB, 1.0],
        ["TB", "GB", "MB", "KB", "B"],
    )


def format_bandwidth(bytes_per_second: float) -> str:
    """Render a bandwidth as a short human-readable string."""
    return format_size(bytes_per_second) + "/s"


def format_time(seconds: float) -> str:
    """Render a duration with an adaptive unit (s / ms / us)."""
    value = float(seconds)
    if abs(value) >= 1.0:
        return f"{value:.3g}s"
    if abs(value) >= 1e-3:
        return f"{value * 1e3:.3g}ms"
    return f"{value * 1e6:.3g}us"
