"""Pure helpers of the benchmark: percentiles, metrics deltas, fingerprints
and run-to-run spread. Kept free of I/O so test_pbstats.py can cover them."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q < 1) of `samples`, or None when fewer
    than MIN_BEYOND samples lie strictly beyond its rank."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))  # 1-based rank of the quantile
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def min_samples(q):
    """Smallest sample count for which percentile(samples, q) is reported."""
    n = 1
    while percentile(range(n), q) is None:
        n += 1
    return n


def parse_prometheus(text):
    """Series name (labels included) -> value, for every sample line."""
    series = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError("malformed metrics line: %r" % line)
        series[name] = float(value)
    return series


def metrics_delta(before_text, after_text):
    """after - before for every series present after; a series missing
    before counts from 0. Gauges come out as plain differences too."""
    before = parse_prometheus(before_text)
    after = parse_prometheus(after_text)
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def ratio(numerator, denominator):
    """numerator / denominator, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def fnv1a64(lines):
    """FNV-1a 64 over the lines, each terminated by a newline, as hex."""
    h = 0xCBF29CE484222325
    for line in lines:
        for byte in (line + "\n").encode():
            h ^= byte
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) with statistics.quantiles(n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ratio(q3 - q1, median)
