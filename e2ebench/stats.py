"""Statistics of the end-to-end benchmark: medians, quartile spreads, the
tail-percentile rule, and interleaved pair ratios."""

import math
import statistics


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First quartile, median and third quartile, as statistics.quantiles
    gives them (the default 'exclusive' method)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    """Distance between the first and third quartile as a share of the
    median."""
    q1, _, q3 = quartiles(xs)
    return (q3 - q1) / median(xs)


def tail_percentile(xs, p, min_beyond=10):
    """Nearest-rank p-th percentile, or None when fewer than `min_beyond`
    samples lie beyond it (the percentile is then not resolved)."""
    s = sorted(xs)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    if len(s) - rank < min_beyond:
        return None
    return s[rank - 1]


def blocks(samples, size):
    """Consecutive blocks of `size` samples (a shorter tail is dropped)."""
    return [samples[i:i + size] for i in range(0, len(samples) - size + 1, size)]


def pair_ratio(pairs):
    """Median over interleaved (a, b) pairs of a / b."""
    return median([a / b for a, b in pairs])
