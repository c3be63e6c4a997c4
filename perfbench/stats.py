"""Statistics and result assembly for the repo benchmark (perfbench/run.py).

Kept free of I/O so perfbench/test_stats.py can pin every rule.
"""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(values):
    """(q1, median, q3) of `values` by statistics.quantiles(n=4).

    A single value is its own quartiles; no values give None.
    """
    values = [float(v) for v in values]
    if not values:
        return None
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def percentile(values, pct):
    """Linear-interpolated percentile (numpy's default rule) of `values`."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (pct, value); pct is None (and value the maximum) when there
    are fewer than 20 samples, so not even the median qualifies.
    """
    n = len(values)
    if n == 0:
        return (None, 0.0)
    for pct in TAIL_PERCENTILES:
        # Rounded so that 10000 samples put exactly 10 beyond p99.9.
        if round(n * (100.0 - pct) / 100.0, 6) >= 10.0:
            return (pct, percentile(values, pct))
    return (None, max(float(v) for v in values))


def count_failures(runs):
    """(attempted, failed) over per-run records.

    A run fails when it raised, timed out, or failed any correctness check:
    its record carries an "error" or a falsy "ok".
    """
    attempted = len(runs)
    failed = sum(1 for r in runs if r.get("error") or not r.get("ok", False))
    return attempted, failed


def crossing_time(curve, target):
    """Engine time at which an accuracy curve first reaches `target`.

    `curve` is [(time, accuracy), ...] in time order. Between two
    evaluations the curve is taken as linear; a target met at the first
    evaluation reads that evaluation's time. None when never reached.
    """
    prev = None
    for t, acc in curve:
        if acc is not None and acc >= target:
            if prev is None:
                return float(t)
            t0, a0 = prev
            return t0 + (t - t0) * (target - a0) / (acc - a0)
        if acc is not None:
            prev = (float(t), float(acc))
    return None


def result_line(declared, values, correct, attempted, failed):
    """The benchmark's last stdout line, as a dict.

    `declared` is the BENCHMARK.json metric list for this mode; `values`
    maps names to numbers. Every declared metric must be present, finite,
    and is emitted with its declared unit; anything undeclared is refused.
    """
    names = [m["name"] for m in declared]
    extra = sorted(set(values) - set(names))
    if extra:
        raise ValueError("undeclared metrics: %s" % ", ".join(extra))
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise ValueError("metric %s was not measured" % m["name"])
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if attempted < 1 or failed < 0 or failed > attempted:
        raise ValueError("bad counts attempted=%r failed=%r" % (attempted, failed))
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
