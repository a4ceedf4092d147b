"""Reductions used by the end-to-end benchmark.

Everything that turns raw samples into a reported figure lives here, so it
can be tested on its own (test_stats.py): percentiles with their sample
counts, quartiles and spreads across runs, per-layer self time from trace
spans, and the check that two sets of runs agree within the benchmark's
bounds.
"""

import math
import statistics


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation between the
    closest ranks, or None when there are no values."""
    if not values:
        return None
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def beyond(count, q):
    """How many of `count` samples lie strictly above the q-th percentile
    rank — the support a tail percentile has."""
    if count == 0:
        return 0
    return count - 1 - math.floor((count - 1) * q / 100.0)


def timing(values, q, scale=1.0):
    """A timing at percentile q with its sample count and the number of
    samples beyond it: {"value", "count", "beyond", "q"}."""
    p = percentile(values, q)
    return {
        "value": None if p is None else p * scale,
        "count": len(values),
        "beyond": beyond(len(values), q),
        "q": q,
    }


def median(values):
    return statistics.median(values) if values else None


def round_rate(amounts, seconds):
    """Median over rounds of each round's amount per second (None when no
    round took any time). A round that lost its core for a while moves the
    median less than it moves a pooled total."""
    rates = [a / t for a, t in zip(amounts, seconds) if t > 0]
    return statistics.median(rates) if rates else None


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else None
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if not q2:
        return math.inf
    return (q3 - q1) / abs(q2)


def self_times(spans):
    """Self time per layer: each span's duration minus the time its direct
    children cover. Spans come from one harness thread, so children nest
    inside their parent and never overlap each other.

    `spans` is an iterable of dicts with id, parent, layer, start, end.
    Returns {layer: total self time}.
    """
    spans = list(spans)
    child_time = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0)
                                       + s["end"] - s["start"])
    out = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0)
        out[s["layer"]] = out.get(s["layer"], 0) + own
    return out


def worse_by(better, new, base):
    """How much worse `new` is than `base`, as a share of `base` (negative
    when it is better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def agreement(first, second, metrics):
    """The acceptance rule for two sets of runs of the same code.

    `first` and `second` map metric name -> list of values (one per run);
    `metrics` is BENCHMARK.json's end_to_end list. Each metric's spread in
    each set must stay within its bound, and the second median may not be
    worse than the first by more than the bound. Returns
    a list of human-readable problems (empty when the sets agree).
    """
    problems = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a, b = first.get(name, []), second.get(name, [])
        if not a or not b:
            problems.append("%s: missing values" % name)
            continue
        for label, vals in (("first", a), ("second", b)):
            s = spread(vals)
            if s > bound:
                problems.append("%s: %s spread %.3f > bound %.3f"
                                % (name, label, s, bound))
        drift = worse_by(m["better"], median(b), median(a))
        if drift > bound:
            problems.append("%s: second median worse by %.3f > bound %.3f"
                            % (name, drift, bound))
    return problems
