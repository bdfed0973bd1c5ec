"""Pure statistics for the benchmark report: percentiles, the tail rule,
pooled bucket histograms and span self time.

Kept free of I/O so perfbench/tests can check each rule directly.
"""
import math
import statistics

# Candidate percentiles for "tail", lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile needs at least this many samples above it.
MIN_BEYOND = 10


def rank(p, n):
    """1-based nearest rank of percentile p among n samples (rounded first,
    so that 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def tail_percentile(n):
    """Highest LADDER percentile with at least MIN_BEYOND of n samples
    strictly beyond its rank, or None when even the median has fewer."""
    best = None
    for p in LADDER:
        if n - rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def merge_histograms(histograms):
    """Sums dif-metrics-v1 bucket histograms that share one set of bounds.

    Returns {"bounds": [...], "counts": [...], "max": float}; the last
    count is the overflow bucket above the highest bound."""
    merged = None
    for h in histograms:
        bounds = [b["le"] for b in h["buckets"][:-1]]
        counts = [b["count"] for b in h["buckets"]]
        if h["buckets"][-1]["le"] is not None:
            raise ValueError("histogram has no overflow bucket")
        if merged is None:
            merged = {"bounds": bounds, "counts": counts, "max": h["max"]}
            continue
        if bounds != merged["bounds"]:
            raise ValueError("cannot pool histograms with different bounds")
        merged["counts"] = [a + b for a, b in zip(merged["counts"], counts)]
        merged["max"] = max(merged["max"], h["max"])
    if merged is None:
        raise ValueError("no histograms to pool")
    return merged


def histogram_percentile(merged, p):
    """Upper bound of the bucket holding the nearest-rank percentile; the
    observed maximum when that is the overflow bucket."""
    total = sum(merged["counts"])
    if total == 0:
        raise ValueError("empty histogram")
    target = rank(p, total)
    seen = 0
    for i, count in enumerate(merged["counts"]):
        seen += count
        if seen >= target:
            if i < len(merged["bounds"]):
                return merged["bounds"][i]
            return merged["max"]
    raise AssertionError("unreachable: counts sum to total")


def self_times(spans):
    """Self time per layer: each span's duration minus the durations of its
    direct children, summed by layer. Spans are (name, start, end, parent,
    unit) with parent an index into the list or -1."""
    child = [0.0] * len(spans)
    for name, start, end, parent, unit in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, unit) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def at_reference(cpu_ms, ref_ms, reference_ms, window):
    """Fixed pieces of work's CPU times in reference-core terms.

    cpu_ms[p][i] is piece i's CPU time in pass p, and ref_ms[p][i] the
    reference kernel's CPU time right after it. Each time is scaled by
    reference_ms over the median of the kernel times within `window`
    places of it in the same pass: contention that slows the core for a
    while slows both, and the median of neighbouring kernel runs follows
    it without the noise of any single run. Returns, per piece, the median
    of its scaled times over the passes."""
    if not cpu_ms or len(cpu_ms) != len(ref_ms):
        raise ValueError("need one reference pass per timed pass")
    scaled = []
    for cpu, ref in zip(cpu_ms, ref_ms):
        if not cpu or len(cpu) != len(ref):
            raise ValueError("need one reference time per timed piece")
        scaled.append([
            c * reference_ms /
            statistics.median(ref[max(0, i - window):i + window + 1])
            for i, c in enumerate(cpu)])
    return [statistics.median(times) for times in zip(*scaled)]
