"""Turns the driver's raw run record into the benchmark's metrics.

The driver (driver.cc) measures and checks; this module only summarizes, so
the statistics are testable without a build (test_summary.py). An untraced
run (--trace 0) yields END_TO_END, a traced run (--trace 1) PER_LAYER.
"""

import math
import statistics

# Name -> unit. BENCHMARK.json must list exactly these (test_summary.py).
END_TO_END = {
    "setup_s": "s",
    "ingest_meps": "Melem/s",
    "fresh_p50_ms": "ms",
    "fresh_p95_ms": "ms",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "rss_mib": "MiB",
}

PER_LAYER = {
    "pipeline.ingest_ms": "ms",
    "pipeline.stalls_per_batch": "ratio",
    "pipeline.flush_ms": "ms",
    "pipeline.shard_skew": "ratio",
    "pipeline.snapshot_ms": "ms",
    "sketch.direct_meps": "Melem/s",
    "wire.serialize_ms": "ms",
    "wire.frame_kib": "KiB",
    "wire.revive_us": "us",
    "net.ship_ms": "ms",
    "net.revives_per_ship": "ratio",
    "net.merge_ms": "ms",
    "net.checkpoint_ms": "ms",
    "query.rtt_us": "us",
    "query.local_us": "us",
    "stages.sum_ratio": "ratio",
    "trace.overhead_pct": "%",
}

# The driver's round stages, in round order.
STAGES = ("pipeline.ingest", "pipeline.flush", "pipeline.snapshot",
          "wire.serialize", "net.ship", "query.observe")

# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


class TailRefused(ValueError):
    """Too few samples lie beyond a requested tail percentile."""


def percentile(values, p):
    """Nearest-rank p-th percentile (p an integer in 1..99).

    Returns (value, samples beyond it). Refuses a tail (p > 50) that fewer
    than MIN_BEYOND samples lie beyond.
    """
    n = len(values)
    rank = -(-p * n // 100)  # ceil(p * n / 100), exact in integers
    beyond = n - rank
    if n == 0 or (p > 50 and beyond < MIN_BEYOND):
        raise TailRefused(
            f"p{p} of {n} samples has {max(beyond, 0)} beyond it; "
            f"need {MIN_BEYOND}")
    return sorted(values)[rank - 1], beyond


def _select(values, flags, want):
    return [v for v, f in zip(values, flags) if bool(f) == want]


def ingest_meps(elements_per_round, round_ms):
    """Elements per round / median round time, in Melem/s."""
    return elements_per_round / statistics.median(round_ms) / 1e3


def _split(values, counts):
    """`values` cut into consecutive parts of `counts` items, one a segment."""
    parts, start = [], 0
    for count in counts:
        parts.append(values[start:start + count])
        start += count
    return parts


def quiet_segments(record):
    """The quieter half of a run's segments: the ceil(n/2) with the lowest
    median round time, as indices in segment order.

    Host interference only ever slows a segment down, so a slow spell that
    covers up to half of a run drops out, while a change to the program
    moves every segment.
    """
    medians = [statistics.median(r) for r in
               _split(record["round_ms"], record["segment_rounds"])]
    by_speed = sorted(range(len(medians)), key=lambda i: (medians[i], i))
    return sorted(by_speed[:(len(medians) + 1) // 2]), medians


def _pick(values, counts, keep):
    parts = _split(values, counts)
    return [v for i in keep for v in parts[i]]


def stage_table(record):
    """Median ms per stage over the traced rounds, and the median round.

    Returns ([(stage, median_ms), ...], median_round_ms).
    """
    traced = record["traced"]
    rows = [(s, statistics.median(_select(record["stage_ms"][s], traced, True)))
            for s in STAGES]
    return rows, statistics.median(_select(record["round_ms"], traced, True))


def sum_ratio(rows, round_median_ms):
    """Sum of the stage-table medians / the median round."""
    return math.fsum(ms for _, ms in rows) / round_median_ms


def _mean_ns(histogram, scale):
    return histogram["sum_ns"] / histogram["count"] / scale \
        if histogram["count"] else 0.0


def end_to_end(record):
    """The END_TO_END metrics of an untraced run, plus sample notes.

    setup_s is the median of every segment's set-up; the other timings come
    from the rounds and queries of the quiet_segments.
    """
    keep, medians = quiet_segments(record)
    rounds = _pick(record["round_ms"], record["segment_rounds"], keep)
    fresh = _pick(record["fresh_ms"], record["segment_rounds"], keep)
    queries = _pick(record["query_us"], record["segment_queries"], keep)
    fresh_p95, fresh_beyond = percentile(fresh, 95)
    query_p99, query_beyond = percentile(queries, 99)
    values = {
        "setup_s": statistics.median(record["setup_s"]),
        "ingest_meps": ingest_meps(record["elements_per_round"], rounds),
        "fresh_p50_ms": statistics.median(fresh),
        "fresh_p95_ms": fresh_p95,
        "query_p50_us": statistics.median(queries),
        "query_p99_us": query_p99,
        "rss_mib": (record["rss_peak_kib"] - record["rss_base_kib"]) / 1024,
    }
    notes = [
        f"segments: {len(medians)}, one set-up each (median reported); "
        f"median round per segment, * = kept: "
        + " ".join(f"{ms:.3f}" + ("*" if i in keep else "")
                   for i, ms in enumerate(medians)) + " ms",
        f"rounds: {len(rounds)} of {len(record['round_ms'])}, "
        f"fresh_p95_ms has {fresh_beyond} beyond",
        f"queries: {len(queries)} of {len(record['query_us'])}, "
        f"query_p99_us has {query_beyond} beyond",
    ]
    return _with_units(values, END_TO_END), notes


def per_layer(record):
    """The PER_LAYER metrics of a traced run, plus the stage table lines."""
    rows, round_ms = stage_table(record)
    stage = dict(rows)
    traced = record["traced"]
    untraced_rounds = _select(record["round_ms"], traced, False)
    ships = record["ships"]
    values = {
        "pipeline.ingest_ms": stage["pipeline.ingest"],
        "pipeline.stalls_per_batch": record["stalls"] / record["batches"],
        "pipeline.flush_ms": stage["pipeline.flush"],
        "pipeline.shard_skew": record["shard_skew"],
        "pipeline.snapshot_ms": stage["pipeline.snapshot"],
        "sketch.direct_meps": statistics.median(record["direct_meps"]),
        "wire.serialize_ms": stage["wire.serialize"],
        "wire.frame_kib": statistics.median(record["frame_kib"]),
        "wire.revive_us": _mean_ns(record["revive"], 1e3),
        "net.ship_ms": stage["net.ship"],
        "net.revives_per_ship": record["revive"]["count"] / ships,
        "net.merge_ms": _mean_ns(record["merge"], 1e6),
        "net.checkpoint_ms": _mean_ns(record["checkpoint"], 1e6),
        "query.rtt_us": statistics.median(
            _select(record["query_us"], record["query_traced"], True)),
        "query.local_us": statistics.median(record["local_us"]),
        "stages.sum_ratio": sum_ratio(rows, round_ms),
        "trace.overhead_pct":
            100.0 * (1.0 - statistics.median(untraced_rounds) / round_ms),
    }
    lines = [f"stage table, median of {sum(map(bool, traced))} traced rounds:"]
    for name, ms in rows:
        lines.append(f"  {name:<18} {ms:10.4f} ms  {100 * ms / round_ms:6.2f}%")
    lines.append(f"  {'round':<18} {round_ms:10.4f} ms  "
                 f"(untraced {statistics.median(untraced_rounds):.4f} ms over "
                 f"{len(untraced_rounds)} rounds)")
    for kind in sorted(set(record["query_kind"])):
        rtt = [v for v, k, t in zip(record["query_us"], record["query_kind"],
                                    record["query_traced"]) if k == kind and t]
        local = [v for v, k in zip(record["local_us"], record["local_kind"])
                 if k == kind]
        lines.append(f"  query {kind}: rtt {statistics.median(rtt):.2f} us, "
                     f"in-process {statistics.median(local):.2f} us "
                     f"({len(rtt)} queries)")
    return _with_units(values, PER_LAYER), lines


def _with_units(values, units):
    assert values.keys() == units.keys(), "metric set differs from its units"
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}
