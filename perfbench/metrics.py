"""Turns perfbench_driver pass records into the benchmark's metrics.

A pass record is one JSON line of the driver: per app run, its wall time (the driver's
span around the Run<App> call), its parallel-phase time (node 0, BeginParallel to the
final barrier), its verification verdict, every counter summed over processors, the wire
totals and, on traced passes, the span histograms merged over processors.
"""

import statistics
from statistics import median

PROCS = 4  # DSM processors per app run; must match kProcs in driver.cc
APPS = ("water", "quicksort", "matmul", "sor", "cholesky")
MB = 1e6

# End-to-end metrics, from untraced passes: name -> unit.
END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "data_mb": "MB",
    "wire_mb": "MB",
    "msgs": "count",
    "rss_mb": "MB",
}

# Per-layer metrics, from traced passes: name -> unit. Counts and bytes are per pass.
PER_LAYER = {
    **{f"apps.{app}.par_s": "s" for app in APPS},
    "core.stores": "count",
    "core.write_faults": "count",
    "core.collect.n": "count",
    "core.collect.mean_us": "us",
    "core.collect.p99_us": "us",
    "core.lines_scanned": "count",
    "core.collect.dirty_share": "ratio",
    "core.summary_word_skips": "count",
    "core.redundant_bytes_skipped": "B",
    "core.acquire_wait.n": "count",
    "core.acquire_wait.p50_us": "us",
    "core.acquire_wait.p99_us": "us",
    "core.acquire_wait.attributed_share": "ratio",
    "core.acquire_local_share": "ratio",
    "core.grant_build.mean_us": "us",
    "core.grant_build.p99_us": "us",
    "core.grant_apply.mean_us": "us",
    "core.grant_apply.p99_us": "us",
    "core.barrier_wait.p50_us": "us",
    "core.barrier_wait.p99_us": "us",
    "core.barrier_apply.n": "count",
    "core.barrier_apply.mean_us": "us",
    "core.barrier_apply.p99_us": "us",
    "core.barrier_apply.per_proc_s": "s",
    "core.sync_wait_share": "ratio",
    "core.full_data_sends": "count",
    "mem.diff.n": "count",
    "mem.diff.mean_us": "us",
    "mem.diff.p99_us": "us",
    "mem.pages_diffed": "count",
    "mem.pages_write_protected": "count",
    "mem.twin_bytes_updated": "B",
    "net.wire_send.n": "count",
    "net.wire_send.mean_us": "us",
    "net.wire_send.p99_us": "us",
    "net.recv_copy_share": "ratio",
    "net.bytes_per_msg": "B",
    "net.payload_bytes_copied": "B",
    "obs.trace_overhead": "ratio",
}

# Workload fingerprint: the operation counts of one app run, summed over processors, as
# (low, high) per counter. A run outside a range means the traffic the workload measures
# has changed, and the baseline no longer applies. quicksort's counts depend on its input
# (acquires 5185-5935 and stores 2.80M-4.44M over about 300 inputs; 1% more by scheduling
# alone), so its ranges are that wide and widened further for inputs not yet seen;
# cholesky's fault count varies by a few under VM; every other count is exact.
FINGERPRINT_COUNTERS = ("lock_acquires", "barrier_crossings", "dirtybits_set", "write_faults")
_LOCK_APPS = {
    "cholesky": ((6232, 6232), (472, 472), (28227, 28227), (0, 0)),
    "quicksort": ((4800, 6400), (12, 12), (2_200_000, 5_200_000), (0, 0)),
}
FINGERPRINTS = {
    "rt-locks": _LOCK_APPS,
    "rt-locks-tcp": _LOCK_APPS,
    "rt-barriers": {
        "matmul": ((0, 0), (8, 8), (262144, 262144), (0, 0)),
        "sor": ((0, 0), (208, 208), (6_300_000, 6_300_000), (0, 0)),
        "water": ((0, 0), (44, 44), (10290, 10290), (0, 0)),
    },
    "vm-sigsegv": {
        "water": ((0, 0), (44, 44), (0, 0), (45, 45)),
        "quicksort": ((4800, 6400), (12, 12), (0, 0), (2500, 5200)),
        "matmul": ((0, 0), (8, 8), (0, 0), (512, 512)),
        "sor": ((0, 0), (208, 208), (0, 0), (1973, 1973)),
        "cholesky": ((6232, 6232), (472, 472), (0, 0), (865, 895)),
    },
}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def hist_percentile_ns(hist, q):
    """Percentile q in [0, 1] of a log2 histogram, as HistogramSnapshot::ApproxPercentileNs
    computes it: the upper bound of the first bucket where the cumulative count reaches
    q * count. Bucket 0 holds zeros (bound 1 ns), bucket i holds [2^(i-1), 2^i), and the
    last bucket is unbounded, so it reports the exact max."""
    if hist["count"] == 0:
        return 0
    buckets = hist["buckets"]
    target = q * hist["count"]
    seen = 0
    for i, n in enumerate(buckets):
        seen += n
        if seen >= target and n > 0:
            if i == len(buckets) - 1:
                return hist["max_ns"]
            return 1 if i == 0 else 1 << i
    return hist["max_ns"]


def merge_hists(hists):
    merged = {"count": 0, "sum_ns": 0, "max_ns": 0, "buckets": None}
    for h in hists:
        merged["count"] += h["count"]
        merged["sum_ns"] += h["sum_ns"]
        merged["max_ns"] = max(merged["max_ns"], h["max_ns"])
        if merged["buckets"] is None:
            merged["buckets"] = list(h["buckets"])
        else:
            merged["buckets"] = [a + b for a, b in zip(merged["buckets"], h["buckets"])]
    if merged["buckets"] is None:
        merged["buckets"] = [0] * 40
    return merged


def pass_time(p):
    return sum(a["par_s"] for a in p["apps"])


def pass_setup(p):
    return sum(a["wall_s"] - a["par_s"] for a in p["apps"])


def pass_sum(p, key):
    return sum(a[key] for a in p["apps"])


def pass_counter(p, name):
    return sum(a["counters"][name] for a in p["apps"])


def end_to_end(passes):
    """End-to-end metrics over untraced passes: name -> value.

    rss_mb is the process's peak RSS once the first pass has run, not at the end: the
    resident set grows from pass to pass (by up to 15 MB a pass on rt-locks-tcp), so a
    peak taken at the end would depend on how many passes the machine fit into the run."""
    rss_kb = passes[0]["peak_rss_kb"]
    return {
        "pass_s": median([pass_time(p) for p in passes]),
        "setup_s": median([pass_setup(p) for p in passes]),
        "data_mb": median([pass_counter(p, "data_bytes_sent") / MB for p in passes]),
        "wire_mb": median([pass_sum(p, "wire_bytes") / MB for p in passes]),
        "msgs": median([pass_sum(p, "wire_packets") for p in passes]),
        "rss_mb": rss_kb / 1024,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(untraced, traced):
    """Per-layer metrics over traced passes, plus the traced-vs-untraced overhead."""
    n = len(traced)
    runs = [a for p in traced for a in p["apps"]]

    def counter(name):
        return sum(a["counters"][name] for a in runs) / n

    def span(kind):
        return merge_hists([a["spans"][kind] for a in runs if kind in a["spans"]])

    def mean_us(h):
        return _ratio(h["sum_ns"], h["count"]) / 1e3

    def p_us(h, q):
        return hist_percentile_ns(h, q) / 1e3

    out = {}
    for app in APPS:
        par = [a["par_s"] for a in runs if a["app"] == app]
        out[f"apps.{app}.par_s"] = median(par) if par else 0.0

    collect, acquire = span("collect"), span("acquire_wait")
    build, apply_, send = span("grant_build"), span("grant_apply"), span("wire_send")
    bwait, bapply, diff = span("barrier_wait"), span("barrier_apply"), span("diff")
    clean, dirty = counter("clean_dirtybits_read"), counter("dirty_dirtybits_read")
    wire_bytes = sum(a["wire_bytes"] for a in runs)
    traced_pass_s = sum(pass_time(p) for p in traced)

    out.update({
        "core.stores": counter("dirtybits_set"),
        "core.write_faults": counter("write_faults"),
        "core.collect.n": collect["count"] / n,
        "core.collect.mean_us": mean_us(collect),
        "core.collect.p99_us": p_us(collect, 0.99),
        "core.lines_scanned": clean + dirty,
        "core.collect.dirty_share": _ratio(dirty, clean + dirty),
        "core.summary_word_skips": counter("summary_word_skips"),
        "core.redundant_bytes_skipped": counter("redundant_bytes_skipped"),
        "core.acquire_wait.n": acquire["count"] / n,
        "core.acquire_wait.p50_us": p_us(acquire, 0.5),
        "core.acquire_wait.p99_us": p_us(acquire, 0.99),
        "core.acquire_wait.attributed_share": _ratio(
            build["sum_ns"] + apply_["sum_ns"] + send["sum_ns"], acquire["sum_ns"]),
        "core.acquire_local_share": _ratio(counter("lock_acquires_local"),
                                           counter("lock_acquires")),
        "core.grant_build.mean_us": mean_us(build),
        "core.grant_build.p99_us": p_us(build, 0.99),
        "core.grant_apply.mean_us": mean_us(apply_),
        "core.grant_apply.p99_us": p_us(apply_, 0.99),
        "core.barrier_wait.p50_us": p_us(bwait, 0.5),
        "core.barrier_wait.p99_us": p_us(bwait, 0.99),
        "core.barrier_apply.n": bapply["count"] / n,
        "core.barrier_apply.mean_us": mean_us(bapply),
        "core.barrier_apply.p99_us": p_us(bapply, 0.99),
        "core.barrier_apply.per_proc_s": bapply["sum_ns"] / 1e9 / PROCS / n,
        "core.sync_wait_share": _ratio(
            (acquire["sum_ns"] + bwait["sum_ns"]) / 1e9 / PROCS, traced_pass_s),
        "core.full_data_sends": counter("full_data_sends"),
        "mem.diff.n": diff["count"] / n,
        "mem.diff.mean_us": mean_us(diff),
        "mem.diff.p99_us": p_us(diff, 0.99),
        "mem.pages_diffed": counter("pages_diffed"),
        "mem.pages_write_protected": counter("pages_write_protected"),
        "mem.twin_bytes_updated": counter("twin_bytes_updated"),
        "net.wire_send.n": send["count"] / n,
        "net.wire_send.mean_us": mean_us(send),
        "net.wire_send.p99_us": p_us(send, 0.99),
        "net.recv_copy_share": _ratio(sum(a["recv_bytes_copied"] for a in runs), wire_bytes),
        "net.bytes_per_msg": _ratio(wire_bytes, sum(a["wire_packets"] for a in runs)),
        "net.payload_bytes_copied": counter("payload_bytes_copied"),
        "obs.trace_overhead": (median([pass_time(p) for p in traced])
                               / median([pass_time(p) for p in untraced]) - 1),
    })
    return out


def fingerprint_problems(workload, passes):
    """Every app run whose operation counts leave the workload's recorded ranges."""
    problems = []
    ranges = FINGERPRINTS[workload]
    for p in passes:
        for a in p["apps"]:
            for name, (lo, hi) in zip(FINGERPRINT_COUNTERS, ranges[a["app"]]):
                value = a["counters"][name]
                if not lo <= value <= hi:
                    problems.append(f"pass {p['pass']} {a['app']}: {name}={value} "
                                    f"outside [{lo}, {hi}]")
    return problems
