"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive: plain Python loops, no numpy, no
shared code with the package under test. Slow but obviously correct.
"""

import csv
import math
import re


def percentile_ref(values, q):
    """Sort-and-interpolate percentile: rank h = (n-1)*q on the sorted data."""
    s = sorted(values)
    n = len(s)
    if n == 1:
        return float(s[0])
    h = (n - 1) * q
    lo = math.floor(h)
    if lo >= n - 1:
        return float(s[-1])
    frac = h - lo
    return float(s[lo] + frac * (s[lo + 1] - s[lo]))


def exceedance_ref(values, threshold):
    return sum(1 for v in values if v > threshold) / len(values)


def ks_d_ref(a, b):
    """Max ECDF gap, enumerated at every sample point of both samples."""
    best = 0.0
    for x in list(a) + list(b):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def average_ranks_ref(values):
    """1-based ranks; tied values share the mean of their rank span."""
    s = sorted(values)
    ranks = []
    for v in values:
        first = s.index(v) + 1
        count = s.count(v)
        ranks.append(first + (count - 1) / 2)
    return ranks


def spearman_ref(x, y):
    """Pearson correlation of average ranks; None when either side is constant."""
    rx = average_ranks_ref(x)
    ry = average_ranks_ref(y)
    n = len(rx)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return None
    return cov / math.sqrt(vx * vy)


def window_members_ref(times, start, end):
    """Indices i with start <= times[i] < end, in input order."""
    return [i for i, t in enumerate(times) if start <= t < end]


def window_starts_ref(duration, width, stride):
    """Enumerate fully-contained window start times the slow way."""
    starts = []
    k = 0
    while k * stride + width <= duration + 1e-9:
        starts.append(k * stride)
        k += 1
    return starts


# ------------------------------------------------------------ raw parsers

_PING_EPOCH = re.compile(r"^\[([0-9]+(?:\.[0-9]+)?)\]")
_PING_REPLY = re.compile(r"icmp_[sr]eq=([0-9]+)\b.*?\btime=([0-9]+(?:\.[0-9]+)?)\s*ms")


def parse_ping_ref(lines, ping_interval_s):
    """The ping log parse one line at a time.

    Returns (rows, skipped, malformed): rows are (t_s, seq, rtt_ms) sorted
    by (t_s, seq), ties in file order; skipped counts the lines that are
    no reply; malformed lists, in line order, the (line number, line)
    of the replies whose fields cannot be used: no seq and time, an rtt
    that is not finite and > 0, a seq of 2**53 or more, an epoch that is
    not finite, or no epoch in a log where some reply has one. t_s is
    the epoch less the earliest epoch, or in a log without epochs the
    16-bit-unwrapped seq count times ping_interval_s."""
    skipped, malformed, replies = 0, [], []
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if "bytes from" not in line or ("icmp_seq=" not in line and "icmp_req=" not in line):
            skipped += 1
            continue
        m = _PING_REPLY.search(line)
        seq = rtt = epoch = None
        if m is not None:
            rtt = float(m.group(2))
            try:
                seq = int(m.group(1))
            except ValueError:      # past int()'s digit limit
                seq = None
        em = _PING_EPOCH.match(line)
        if em is not None:
            epoch = float(em.group(1))
        if (seq is None or not 0.0 < rtt < math.inf or seq >= 2 ** 53
                or epoch == math.inf):
            malformed.append((line_no, line))
            continue
        replies.append((epoch, seq, rtt, line_no, line))
    if any(epoch is not None for epoch, *_ in replies):
        malformed += [(n, line) for epoch, _, _, n, line in replies if epoch is None]
        malformed.sort()
        replies = [r for r in replies if r[0] is not None]
    replies = [r[:3] for r in replies]
    counts = []
    for _, seq, _ in replies:
        if not counts:
            counts.append(seq)
        else:
            step = (seq - prev + 32768) % 65536 - 32768
            counts.append(counts[-1] + step)
        prev = seq
    if counts and min(counts) < 0:
        shift = (min(counts) // 65536) * 65536
        counts = [c - shift for c in counts]
    epochs = [e for e, _, _ in replies if e is not None]
    base = min(epochs) if epochs else 0.0
    rows = [(e - base if e is not None else count * ping_interval_s, seq, rtt)
            for (e, seq, rtt), count in zip(replies, counts)]
    return sorted(rows, key=lambda r: (r[0], r[1])), skipped, malformed


SCHED_FIELDS = ("t_s", "rnti", "dl_bler", "ul_bler", "dl_mcs", "ul_mcs", "snr_db",
                "rsrp_dbm", "dl_retx", "dl_total")
_SCHED_INTEGRAL = ("rnti", "dl_mcs", "ul_mcs", "dl_retx", "dl_total")


def _cell_ref(cell, integral):
    if "_" in cell or not cell.isascii():
        raise ValueError(f"not a number: {cell!r}")
    cell = cell.strip()
    if integral and cell[:2].lower() == "0x":
        return float(int(cell, 16))
    if not cell:
        return math.nan
    value = float(cell)
    if math.isnan(value):
        raise ValueError(f"not a number: {cell!r}")
    return value


def _whole(v):
    return abs(v) < 2.0 ** 53 and math.floor(v) == v


def _sched_fault_ref(r):
    """The first value-domain rule the snapshot r (a dict, NaN where
    absent) breaks, or None."""
    nan = math.isnan
    if not math.isfinite(r["t_s"]):
        return "t_s missing or not finite"
    if nan(r["rnti"]) or not _whole(r["rnti"]):
        return "rnti missing or not an integer"
    if r["rnti"] < 0:
        return "rnti < 0"
    if not 0.0 <= r["dl_bler"] <= 1.0:
        return "dl_bler missing or outside [0, 1]"
    if r["ul_bler"] < 0.0 or r["ul_bler"] > 1.0:
        return "ul_bler outside [0, 1]"
    for name in ("dl_mcs", "ul_mcs", "dl_retx", "dl_total"):
        if not nan(r[name]) and not _whole(r[name]):
            return f"{name} not an integer"
    for name in ("dl_mcs", "ul_mcs"):
        if r[name] < 0 or r[name] > 28:
            return f"{name} outside [0, 28]"
    for name in ("snr_db", "rsrp_dbm"):
        if math.isinf(r[name]):
            return f"{name} not finite"
    if r["dl_retx"] < 0:
        return "dl_retx < 0"
    if r["dl_total"] < 0:
        return "dl_total < 0"
    if r["dl_total"] > 0 and r["dl_retx"] > r["dl_total"]:
        return "dl_retx > dl_total"
    return None


def parse_fullstats_ref(lines, column_map, stats_period_s=1.0):
    """The fullstats parse one row at a time.

    Returns (rows, faults): rows are the kept snapshots as tuples in
    SCHED_FIELDS order (NaN where absent) sorted by (t_s, rnti), ties in
    file order; faults maps the 0-based index of each skipped data row
    to its reason. None when the input has no header or keeps no row."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        return None
    header = [h.strip() for h in header]
    mapped = [(name, header.index(column_map[name])) for name in SCHED_FIELDS
              if name in column_map]
    kept, faults = [], {}
    for row_idx, row in enumerate(reader):
        if all(not cell.strip() for cell in row):
            continue
        snap = dict.fromkeys(SCHED_FIELDS, math.nan)
        if "t_s" not in column_map:
            snap["t_s"] = row_idx * stats_period_s
        try:
            for name, col in mapped:
                if col >= len(row):
                    raise ValueError(f"{name} is field {col + 1}, but the row has {len(row)}")
                snap[name] = _cell_ref(row[col], name in _SCHED_INTEGRAL)
        except (ValueError, OverflowError) as exc:
            faults[row_idx] = str(exc)
            continue
        reason = _sched_fault_ref(snap)
        if reason is None:
            kept.append(snap)
        else:
            faults[row_idx] = reason
    if not kept:
        return None
    if "t_s" in column_map:
        base = min(s["t_s"] for s in kept)
        for s in kept:
            s["t_s"] -= base
    rows = [tuple(s[name] for name in SCHED_FIELDS) for s in kept]
    return sorted(rows, key=lambda r: (r[0], r[1])), faults


def table_text_ref(table):
    """A columnar table (a trace or the window table) as CSV text, one
    Python repr per cell: the field names as the header, then one line
    per row, an absent value (None) as an empty cell."""
    columns = [["" if v is None else repr(v) for v in table.values(name)]
               for name in table.names()]
    return "\n".join([",".join(table.names()), *map(",".join, zip(*columns))]) + "\n"


def consolidate_ref(samples, snapshots, offset):
    """consolidate_run over rows (named tuples in field order): the latency
    rows stably sorted by (t_s, seq); the snapshots of the RNTI with the
    most of them (ties: the lowest), shifted by a nonzero offset with
    those then below 0 dropped, stably sorted by t_s."""
    latency = sorted(samples, key=lambda s: (s[0], s[1]))
    counts = {}
    for snap in snapshots:
        counts[snap[1]] = counts.get(snap[1], 0) + 1
    rnti = min(counts, key=lambda r: (-counts[r], r)) if counts else None
    kept = [snap for snap in snapshots if snap[1] == rnti]
    if offset:
        kept = [type(snap)(snap[0] + offset, *snap[1:]) for snap in kept]
        kept = [snap for snap in kept if not snap[0] < 0]
    return latency, sorted(kept, key=lambda s: s[0])
