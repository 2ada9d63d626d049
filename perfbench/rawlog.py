"""Render a synthetic run as the raw logs a testbed leaves behind.

The ping log looks like `ping -D -O` output: a header line, one reply
line per ping stamped with its receive epoch, `icmp_seq` counting from
1 and wrapping at 65,536, `no answer yet` lines for timeouts, `(DUP!)`
replies, a few adjacent replies swapped, a small share of reply lines
that cannot be parsed, and the statistics trailer. The fullstats CSV
uses its own column names (mapped through `column_map`), a hex RNTI, a
second RNTI for a stretch after a reconnect, and a few rows with values
outside their domain.

Alongside the text, `render` returns what the ingest path must make of
it: the canonical latency and scheduler rows, and how many lines and
rows it injected of each kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HOST = "10.45.0.1"
RNTI = 0x4601
RECONNECT_RNTI = 0x4702
SEQ_MOD = 65536

# Shares of pings rendered as timeouts, malformed replies, duplicated
# replies and swapped neighbours; share of fullstats rows out of domain.
TIMEOUT_P = 0.001
MALFORMED_P = 0.0005
DUP_P = 0.0005
SWAP_P = 0.0005
BAD_ROW_P = 0.0005
RECONNECT_ROWS = 600      # rows logged under the second RNTI
DUP_DELAY_S = 0.00025     # a duplicate arrives this much after the reply

COLUMN_MAP = {
    "rnti": "RNTI", "dl_bler": "DL_BLER", "ul_bler": "UL_BLER",
    "dl_mcs": "DL_MCS", "ul_mcs": "UL_MCS", "snr_db": "SNR_dB",
    "rsrp_dbm": "RSRP_dBm", "dl_retx": "DL_HARQ_RETX", "dl_total": "DL_HARQ_TX",
}
_FULLSTATS_HEADER = ("TIME,CELL_ID,RNTI,DL_BLER,UL_BLER,DL_MCS,UL_MCS,"
                     "SNR_dB,RSRP_dBm,DL_HARQ_RETX,DL_HARQ_TX,PHR_dB")


@dataclass
class RawRun:
    ping_text: str
    fullstats_text: str
    # Canonical rows the ingest path must produce, in file order.
    latency_rows: list[tuple[float, int, float]]
    sched_rows: list[tuple]
    # Line accounting of the ping log.
    ping_lines: int
    skipped_lines: int
    malformed_lines: list[int]     # 1-based line numbers
    # Row accounting of the fullstats CSV.
    fullstats_rows: int
    bad_rows: list[int]            # 1-based data-row numbers


def fmt_rtt(rtt_ms: float) -> str:
    """Three significant digits, as ping prints `time=`."""
    if rtt_ms >= 100.0:
        return f"{rtt_ms:.0f}"
    if rtt_ms >= 10.0:
        return f"{rtt_ms:.1f}"
    if rtt_ms >= 1.0:
        return f"{rtt_ms:.2f}"
    return f"{rtt_ms:.3f}"


def _pick(rng: np.random.Generator, n: int, p: float) -> set[int]:
    return set(np.flatnonzero(rng.random(n) < p).tolist())


def render_ping(latency, packet_size_b: int, rng: np.random.Generator):
    """Ping log text, its expected canonical rows, and its accounting."""
    n = len(latency)
    epoch0 = 1_700_000_000 + int(rng.integers(0, 10**8))
    timeouts = _pick(rng, n, TIMEOUT_P)
    malformed = _pick(rng, n, MALFORMED_P) - timeouts
    dups = _pick(rng, n, DUP_P) - timeouts - malformed
    variants = rng.integers(0, 3, size=n)
    reply = f"{packet_size_b + 8} bytes from {HOST}: icmp_seq="

    lines = [f"PING {HOST} ({HOST}) {packet_size_b}({packet_size_b + 28}) bytes of data."]
    kinds = ["skip"]
    replies: list[tuple[str, int, str]] = []   # (epoch text, seq, rtt text)
    for i, s in enumerate(latency):
        seq = (i + 1) % SEQ_MOD
        if i in timeouts:
            lines.append(f"[{epoch0 + s.t_s + 1.0:.6f}] no answer yet for icmp_seq={seq}")
            kinds.append("skip")
            continue
        rtt = fmt_rtt(s.rtt_ms)
        stamp = f"{epoch0 + s.t_s + float(rtt) / 1000.0:.6f}"
        if i in malformed:
            v = variants[i]
            body = (f"{seq} ttl=64 time=" if v == 0 else
                    f"{seq} ttl=64 time=0.000 ms" if v == 1 else
                    f" ttl=64 time={rtt} ms")
            lines.append(f"[{stamp}] {reply}{body}")
            kinds.append("malformed")
            continue
        lines.append(f"[{stamp}] {reply}{seq} ttl=64 time={rtt} ms")
        kinds.append("reply")
        replies.append((stamp, seq, rtt))
        if i in dups:
            dup_rtt = fmt_rtt(float(rtt) + DUP_DELAY_S * 1000.0)
            dup_stamp = f"{float(stamp) + DUP_DELAY_S:.6f}"
            lines.append(f"[{dup_stamp}] {reply}{seq} ttl=64 time={dup_rtt} ms (DUP!)")
            kinds.append("reply")
            replies.append((dup_stamp, seq, dup_rtt))
    # Swap a few neighbouring replies; order in the file must not matter.
    for j in sorted(_pick(rng, len(lines) - 1, SWAP_P)):
        if kinds[j] == kinds[j + 1] == "reply":
            lines[j], lines[j + 1] = lines[j + 1], lines[j]

    rtts = [float(r) for _, _, r in replies]
    lines += [
        "",
        f"--- {HOST} ping statistics ---",
        f"{n} packets transmitted, {n - len(timeouts)} received, "
        f"+{len(dups)} duplicates, {100.0 * len(timeouts) / n:.1f}% packet loss, "
        f"time {int(latency[-1].t_s * 1000)}ms",
        f"rtt min/avg/max/mdev = {min(rtts):.3f}/{np.mean(rtts):.3f}/"
        f"{max(rtts):.3f}/{np.std(rtts):.3f} ms",
    ]
    kinds += ["skip"] * 4

    # The parser rebases to the earliest epoch among parsed replies and
    # orders samples by (t_s, seq); float arithmetic mirrors it exactly.
    base = min(float(e) for e, _, _ in replies)
    rows = sorted(((float(e) - base, seq, float(r)) for e, seq, r in replies),
                  key=lambda row: (row[0], row[1]))
    return ("\n".join(lines) + "\n", rows, len(lines), kinds.count("skip"),
            [k + 1 for k, kind in enumerate(kinds) if kind == "malformed"])


def render_fullstats(scheduler, rng: np.random.Generator):
    """Fullstats CSV text, its expected canonical rows, and bad rows."""
    n = len(scheduler)
    bad = _pick(rng, n, BAD_ROW_P)
    start = int(rng.integers(n // 4, n // 2))
    reconnect = range(start, min(n, start + RECONNECT_ROWS))
    lines = [_FULLSTATS_HEADER]
    rows = []
    for k, s in enumerate(scheduler):
        rnti = RECONNECT_RNTI if k in reconnect else RNTI
        dl_bler, dl_mcs, retx = repr(s.dl_bler), s.dl_mcs, s.dl_retx
        if k in bad:
            which = k % 3
            if which == 0:
                dl_bler = repr(1.0 + s.dl_bler + 0.25)
            elif which == 1:
                dl_mcs = 31
            else:
                retx = s.dl_total + 1
        lines.append(
            f"{k},1,{rnti:#x},{dl_bler},{s.ul_bler!r},{dl_mcs},{s.ul_mcs},"
            f"{s.snr_db!r},{s.rsrp_dbm!r},{retx},{s.dl_total},12")
        if k not in bad and rnti == RNTI:
            rows.append((float(k), RNTI, s.dl_bler, s.ul_bler, s.dl_mcs, s.ul_mcs,
                         s.snr_db, s.rsrp_dbm, s.dl_retx, s.dl_total))
    return "\n".join(lines) + "\n", rows, [k + 1 for k in sorted(bad)]


def render(run, seed: int) -> RawRun:
    """Raw logs for `run` (a taildiag Run whose snapshot k lies at
    t = k * stats period), with every injection drawn from `seed`."""
    rng = np.random.default_rng(seed)
    ping_text, latency_rows, ping_lines, skipped, malformed = render_ping(
        run.latency, run.meta.packet_size_b, rng)
    fullstats_text, sched_rows, bad_rows = render_fullstats(run.scheduler, rng)
    return RawRun(ping_text=ping_text, fullstats_text=fullstats_text,
                  latency_rows=latency_rows, sched_rows=sched_rows,
                  ping_lines=ping_lines, skipped_lines=skipped,
                  malformed_lines=malformed,
                  fullstats_rows=len(run.scheduler), bad_rows=bad_rows)
