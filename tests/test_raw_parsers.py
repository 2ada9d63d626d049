"""The raw ping and fullstats parsers against the row-wise oracles in
oracles.py, on messy logs, with blocks cut everywhere."""

import json
import logging
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taildiag import chunks, ingest
from taildiag.cli import load_run
from taildiag.config import load_config
from taildiag.errors import EmptyTraceError, MalformedRecordError
from taildiag.ingest import RunMetadata, consolidate_run, parse_fullstats, parse_ping_log

from oracles import SCHED_FIELDS, parse_fullstats_ref, parse_ping_ref

META = RunMetadata(run_id="r1", ue_type="modem", distance_m=6.0, packet_size_b=30,
                   scenario="baseline", nominal_duration_s=1800.0, ping_interval_s=0.2)


@contextmanager
def warnings_logged():
    """The messages the ingest logger emits inside the block."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("taildiag.ingest")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def _parse(parse, block_lines, lines, *args, **kwargs):
    """(result or EmptyTraceError, warnings) of parse over lines, read in
    blocks of block_lines."""
    with mock.patch.object(chunks, "_BLOCK_LINES", block_lines), warnings_logged() as warned:
        try:
            return parse(lines, *args, **kwargs), warned
        except EmptyTraceError as exc:
            return exc, warned


# ---------------------------------------------------------------- ping log

RTTS = st.sampled_from(["0.123", "9.10", "12.3", "150", "1000.5", "007.50", "5"])

# Reply lines the block decoder leaves to the per-line rules, or must
# read exactly as they do. {seq} and {rtt} are filled in.
ODD_REPLIES = [
    "64 bytes from h: icmp_req={seq} ttl=64 time={rtt} ms",
    "[ 64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    "[] 64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    "[1.5.6] 64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    "[17.25]64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 xtime={rtt} ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time={rtt}\tms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time={rtt}ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} us",
    "64 bytes from a=b: icmp_seq={seq} ttl=64 time={rtt} ms",
    "64 bytes from hé: icmp_seq={seq} ttl=64 time={rtt} ms",
    "64 bytes from h: icmp_seq=９ ttl=64 time={rtt} ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time=3.\u0665 ms",
    "[\u0661.5] 64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    "64 bytes from h: icmp_seq={seq}  ttl=64 time={rtt} ms",
    "64 bytes from h: icmp_seq={seq} ttl= time={rtt} ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms\r",
    "64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} msec",
    "64 bytes from h: icmp_seq={seq} ttl=6 4 time={rtt} ms",
    "64 bytes from fe80::1%eth0: icmp_seq={seq} ttl=64 time={rtt} ms",
    "64 bytes from h: icmp_seq x: icmp_req={seq} ttl=64 time={rtt} ms",
    "64 bytes from h (10.0.0.1): icmp_seq={seq} ttl=64 time={rtt} ms (DUP!)",
    "[1.5] [2.5] 64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms time=1.0 ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time=.5 ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time=5. ms",
    "64 bytes from h: icmp_seq={seq} ttl=64\ntime={rtt} ms",
    "bytes from h: icmp_seq={seq} time={rtt} ms",
    "12345678 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    # Digit runs past 2**53, and past int64.
    "64 bytes from h: icmp_seq=9007199254740992 ttl=64 time={rtt} ms",
    "64 bytes from h: icmp_seq=9007199254740993 ttl=64 time={rtt} ms",
    "[1.2] 64 bytes from h: icmp_seq=99999999999999999999999 ttl=64 time={rtt} ms",
    "[12345678901234567.5] 64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    "[0.000000000000000001] 64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time=1234567890123456789.25 ms",
    "64 bytes from h: icmp_seq={seq} ttl=64 time=9007199254740993 ms",
    # An rtt and an epoch of over 308 digits: infinite as floats.
    "[1.2] 64 bytes from h: icmp_seq={seq} ttl=64 time=" + "9" * 400 + ".5 ms",
    "[" + "9" * 400 + "] 64 bytes from h: icmp_seq={seq} ttl=64 time={rtt} ms",
    "",
    "\n",
]


@st.composite
def ping_logs(draw):
    """A ping log as perfbench/rawlog.py renders one, small: a header,
    replies with or without epochs whose icmp_seq may wrap at 65,536,
    (DUP!) replies, timeouts, the three malformed variants, odd reply
    lines, swapped neighbours and the statistics trailer; each line
    with or without its newline."""
    stamped = draw(st.booleans())
    seq0 = draw(st.sampled_from([0, 1, 65530]))
    epoch0 = draw(st.sampled_from([0.0, 1_700_000_000.0]))
    lines = ["PING h (h) 30(58) bytes of data."]
    for i in range(draw(st.integers(1, 30))):
        seq = (seq0 + i) % 65536
        rtt = draw(RTTS)
        stamp = f"[{epoch0 + 0.2 * i + draw(st.sampled_from([0.0, 0.013])):.6f}] " \
            if stamped else ""
        reply = f"{stamp}38 bytes from 10.45.0.1: icmp_seq="
        kind = draw(st.sampled_from(["reply"] * 6 + ["dup", "timeout", "odd",
                                                     "no rtt", "zero rtt", "no seq"]))
        if kind == "timeout":
            lines.append(f"{stamp}no answer yet for icmp_seq={seq}")
        elif kind == "no rtt":
            lines.append(f"{reply}{seq} ttl=64 time=")
        elif kind == "zero rtt":
            lines.append(f"{reply}{seq} ttl=64 time=0.000 ms")
        elif kind == "no seq":
            lines.append(f"{reply} ttl=64 time={rtt} ms")
        elif kind == "odd":
            lines.append(stamp + draw(st.sampled_from(ODD_REPLIES)).format(seq=seq, rtt=rtt))
        else:
            lines.append(f"{reply}{seq} ttl=64 time={rtt} ms")
            if kind == "dup":
                lines.append(f"{reply}{seq} ttl=64 time={draw(RTTS)} ms (DUP!)")
    for j in draw(st.lists(st.integers(0, len(lines) - 2), max_size=3)):
        lines[j], lines[j + 1] = lines[j + 1], lines[j]
    lines += ["", "--- h ping statistics ---", "3 packets transmitted, 2 received"]
    ends = draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    return [line + "\n" if end else line for line, end in zip(lines, ends)]


def _columns(trace):
    return [getattr(trace, name).tobytes() for name in trace.names()]


@settings(max_examples=150, deadline=None)
@given(ping_logs())
@example(["[1.2] 64 bytes from h: icmp_seq=99999999999999999999999 ttl=64 time=5.0 ms\n",
          "[1.4] 64 bytes from h: icmp_seq=2 ttl=64 time=5.0 ms\n"])
def test_ping_parse_equals_the_line_by_line_oracle(lines):
    rows, skipped, malformed = parse_ping_ref(lines, META.ping_interval_s)
    expected_warnings = [f"ping line {n} unparseable: {line}" for n, line in malformed]
    for block_lines in (3, chunks._BLOCK_LINES):
        got, warned = _parse(parse_ping_log, block_lines, iter(lines), META)
        assert warned == expected_warnings
        if not rows:
            assert isinstance(got, EmptyTraceError)
            continue
        expected = ingest.LatencyTrace(*zip(*rows))
        assert _columns(got.samples) == _columns(expected)
        assert (got.skipped_lines, got.malformed) == (skipped, malformed)


def test_ping_replies_past_2_53_or_infinite_are_malformed():
    lines = ["[1.2] 64 bytes from h: icmp_seq=99999999999999999999999 ttl=64 time=5.0 ms",
             "[1.3] 64 bytes from h: icmp_seq=9007199254740993 ttl=64 time=5.0 ms",
             "[1.4] 64 bytes from h: icmp_seq=3 ttl=64 time=" + "9" * 400 + ".5 ms",
             "[" + "9" * 400 + "] 64 bytes from h: icmp_seq=4 ttl=64 time=5.0 ms",
             "[1.6] 64 bytes from h: icmp_seq=9007199254740992 ttl=64 time=5.0 ms",
             "[1.7] 64 bytes from h: icmp_seq=9007199254740991 ttl=64 time=5.0 ms"]
    res = parse_ping_log(lines, META)
    assert [n for n, _ in res.malformed] == [1, 2, 3, 4, 5]
    assert res.samples.seq.tolist() == [2.0 ** 53 - 1]


@pytest.mark.parametrize("block_lines", [2, 65536])
def test_ping_digits_are_ascii(block_lines):
    # float() and int() read any Unicode digit, and \d matches them.
    lines = ["64 bytes from h: icmp_seq=\u0663 ttl=1 time=\u0663 ms",
             "64 bytes from h: icmp_seq=4 ttl=1 time=3.\u0665 ms",
             "64 bytes from h: icmp_seq=12\u00e9 ttl=1 time=3 ms",
             "64 bytes from h: icmp_seq=1\u0663 ttl=1 time=3 ms",
             "[\u0661\u0667.5] 64 bytes from h: icmp_seq=5 ttl=1 time=3 ms",
             "64 bytes from h: icmp_seq=6 ttl=1 time=3 ms"]
    got, warned = _parse(parse_ping_log, block_lines, iter(lines), META)
    assert [n for n, _ in got.malformed] == [1, 2, 3, 4] and len(warned) == 4
    assert got.samples.seq.tolist() == [5, 6]
    # The bracket holds no epoch, so times come from the sequence count.
    assert got.samples.t_s.tolist() == [5 * META.ping_interval_s, 6 * META.ping_interval_s]


def test_ping_block_decoder_takes_the_common_replies():
    lines = [f"[1700000000.{i:06d}] 38 bytes from 10.45.0.1: icmp_seq={i} ttl=64 "
             f"time={i % 97}.{i % 7} ms\n" for i in range(1, 200)]
    lines[9] = lines[9].replace("time=10.3", "time=0.000")      # left to the line rules
    chunk = "".join(lines).encode()
    start, end, ok, epoch, seq, rtt = chunks.decode_replies(chunk)
    assert [chunk[a:b] for a, b in zip(start, end)] == [line.rstrip("\n").encode()
                                                        for line in lines]
    assert np.flatnonzero(~ok).tolist() == [9]
    assert seq[ok].tolist() == [i for i in range(1, 200) if i != 10]
    assert epoch[5] == float("1700000000.000006") and rtt[5] == float("6.6")
    # A block whose head holds no strict reply goes wholly to the line
    # rules, and a last line cut short reads no byte past the block.
    odd = b"64 bytes from h: icmp_seq=1 ttl=64 time=5ms\n" * 200
    for block in (odd + chunk, odd + b"[\n", b"[\n", b"[1.5] 64 bytes from h: icmp_seq=1\n"):
        start, end, ok = chunks.decode_replies(block)[:3]
        assert not ok.any()
        assert [block[a:b] for a, b in zip(start, end)] == block.split(b"\n")[:-1]


# --------------------------------------------------------------- fullstats

HEADER = ["TIME", "RNTI", "DL_BLER", "UL_BLER", "DL_MCS", "SNR_dB", "DL_HARQ_RETX",
          "DL_HARQ_TX"]
MAPS = [
    {"rnti": "RNTI", "dl_bler": "DL_BLER"},
    {"rnti": "RNTI", "dl_bler": "DL_BLER", "ul_bler": "UL_BLER", "dl_mcs": "DL_MCS",
     "snr_db": "SNR_dB", "dl_retx": "DL_HARQ_RETX", "dl_total": "DL_HARQ_TX"},
    {"t_s": "TIME", "rnti": "RNTI", "dl_bler": "DL_BLER", "dl_mcs": "DL_MCS"},
]
CELLS = {
    "TIME": ["0.5", "3", "1000.25", "2", " 7.5 ", "", "nan", "inf", "x"],
    "RNTI": ["17", "0x4601", "0X11", "18", " 0x4702", "0xzz", "-3", "17.5", "", "nan",
             "0x_11", "\u0661\u0667"],
    "DL_BLER": ["0.05", "0", "1.0", "0.5", "1.7", "", "nan", "abc", "\u0660.5"],
    "UL_BLER": ["0.1", "", "  ", "2.0", "nan"],
    "DL_MCS": ["9", "28", "", "31", "9.5", "0x1c", "1_0"],
    "SNR_dB": ["29.929603705319114", "-80.5", "", "inf", "1e999"],
    "DL_HARQ_RETX": ["2", "0", "", "60", "-1"],
    "DL_HARQ_TX": ["50", "", "0", "-50"],
}


@st.composite
def fullstats_texts(draw):
    """A fullstats CSV, split into lines as a file reads: good rows and
    rows with hex, blank, `nan` and out-of-domain cells, short rows,
    blank and whitespace-only rows, rows of commas, and quoted cells,
    one of them holding a comma and one a line break."""
    lines = [",".join(HEADER)]
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["row"] * 8 + ["short", "blank", "spaces", "commas",
                                                   "quoted", "multiline"]))
        cells = [draw(st.sampled_from(CELLS[h])) if draw(st.integers(0, 3)) == 0
                 else CELLS[h][0] for h in HEADER]
        if kind == "short":
            cells = cells[:draw(st.integers(1, len(HEADER) - 1))]
        elif kind == "quoted":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(
                st.sampled_from(['"0.25"', '"1,5"', '""']))
        elif kind == "multiline":
            cells[-1] = '"5\n0"'
        line = {"blank": "", "spaces": "   ", "commas": ",,,"}.get(kind, ",".join(cells))
        lines.append(line)
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return text.splitlines(keepends=True)


@settings(max_examples=150, deadline=None)
@given(fullstats_texts(), st.sampled_from(MAPS), st.sampled_from([1.0, 0.25]))
def test_fullstats_parse_equals_the_row_by_row_oracle(lines, column_map, period):
    ref = parse_fullstats_ref(lines, column_map, period)
    for block_lines in (3, chunks._BLOCK_LINES):
        got, warned = _parse(parse_fullstats, block_lines, iter(lines), column_map, META,
                             stats_period_s=period)
        if ref is None:
            assert isinstance(got, EmptyTraceError)
            continue
        rows, faults = ref
        assert warned == [f"fullstats row {k + 1} skipped: {faults[k]}"
                          for k in sorted(faults)]
        expected = [np.array(col, dtype=float).tobytes() for col in zip(*rows)]
        assert _columns(got.snapshots) == expected
        assert got.skipped_rows == len(faults)
    assert SCHED_FIELDS == ingest.SchedulerTrace.names()


def test_fullstats_quoted_field_across_a_block_end():
    lines = ["rnti,dl_bler,note\n", "17,0.1,a\n", '17,0.2,"b\n', 'c"\n', "18,0.3,d\n"]
    cmap = {"rnti": "rnti", "dl_bler": "dl_bler"}
    for block_lines in (1, 2, 3):
        got, warned = _parse(parse_fullstats, block_lines, iter(lines), cmap, META)
        assert got.snapshots.t_s.tolist() == [0.0, 1.0, 2.0]
        assert got.snapshots.dl_bler.tolist() == [0.1, 0.2, 0.3] and warned == []


@pytest.mark.parametrize("block_lines", [1, 2, 65536])
def test_fullstats_columns_refused_by_the_bulk_pass_name_each_row(block_lines):
    lines = ["rnti,dl_bler,mcs", "0x11,0.1,9", "17,nan,9", "17,0.1,", "0x,0.1,9", "17"]
    cmap = {"rnti": "rnti", "dl_bler": "dl_bler", "dl_mcs": "mcs"}
    got, warned = _parse(parse_fullstats, block_lines, iter(lines), cmap, META)
    assert got.snapshots.rnti.tolist() == [17.0, 17.0]
    assert warned == [
        "fullstats row 2 skipped: not a number: 'nan'",
        "fullstats row 4 skipped: invalid literal for int() with base 16: '0x'",
        "fullstats row 5 skipped: dl_bler is field 2, but the row has 1"]


@pytest.mark.parametrize("block_lines", [1, 2, 65536])
def test_fullstats_cells_with_underscores_or_non_ascii_are_skipped(block_lines):
    # float() reads "1_0" as 10 and "\u0663" as 3, int(cell, 16) "0x_5" as 5.
    lines = ["rnti,dl_bler,mcs", "17,0.1,9", "17,0.1,1_0", "17,\u0660.5,9", "0x_11,0.1,9",
             "\u0661\u0667,0.1,9", "17,0.1,\u00a09", "17,0.3,10"]
    cmap = {"rnti": "rnti", "dl_bler": "dl_bler", "dl_mcs": "mcs"}
    got, warned = _parse(parse_fullstats, block_lines, iter(lines), cmap, META)
    assert got.snapshots.dl_mcs.tolist() == [9.0, 10.0] and got.skipped_rows == 5
    assert warned == [
        "fullstats row 2 skipped: not a number: '1_0'",
        "fullstats row 3 skipped: not a number: '\u0660.5'",
        "fullstats row 4 skipped: not a number: '0x_11'",
        "fullstats row 5 skipped: not a number: '\u0661\u0667'",
        "fullstats row 6 skipped: not a number: '\\xa09'"]


# ------------------------------------------------ logs read as bytes, by chunk

def test_unstamped_reply_in_a_stamped_log_is_malformed(tmp_path):
    # A reply without an epoch, or whose bracket holds none, would be
    # timed by its sequence count, on another base than its neighbours.
    lines = ["64 bytes from h: icmp_seq=4999 ttl=64 time=5 ms",
             "64 bytes from h: icmp_seq=x ttl=64 time=5 ms",
             "[1700000000.0] 64 bytes from h: icmp_seq=5000 ttl=64 time=5 ms",
             "[] 64 bytes from h: icmp_seq=5001 ttl=64 time=5 ms",
             "[1.5.6] 64 bytes from h: icmp_seq=5003 ttl=64 time=5 ms",
             "[١.5] 64 bytes from h: icmp_seq=5004 ttl=64 time=5 ms",
             "[1700000002.0] 64 bytes from h: icmp_seq=5002 ttl=64 time=5 ms"]
    path = tmp_path / "ping.log"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for chunk_bytes in (64, chunks._CHUNK_BYTES):
        for source in (lines, chunks.RawLog(path)):
            with mock.patch.object(chunks, "_CHUNK_BYTES", chunk_bytes):
                got, warned = _parse(parse_ping_log, 2, source, META)
            assert got.samples.t_s.tolist() == [0.0, 2.0]
            assert got.samples.seq.tolist() == [5000, 5002]
            assert [n for n, _ in got.malformed] == [1, 2, 4, 5, 6]
            assert warned == [f"ping line {n} unparseable: {lines[n - 1]}"
                              for n in (1, 2, 4, 5, 6)]
    # Without any epoch, times come from the sequence count as before.
    got = parse_ping_log(lines[:2], META)
    assert got.samples.seq.tolist() == [4999] and len(got.malformed) == 1


def test_fullstats_integral_cells_past_2_53_are_skipped():
    # float() reads 2**53 + 1 as 2**53: from 2**53 on, a float64 integer
    # stands for more than one integer.
    lines = ["rnti,dl_bler,tx", "9007199254740993,0.1,5", "0x20000000000001,0.1,5",
             "17,0.1,9007199254740993", "9007199254740992,0.1,5", "9007199254740991,0.2,5",
             "0x1fffffffffffff,0.3,9007199254740991"]
    cmap = {"rnti": "rnti", "dl_bler": "dl_bler", "dl_total": "tx"}
    for block_lines in (2, 65536):
        got, warned = _parse(parse_fullstats, block_lines, lines, cmap, META)
        assert got.skipped_rows == 4 and got.snapshots.rnti.tolist() == [2.0 ** 53 - 1] * 2
        assert warned == ["fullstats row 1 skipped: rnti missing or not an integer",
                          "fullstats row 2 skipped: rnti missing or not an integer",
                          "fullstats row 3 skipped: dl_total not an integer",
                          "fullstats row 4 skipped: rnti missing or not an integer"]


def _messy_logs(tmp_path):
    """A ping log and a fullstats CSV, each written so that small chunks
    cut them everywhere: a CRLF stretch, a non-ASCII stretch, malformed
    and odd lines, and no final newline; the fullstats CSV has a quoted
    cell, and a line break in one, in one stretch only."""
    ping = ["PING h (h) 30(58) bytes of data."]
    for i in range(120):
        stamp = f"[{1_700_000_000 + 0.2 * i:.6f}] "
        host = "hé" if 40 <= i < 45 else "10.45.0.1"
        line = (f"{stamp}38 bytes from {host}: icmp_seq={i % 7 + i} ttl=64 "
                f"time={i % 97}.{i % 3} ms")
        if i % 17 == 5:
            line = line[:line.index("time=") + 5]               # no rtt: malformed
        elif i % 23 == 7:
            line = line.replace(stamp, "")                      # no epoch: malformed
        elif i % 29 == 3:
            line = f"{stamp}no answer yet for icmp_seq={i}"
        ping.append(line + ("\r" if 60 <= i < 66 else ""))
    ping += ["", "--- h ping statistics ---", "120 packets transmitted"]
    fullstats = ["TIME,RNTI,DL_BLER,UL_BLER,DL_MCS,SNR_dB,DL_HARQ_RETX,DL_HARQ_TX"]
    for k in range(150):
        row = [str(k), "0x4601", repr(0.01 * (k % 50)), "0.05", str(k % 30),
               repr(29.0 + k / 7), str(k % 5), "50"]
        if k == 70:
            row[5] = '"1,5"'
        elif k == 71:
            row[7] = '"5\n0"'
        elif k % 31 == 4:
            row = row[:3]
        elif k % 37 == 9:
            row = [""] * len(row)
        fullstats.append(",".join(row))
    ping_path, fullstats_path = tmp_path / "ping.log", tmp_path / "fullstats.csv"
    ping_path.write_bytes("\n".join(ping).encode("utf-8"))
    fullstats_path.write_bytes("\n".join(fullstats).encode("utf-8"))
    return ping_path, fullstats_path


@pytest.mark.parametrize("chunk_bytes", [50, 173, 1024, 1 << 20])
def test_logs_read_by_chunk_equal_the_str_line_parse(tmp_path, chunk_bytes):
    ping_path, fullstats_path = _messy_logs(tmp_path)
    cmap = MAPS[1]
    # The str lines a text file yields: UTF-8, universal newlines.
    with open(ping_path, encoding="utf-8") as fh:
        ping_lines = list(fh)
    with open(fullstats_path, encoding="utf-8") as fh:
        fullstats_lines = list(fh)
    want_ping, want_ping_log = _parse(parse_ping_log, 16, ping_lines, META)
    want_fs, want_fs_log = _parse(parse_fullstats, 16, fullstats_lines, cmap, META)
    with mock.patch.object(chunks, "_CHUNK_BYTES", chunk_bytes):
        plain = [chunks._plain(chunk) for chunk in chunks.RawLog(ping_path).chunks()]
        assert not all(plain) and (any(plain) or len(plain) == 1)
        assert list(chunks.RawLog(ping_path)) == ping_lines
        got_ping, got_ping_log = _parse(parse_ping_log, 16, chunks.RawLog(ping_path), META)
        got_fs, got_fs_log = _parse(parse_fullstats, 16, chunks.RawLog(fullstats_path),
                                    cmap, META)
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({"runs": [{
            "run_id": "r1", "ue_type": "modem", "scenario": "baseline", "distance_m": 6.0,
            "packet_size_b": 30, "ping_interval_s": 0.2, "ping_log": ping_path.name,
            "fullstats": fullstats_path.name, "column_map": cmap}]}), encoding="utf-8")
        cfg = load_config(config)
        run = load_run(cfg, cfg.runs[0])
    assert _columns(got_ping.samples) == _columns(want_ping.samples)
    assert (got_ping.skipped_lines, got_ping.malformed) == (want_ping.skipped_lines,
                                                            want_ping.malformed)
    assert got_ping_log == want_ping_log and len(want_ping.malformed) > 5
    assert _columns(got_fs.snapshots) == _columns(want_fs.snapshots)
    assert got_fs.skipped_rows == want_fs.skipped_rows > 0 and got_fs_log == want_fs_log
    want_run = consolidate_run(want_ping.samples, want_fs.snapshots, run.meta)
    assert _columns(run.latency) == _columns(want_run.latency)
    assert _columns(run.scheduler) == _columns(want_run.scheduler)


@pytest.mark.parametrize("chunk_bytes", [40, 1 << 20])
def test_a_byte_that_is_not_utf8_names_its_line_in_the_file(tmp_path, chunk_bytes):
    lines = [f"[{i}.5] 64 bytes from h: icmp_seq={i} ttl=64 time=5 ms" for i in range(30)]
    lines[20] = "[20.5] 64 bytes from h\udcff: icmp_seq=20"
    cmap = {"rnti": "a", "dl_bler": "b"}
    for parse, args, head in ((parse_ping_log, (META,), []),
                              (parse_fullstats, (cmap, META), ["a,b"])):
        text = head + lines
        path = tmp_path / "log"
        path.write_bytes("\r\n".join(text[:10]).encode() + b"\r\n"
                         + "\n".join(text[10:]).encode("utf-8", "surrogateescape"))
        with mock.patch.object(chunks, "_CHUNK_BYTES", chunk_bytes), \
                pytest.raises(MalformedRecordError) as exc:
            parse(chunks.RawLog(path), *args)
        line = len(head) + 21
        assert exc.value.line == line
        assert str(exc.value) == f"{path}:{line}: not UTF-8 text: byte 0xff"
