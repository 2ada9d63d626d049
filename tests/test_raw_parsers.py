"""The raw ping and fullstats parsers against the row-wise oracles in
oracles.py, on messy logs, with blocks cut everywhere."""

import logging
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taildiag import ingest
from taildiag.errors import EmptyTraceError
from taildiag.ingest import RunMetadata, parse_fullstats, parse_ping_log

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
    with mock.patch.object(ingest, "_BLOCK_LINES", block_lines), warnings_logged() as warned:
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
    for block_lines in (3, ingest._BLOCK_LINES):
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
             "[1.6] 64 bytes from h: icmp_seq=9007199254740992 ttl=64 time=5.0 ms"]
    res = parse_ping_log(lines, META)
    assert [n for n, _ in res.malformed] == [1, 2, 3, 4]
    assert res.samples.seq.tolist() == [2.0 ** 53]


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
    lines[-1] = lines[-1].rstrip("\n")
    ok, epoch, seq, rtt = ingest._decode_block(lines)
    assert np.flatnonzero(~ok).tolist() == [9]
    assert seq[ok].tolist() == [i for i in range(1, 200) if i != 10]
    assert epoch[5] == float("1700000000.000006") and rtt[5] == float("6.6")
    # A block whose head holds no strict reply goes wholly to the line rules.
    odd_head = ["64 bytes from h: icmp_seq=1 ttl=64 time=5ms\n"] * 200 + lines
    assert not ingest._decode_block(odd_head)[0].any()


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
    for block_lines in (3, ingest._BLOCK_LINES):
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
