"""A large ping log's parse, its tail read in a forked child
(canon.split_work) while this process reads its head and then the
whole fullstats log of the run, and a large trace write, split in two
halves with the second in a forked child: the same results, warnings,
errors and bytes as one process gives reading each whole in turn,
whatever the child, the wait for it or the join does, and no child
left behind. The minimums are patched down, so the split runs on small
inputs."""

import csv
import errno
import io
import json
import os
import runpy
import signal
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager, redirect_stderr
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from taildiag import canon, ingest
from taildiag.cli import main
from taildiag.errors import MalformedRecordError, ToolkitError
from taildiag.ingest import parse_fullstats, parse_ping_log
from taildiag.model import LatencyTrace, RunMetadata, SchedulerTrace

META = RunMetadata(run_id="r1", ue_type="modem", distance_m=6.0, packet_size_b=30,
                   scenario="baseline", nominal_duration_s=1800.0, ping_interval_s=0.2)
PARENT = os.getpid()


@contextmanager
def forks(split: bool):
    """os.fork, counted, inside the block; with split, the ping log and
    trace minimums down to one byte and one row, on any host."""
    with ExitStack() as stack:
        fork = stack.enter_context(mock.patch.object(os, "fork", wraps=os.fork))
        if split:
            for module, name, value in ((ingest, "_SPLIT_BYTES", 1), (canon, "_SPLIT_ROWS", 1),
                                        (canon, "may_split", lambda: True)):
                stack.enter_context(mock.patch.object(module, name, value))
        yield fork


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def mark(tmp_path_factory):
    """The file a fault helper below makes when it acts, so a test can
    tell its fault fired: outside tmp_path, whose listing tests check."""
    return tmp_path_factory.mktemp("mark") / "fault"


def in_child(fail, real, mark):
    """real, but in a forked child it makes the file mark, then fails by
    `fail`: raising, exiting non-zero, or killed by a signal."""
    def call(*args, **kwargs):
        if os.getpid() != PARENT:
            mark.touch()
            if fail == "raise":
                raise MemoryError("in the child")
            if fail == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)
    return call


def hangs_in_child(real, mark):
    """real, but in a forked child it makes the file mark and hangs for
    a minute first: only a child killed ends in time."""
    def call(*args, **kwargs):
        if os.getpid() != PARENT:
            mark.touch()
            time.sleep(60)
        return real(*args, **kwargs)
    return call


@contextmanager
def first_wait_raises(exc, mark):
    """os.waitpid, each call's (pid, options) listed, but the first call
    raises exc in this process, once the file mark is made or 20 s have
    passed; every later one waits as it would."""
    real, waits = os.waitpid, []

    def waitpid(pid, options):
        waits.append((pid, options))
        if len(waits) == 1:
            deadline = time.monotonic() + 20
            while not mark.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise exc
        return real(pid, options)
    with mock.patch.object(os, "waitpid", waitpid):
        yield waits


def in_parent(exc, real, mark):
    """real, but in this process it makes the file mark and raises exc,
    and in a forked child it hangs for a minute first: only a child
    killed ends in time."""
    def call(*args, **kwargs):
        if os.getpid() == PARENT:
            mark.touch()
            raise exc
        time.sleep(60)
        return real(*args, **kwargs)
    return call


# ---------------------------------------------------------------- ping parse

def _ping_lines(stamped, odd, odd_half, n=400):
    """A ping log of n replies: malformed and bare replies (an epoch
    missing in a stamped log) and timeouts all through it, seq wrapping
    at 65,536, and a stretch of CRLF ends or of non-ASCII hosts (`odd`)
    in the first or the second half (`odd_half`), no final LF."""
    lines = ["PING h (h) 30(58) bytes of data.\n"]
    stretch = range(n // 8, n // 4) if odd_half == 0 else range(5 * n // 8, 3 * n // 4)
    for i in range(n):
        stamp = f"[{1_700_000_000 + 0.2 * i:.6f}] " if stamped else ""
        host = "hé" if odd == "nonascii" and i in stretch else "10.45.0.1"
        line = (f"{stamp}38 bytes from {host}: icmp_seq={(65_400 + i) % 65_536} ttl=64 "
                f"time={i % 97}.{i % 3 + 1} ms")
        if i % 17 == 5:
            line = line[:line.index("time=") + 5]               # no rtt: malformed
        elif i % 23 == 7 and stamped:
            line = line.replace(stamp, "")                      # no epoch: malformed
        elif i % 29 == 3:
            line = f"{stamp}no answer yet for icmp_seq={i}"
        lines.append(line + ("\r\n" if odd == "crlf" and i in stretch else "\n"))
    lines += ["\n", "--- h ping statistics ---\n", f"{n} packets transmitted"]
    return lines


def _ping_outcome(source, chunk_bytes):
    """(columns, skipped, malformed, warnings) of the ping parse of
    source, or the text of the MalformedRecordError it raises."""
    messages = []
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(ingest, "warn", messages.append):
        try:
            got = parse_ping_log(source, META)
        except MalformedRecordError as exc:
            return str(exc)
    columns = [getattr(got.samples, name).tobytes() for name in got.samples.names()]
    return columns, got.skipped_lines, got.malformed, messages


def test_the_cut_is_the_first_line_start_at_or_after_its_offset():
    log = ingest.RawLog("log", b"ab\ncd\n\nef")       # lines start at 0, 3, 6 and 7
    with mock.patch.object(ingest, "_FIND_BYTES", 2):
        assert [log.line_start(offset) for offset in range(-1, 10)] == [
            0, 0, 3, 3, 3, 6, 6, 6, 7, 9, 9]


@pytest.mark.parametrize("chunk_bytes", [97, 1 << 20])
@pytest.mark.parametrize("odd_half", [0, 1])
@pytest.mark.parametrize("odd", ["crlf", "nonascii"])
@pytest.mark.parametrize("stamped", [True, False], ids=["stamped", "unstamped"])
def test_split_ping_parse_equals_the_whole(tmp_path, stamped, odd, odd_half, chunk_bytes):
    lines = _ping_lines(stamped, odd, odd_half)
    path = tmp_path / "ping.log"
    path.write_bytes("".join(lines).encode("utf-8"))
    with forks(False) as fork:
        want = _ping_outcome(ingest.RawLog(path), chunk_bytes)
    fork.assert_not_called()
    columns, skipped, malformed, messages = want
    assert skipped > 0 and len(messages) == len(malformed) > 20
    # Malformed replies, bare ones too in a stamped log, on both sides.
    numbers = [n for n, _ in malformed]
    assert min(numbers) < len(lines) // 2 < max(numbers)
    for source in (ingest.RawLog(path), lines):
        with forks(True) as fork:
            assert _ping_outcome(source, chunk_bytes) == want
        fork.assert_called_once()
        assert_no_child_left()


@pytest.mark.parametrize("half", ["first", "second"])
def test_split_ping_parse_names_a_byte_that_is_not_utf8_at_its_line(tmp_path, half):
    lines = _ping_lines(True, "crlf", 0)
    at = 50 if half == "first" else 350
    lines[at] = lines[at].replace("from 10", "from \udcff10")
    path = tmp_path / "ping.log"
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    want = f"{path}:{at + 1}: not UTF-8 text: byte 0xff"
    for chunk_bytes in (97, 1 << 20):
        with forks(False):
            assert _ping_outcome(ingest.RawLog(path), chunk_bytes) == want
        with forks(True) as fork:
            assert _ping_outcome(ingest.RawLog(path), chunk_bytes) == want
        fork.assert_called_once()
        assert_no_child_left()


@pytest.mark.parametrize("fail", ["raise", "exit", "kill", "no_fork"])
def test_a_failed_ping_child_is_recovered(tmp_path, mark, fail):
    path = tmp_path / "ping.log"
    path.write_bytes("".join(_ping_lines(True, "nonascii", 1)).encode("utf-8"))
    want = _ping_outcome(ingest.RawLog(path), 97)
    with forks(True) as fork:
        if fail == "no_fork":
            fork.side_effect = OSError("no fork")
            got = _ping_outcome(ingest.RawLog(path), 97)
        else:
            with mock.patch.object(ingest, "_read_replies",
                                   in_child(fail, ingest._read_replies, mark)):
                got = _ping_outcome(ingest.RawLog(path), 97)
    assert got == want
    assert mark.exists() == (fail != "no_fork")
    fork.assert_called_once()
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("in the parent"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_an_error_in_the_parents_half_reaps_the_ping_child(tmp_path, mark, exc):
    path = tmp_path / "ping.log"
    path.write_bytes("".join(_ping_lines(False, "crlf", 1)).encode("utf-8"))
    with forks(True) as fork, \
            mock.patch.object(ingest, "_read_replies",
                              in_parent(exc, ingest._read_replies, mark)), \
            pytest.raises(type(exc)):
        started = time.monotonic()
        parse_ping_log(ingest.RawLog(path), META)
    assert time.monotonic() - started < 30
    assert mark.exists()
    fork.assert_called_once()
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("in the wait"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_a_failed_wait_for_the_ping_child_kills_and_reaps_it(tmp_path, mark, exc):
    path = tmp_path / "ping.log"
    path.write_bytes("".join(_ping_lines(True, "crlf", 0)).encode("utf-8"))
    want = _ping_outcome(ingest.RawLog(path), 97)
    with forks(True) as fork, first_wait_raises(exc, mark) as waits, \
            mock.patch.object(ingest, "_read_replies",
                              hangs_in_child(ingest._read_replies, mark)):
        started = time.monotonic()
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                _ping_outcome(ingest.RawLog(path), 97)
        else:                                   # read again, whole
            assert _ping_outcome(ingest.RawLog(path), 97) == want
    assert time.monotonic() - started < 30
    assert mark.exists()
    fork.assert_called_once()
    # The wait that failed, then the one that reaps the killed child.
    pid = waits[0][0]
    assert pid > 0 and waits == [(pid, 0), (pid, 0)]
    assert_no_child_left()
    assert [p.name for p in tmp_path.iterdir()] == ["ping.log"]


# ------------------------------------------------- both raw logs of a run

FS_MAP = {"rnti": "RNTI", "dl_bler": "DL_BLER", "ul_bler": "UL_BLER", "dl_mcs": "DL_MCS",
          "snr_db": "SNR_dB", "dl_retx": "DL_HARQ_RETX", "dl_total": "DL_HARQ_TX"}
TIMED_MAP = {**FS_MAP, "t_s": "TIME"}


def _fullstats_lines(odd, odd_half, quoted, n=300):
    """A fullstats CSV of n rows, row k on line k + 2 unless a quoted cell
    holds a line break: RNTIs in hex and decimal, and all through it
    rows skipped (too short, an RNTI missing, a value outside its domain,
    a cell that is no number), blank rows and empty lines; a stretch of
    CRLF ends or of non-ASCII cells (`odd`) in the first or the second
    half (`odd_half`); and quoted cells, one holding a line break, in
    the "head" or the "tail" (`quoted`, None for none)."""
    lines = ["TIME,RNTI,DL_BLER,UL_BLER,DL_MCS,SNR_dB,DL_HARQ_RETX,DL_HARQ_TX,NOTE\n"]
    stretch = range(n // 8, n // 4) if odd_half == 0 else range(5 * n // 8, 3 * n // 4)
    at = {"head": n // 5, "tail": 4 * n // 5}.get(quoted)
    for k in range(n):
        row = [f"{0.5 * k}", "0x4601" if k % 3 else "17921", repr(0.01 * (k % 50)), "0.05",
               str(k % 30), repr(29.0 + k / 7), str(k % 5), "50", "ok"]
        if k % 31 == 4:
            row = row[:3]
        elif k % 37 == 9:
            row = [""] * len(row)
        elif k % 41 == 11:
            row[2] = "1.5"                                      # dl_bler outside [0, 1]
        elif k % 43 == 13:
            row[4] = "nan"
        elif k % 47 == 15:
            row = []
        elif k % 53 == 17:
            row[1] = ""
        if odd == "nonascii" and k in stretch and len(row) == 9:
            row[8] = "hé"
        if k == at:
            row[7], row[8] = '"50"', '"a, b"'
        elif at is not None and k == at + 3:
            row[8] = '"two\nlines"'
        lines.append(",".join(row) + ("\r\n" if odd == "crlf" and k in stretch else "\n"))
    return lines


def _columns(trace):
    return [getattr(trace, name).tobytes() for name in trace.names()]


def _joint_outcome(parse, chunk_bytes=97):
    """(ping columns, skipped lines, malformed lines, fullstats columns,
    skipped rows, warnings) of the two parses parse gives, or the type
    and text of the error it raises and the warnings before it."""
    messages = []
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(ingest, "warn", messages.append):
        try:
            ping, stats = parse()
        except ToolkitError as exc:
            return type(exc).__name__, str(exc), messages
    return (_columns(ping.samples), ping.skipped_lines, ping.malformed,
            _columns(stats.snapshots), stats.skipped_rows, messages)


def _write_logs(tmp_path, ping_lines, fullstats_lines):
    ping_path, fs_path = tmp_path / "ping.log", tmp_path / "fullstats.csv"
    ping_path.write_bytes("".join(ping_lines).encode("utf-8", "surrogateescape"))
    fs_path.write_bytes("".join(fullstats_lines).encode("utf-8", "surrogateescape"))
    return ping_path, fs_path


def _serial(ping_path, fs_path, cmap):
    """The ping parse, then the fullstats parse, each of its whole log."""
    def parse():
        ping = parse_ping_log(ingest.RawLog(ping_path), META)
        return ping, parse_fullstats(ingest.RawLog(fs_path), cmap, META, stats_period_s=0.5)
    with forks(False) as fork:
        got = _joint_outcome(parse)
    fork.assert_not_called()
    return got


def _joint(ping_path, fs_path, cmap):
    return _joint_outcome(lambda: ingest.parse_raw_logs(
        ingest.RawLog(ping_path), ingest.RawLog(fs_path), cmap, META, stats_period_s=0.5))


@contextmanager
def listed_reads(tmp_path):
    """The reads of the ping and fullstats parses in the block, each
    (process, log file name, byte range) in the order its process made
    them, the process "here" or "child": yields their list, filled after
    the block from a file in tmp_path that a forked child appends to
    too."""
    listing, reads = tmp_path / "reads.jsonl", []
    with ExitStack() as stack:
        for kind in (ingest._PingParse, ingest._FullstatsParse):
            def read(self, *span, real=kind.read):
                with open(listing, "a") as fh:
                    fh.write(json.dumps(["here" if os.getpid() == PARENT else "child",
                                         Path(self.log.name).name, span]) + "\n")
                return real(self, *span)
            stack.enter_context(mock.patch.object(kind, "read", read))
        yield reads
    reads += [(who, name, tuple(span)) for who, name, span in map(
        json.loads, listing.read_text().splitlines())]


def assert_read_once(reads, ping_path, fs_path):
    """That reads are those of the one split: the ping log's head and
    then the whole fullstats log here, the ping log's tail in the child,
    the ping log cut at the first line start at or after half the bytes
    by which it is larger than the fullstats log."""
    ping = ping_path.read_bytes()
    at = (len(ping) - fs_path.stat().st_size) // 2
    cut = next(i for i in range(at, len(ping)) if ping[i - 1:i] == b"\n")
    assert 0 < at <= cut
    assert [r for r in reads if r[0] == "here"] == [
        ("here", "ping.log", (0, cut)), ("here", "fullstats.csv", ())]
    assert [r for r in reads if r[0] != "here"] == [("child", "ping.log", (cut,))]


@pytest.mark.parametrize("cmap", [FS_MAP, TIMED_MAP], ids=["row_times", "t_s_column"])
@pytest.mark.parametrize("quoted", ["tail", "head", None])
@pytest.mark.parametrize("odd_half", [0, 1])
@pytest.mark.parametrize("odd", ["crlf", "nonascii"])
def test_joint_split_parse_equals_the_serial_parse(tmp_path, odd, odd_half, quoted, cmap):
    paths = _write_logs(tmp_path, _ping_lines(True, odd, 1 - odd_half),
                        _fullstats_lines(odd, odd_half, quoted))
    want = _serial(*paths, cmap)
    *_, skipped_rows, messages = want
    # Rows skipped all through the fullstats log.
    rows = [int(m.split()[2]) for m in messages if m.startswith("fullstats row")]
    assert skipped_rows == len(rows) > 20 and min(rows) < 150 < max(rows)
    with forks(True) as fork, listed_reads(tmp_path) as reads:
        assert _joint(*paths, cmap) == want
    fork.assert_called_once()
    assert_no_child_left()
    assert_read_once(reads, *paths)


def _quoted_across_the_middle(lines):
    """lines, with the note cell of one row a quoted cell holding the
    first LF at or after the middle byte of the log."""
    cell = '"' + "q" * 200 + "\n" + "q" * 200 + '"\n'
    for i, line in enumerate(lines):
        if line.endswith(",ok\n"):
            got = lines[:i] + [line.removesuffix("ok\n") + cell] + lines[i + 1:]
            text = "".join(got).encode()
            inside = len("".join(got[:i]).encode()) + got[i].index("\n")
            if text.find(b"\n", len(text) // 2) == inside:
                return got
    raise AssertionError("no row holds the middle byte")


def test_a_quoted_field_across_the_fullstats_middle_is_read_in_the_one_split(tmp_path):
    fullstats = _quoted_across_the_middle(_fullstats_lines("nonascii", 0, None))
    paths = _write_logs(tmp_path, _ping_lines(True, "crlf", 1), fullstats)
    want = _serial(*paths, FS_MAP)
    assert want[-2] > 20                        # rows skipped
    with forks(True) as fork, listed_reads(tmp_path) as reads:
        assert _joint(*paths, FS_MAP) == want
    fork.assert_called_once()
    assert_no_child_left()
    assert_read_once(reads, *paths)             # and no log read again


def test_a_run_without_a_large_ping_log_is_read_without_a_fork(tmp_path):
    # The ping log under the minimum, the fullstats log at it; then the
    # fullstats log with no ping log.
    paths = _write_logs(tmp_path, _ping_lines(True, "crlf", 1, n=40),
                        _fullstats_lines("nonascii", 0, "tail"))
    ping_bytes, fs_bytes = (path.stat().st_size for path in paths)
    assert ping_bytes < fs_bytes
    want = _serial(*paths, FS_MAP)

    def fullstats_alone():
        return parse_ping_log(ingest.RawLog(paths[0]), META), ingest.parse_raw_logs(
            None, ingest.RawLog(paths[1]), FS_MAP, META, stats_period_s=0.5)[1]
    with forks(True) as fork, mock.patch.object(ingest, "_SPLIT_BYTES", fs_bytes), \
            listed_reads(tmp_path) as reads:
        assert _joint(*paths, FS_MAP) == want
        assert _joint_outcome(fullstats_alone) == want
    fork.assert_not_called()
    assert reads == [("here", "ping.log", ()), ("here", "fullstats.csv", ())] * 2


@pytest.mark.parametrize("fault", ["nul", "not_utf8", "overlong", "ping_tail_and_head",
                                   "no_usable_row", "no_reply"])
def test_joint_split_parse_meets_a_fault_as_the_serial_parse(tmp_path, fault):
    ping, fullstats = _ping_lines(True, "crlf", 0), _fullstats_lines("nonascii", 0, None)
    row = 251                                   # on line 253
    if fault == "nul":
        fullstats[row + 1] = fullstats[row + 1].replace(",0.05,", ",0.05\0,")
    elif fault == "not_utf8":
        fullstats[row + 1] = fullstats[row + 1].replace("ok", "o\udcffk")
    elif fault == "overlong":
        fullstats[row + 1] = fullstats[row + 1].replace("ok", "k" * 300)
    elif fault == "ping_tail_and_head":
        ping[350] = ping[350].replace("from 10", "from \udcff10")
        fullstats[21] = fullstats[21].replace("ok", "o\udcffk")
    elif fault == "no_usable_row":
        fullstats[1:] = [line.replace(",0.05,", ",2.0,") for line in fullstats[1:]]
    else:
        ping = [line for line in ping if "bytes from" not in line]
    paths = _write_logs(tmp_path, ping, fullstats)
    limit = csv.field_size_limit(200)
    try:
        want = _serial(*paths, FS_MAP)
        with forks(True) as fork:
            assert _joint(*paths, FS_MAP) == want
    finally:
        csv.field_size_limit(limit)
    fork.assert_called_once()
    assert_no_child_left()
    if fault == "nul":                          # a cell that is no number: the row is skipped
        assert f"fullstats row {row + 1} skipped: could not convert string to float: " \
               "'0.05\\x00'" in want[-1]
        return
    kind, text, messages = want
    if fault in ("not_utf8", "overlong"):
        assert text.startswith(f"{paths[1]}:{row + 2}: ")
    elif fault == "ping_tail_and_head":
        assert text == f"{paths[0]}:351: not UTF-8 text: byte 0xff" and messages == []
    elif fault == "no_usable_row":
        assert kind == "EmptyTraceError" and len(messages) > 300
    else:
        assert kind == "EmptyTraceError" and str(paths[0]) in text


@pytest.mark.parametrize("fail", ["raise", "exit", "kill", "no_fork"])
def test_a_failed_joint_child_is_recovered(tmp_path, mark, fail):
    paths = _write_logs(tmp_path, _ping_lines(True, "nonascii", 1),
                        _fullstats_lines("crlf", 1, "tail"))
    want = _serial(*paths, FS_MAP)
    with forks(True) as fork:
        if fail == "no_fork":
            fork.side_effect = OSError("no fork")
            got = _joint(*paths, FS_MAP)
        else:
            # The child reads the ping log's tail.
            read = ingest._PingParse.read
            with mock.patch.object(ingest._PingParse, "read", in_child(fail, read, mark)):
                got = _joint(*paths, FS_MAP)
    assert got == want
    assert mark.exists() == (fail != "no_fork")
    fork.assert_called_once()
    assert_no_child_left()


def _ingest(tmp_path, out):
    """The files `taildiag ingest` writes from the logs in tmp_path into
    tmp_path / out, by name, and its stderr."""
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({"column_map": FS_MAP, "runs": [{
        "run_id": "r1", "ue_type": "modem", "scenario": "baseline", "distance_m": 6.0,
        "packet_size_b": 30, "ping_interval_s": 0.2, "ping_log": "ping.log",
        "fullstats": "fullstats.csv"}]}))
    with redirect_stderr(io.StringIO()) as err:
        assert main(["ingest", "--config", str(config), "--output-dir", str(tmp_path / out)]) == 0
    return {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}, err.getvalue()


class _FullDisk(io.FileIO):
    """/dev/full, which refuses every write for want of space."""

    def __init__(self, *args, **kwargs):
        super().__init__("/dev/full", "w+")


@pytest.mark.parametrize("temp_file", ["made", "not_made", "not_written"])
def test_ingest_of_a_large_run_forks_three_times_or_writes_the_same_bytes_without(
        tmp_path, capsys, temp_file):
    if temp_file == "not_written" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    _write_logs(tmp_path, _ping_lines(True, "crlf", 1), _fullstats_lines("nonascii", 0, "tail"))
    with mock.patch.object(canon, "_BLOCK_ROWS", 16):
        with forks(False) as fork:
            want = _ingest(tmp_path, "whole")
        fork.assert_not_called()
        with forks(True) as fork, ExitStack() as stack:
            if temp_file == "not_made":
                stack.enter_context(mock.patch.object(
                    tempfile, "TemporaryFile",
                    side_effect=OSError(errno.ENOSPC, "No space left on device")))
            elif temp_file == "not_written":
                stack.enter_context(mock.patch.object(tempfile, "TemporaryFile", _FullDisk))
            assert _ingest(tmp_path, "split") == want
    # One fork reads the ping log's tail, then one writes each trace. Without a
    # temp file no child is forked; with one the child cannot write, it
    # fails. Either way each split fails, and its work is done here whole.
    assert fork.call_count == (0 if temp_file == "not_made" else 3)
    assert_no_child_left()
    assert len(want[0]) == 5 and want[1].count("WARNING") > 40


# --------------------------------------------------------------- trace write

def _traces(rows=300):
    """A latency and a scheduler trace of `rows` rows, with cells the
    digit kernel leaves to repr, whole and absent values, and a -0.0."""
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.uniform(0.01, 0.3, rows))
    rtt = rng.lognormal(3.0, 1.0, rows)
    rtt[::37] = 2.0 ** rng.integers(-3, 8, len(rtt[::37]))
    rtt[5::41] = 1e16 + rng.integers(0, 9, len(rtt[5::41])) * 2.0
    latency = LatencyTrace(t, rng.integers(0, 65_536, rows), rtt)
    blanks = rng.random(rows) < 0.2
    sched = SchedulerTrace(
        t_s=t, rnti=np.where(np.arange(rows) % 50 == 3, -0.0, 17.0),
        dl_bler=rng.random(rows), ul_bler=np.where(blanks, np.nan, rng.random(rows)),
        dl_mcs=rng.integers(0, 29, rows), ul_mcs=np.where(blanks, np.nan, 9.0),
        snr_db=rng.normal(20.0, 5.0, rows), rsrp_dbm=np.where(blanks, np.nan, -80.5),
        dl_retx=rng.integers(0, 3, rows), dl_total=np.full(rows, 50.0))
    return latency, sched


def _written(path, trace):
    """The bytes of the CSV and column file canon writes for trace."""
    canon._write_trace(path, trace)
    return path.read_bytes(), Path(f"{path}.cols").read_bytes()


@pytest.mark.parametrize("block_rows", [1, 7, 64, 149, 8192])
@pytest.mark.parametrize("kind", [0, 1], ids=["latency", "scheduler"])
def test_split_trace_write_gives_the_same_bytes(tmp_path, block_rows, kind):
    trace = _traces()[kind]
    with mock.patch.object(canon, "_BLOCK_ROWS", block_rows):
        with forks(False) as fork:
            want = _written(tmp_path / "whole.csv", trace)
        fork.assert_not_called()
        with forks(True) as fork:
            assert _written(tmp_path / "split.csv", trace) == want
    # Split at its middle row, whatever the blocks.
    fork.assert_called_once()
    assert_no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "split.csv", "split.csv.cols", "whole.csv", "whole.csv.cols"]


def failing_join(streams):
    """canon._pieces, but each stream it is given (listed in streams)
    yields its first piece and then fails to read."""
    real = canon._pieces

    def pieces(fh):
        streams.append(fh)
        yield from islice(real(fh), 1)
        raise OSError(errno.EIO, "Input/output error")
    return pieces


@pytest.mark.parametrize("fail", ["raise", "exit", "kill", "no_fork", "join"])
def test_a_failed_writer_child_is_recovered(tmp_path, mark, fail):
    # A failed join has sent the head and a piece of the child's bytes
    # into the CSV and its digest already.
    trace = _traces()[1]
    streams = []
    with mock.patch.object(canon, "_BLOCK_ROWS", 16):
        want = _written(tmp_path / "whole.csv", trace)
        with forks(True) as fork, ExitStack() as stack:
            if fail == "no_fork":
                fork.side_effect = OSError("no fork")
            elif fail == "join":
                stack.enter_context(mock.patch.object(canon, "_PIECE", 64))
                stack.enter_context(mock.patch.object(canon, "_pieces", failing_join(streams)))
            else:
                stack.enter_context(mock.patch.object(canon, "_csv_blocks",
                                                      in_child(fail, canon._csv_blocks, mark)))
            got = _written(tmp_path / "split.csv", trace)
    assert got == want
    assert mark.exists() == (fail in ("raise", "exit", "kill"))
    assert len(streams) == (fail == "join")
    fork.assert_called_once()
    assert_no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "split.csv", "split.csv.cols", "whole.csv", "whole.csv.cols"]


@pytest.mark.parametrize("exc", [ValueError("in the parent"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_an_error_in_the_parents_half_reaps_the_writer_child(tmp_path, mark, exc):
    trace = _traces()[0]
    with mock.patch.object(canon, "_BLOCK_ROWS", 16), forks(True) as fork, \
            mock.patch.object(canon, "_csv_blocks", in_parent(exc, canon._csv_blocks, mark)), \
            pytest.raises(type(exc)):
        started = time.monotonic()
        canon._write_trace(tmp_path / "lat.csv", trace)
    assert time.monotonic() - started < 30
    assert mark.exists()
    fork.assert_called_once()
    assert_no_child_left()
    assert list(tmp_path.iterdir()) == []       # no CSV, no temp file


@pytest.mark.parametrize("exc", [ValueError("in the wait"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_a_failed_wait_for_the_writer_child_kills_and_reaps_it(tmp_path, mark, exc):
    trace = _traces()[0]
    interrupt = isinstance(exc, KeyboardInterrupt)
    with mock.patch.object(canon, "_BLOCK_ROWS", 16):
        want = _written(tmp_path / "whole.csv", trace)
        with forks(True) as fork, first_wait_raises(exc, mark) as waits, \
                mock.patch.object(canon, "_csv_blocks", hangs_in_child(canon._csv_blocks, mark)):
            started = time.monotonic()
            if interrupt:
                with pytest.raises(KeyboardInterrupt):
                    canon._write_trace(tmp_path / "split.csv", trace)
            else:                               # written again, whole
                assert _written(tmp_path / "split.csv", trace) == want
    assert time.monotonic() - started < 30
    assert mark.exists()
    fork.assert_called_once()
    pid = waits[0][0]
    assert pid > 0 and waits == [(pid, 0), (pid, 0)]
    assert_no_child_left()
    # No temp file, and no CSV where the write was interrupted.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        *([] if interrupt else ["split.csv", "split.csv.cols"]), "whole.csv", "whole.csv.cols"]


def test_rendered_copies_no_column_that_renders_as_it_is():
    latency, sched = _traces()
    assert latency.rendered("t_s") is latency.t_s
    assert latency.rendered("seq") is latency.seq
    assert sched.rendered("dl_total") is sched.dl_total
    for trace in (latency, sched):
        for name in trace.names():
            # What rendered gave when it copied every column.
            col = getattr(trace, name)
            absent = np.isnan(col)
            want = col
            if name in trace.INTEGRAL:
                want = np.where(absent, 0.0, col).astype(np.int64).astype(float)
            want = np.where(absent, np.nan, want)
            assert trace.rendered(name).tobytes() == want.tobytes(), name
    # A -0.0 renders as 0.0, and an absent value as the one NaN.
    assert sched.rendered("rnti") is not sched.rnti
    assert sched.rendered("ul_bler") is not sched.ul_bler


# ------------------------------------------------------------ what never forks

@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    d = tmp_path_factory.mktemp("campaign")
    assert main(["synth", "coupled", "--output-dir", str(d)]) == 0
    return d


def test_analysis_commands_never_fork(campaign, tmp_path, capsys):
    common = ["--config", str(campaign / "campaign_config.json"),
              "--output-dir", str(tmp_path)]
    with forks(True) as fork:
        fork.side_effect = OSError("no fork")
        for command in ("summarize", "windows", "flags", "phases"):
            assert main([command, *common, "coupled"]) == 0
    fork.assert_not_called()
    assert len(list(tmp_path.iterdir())) == 4


def test_the_paperlike_demo_never_forks(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_paperlike.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--output-dir", str(tmp_path)])
    with forks(False) as fork:
        fork.side_effect = OSError("no fork")
        runpy.run_path(str(script), run_name="__main__")
    fork.assert_not_called()
    assert len(list(tmp_path.iterdir())) == 40
