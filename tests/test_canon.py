"""The column file beside each canonical latency / scheduler CSV, the
text reader it stands in for, and the atomic writer every file goes
through."""

import hashlib
import io
import math
import mmap
import os
import re
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taildiag import canon
from taildiag.errors import InvalidSpecError, MalformedRecordError, MissingColumnError
from taildiag.model import LatencyTrace, SchedulerTrace

LATENCY_HEADER = ",".join(LatencyTrace.names())
IO = {LatencyTrace: (canon.write_latency_csv, canon.read_latency_csv),
      SchedulerTrace: (canon.write_scheduler_csv, canon.read_scheduler_csv)}


def _columns(path):
    return path.with_name(path.name + ".cols")


def _outcome(read, path):
    """What read(path) gives: the bytes of every column, or the text of
    the MalformedRecordError it raises."""
    try:
        trace = read(path)
    except MalformedRecordError as exc:
        return str(exc)
    return tuple(getattr(trace, name).tobytes() for name in trace.names())


def _text_outcome(read, path, tmp_path):
    """_outcome of a copy of CSV path with no column file beside it."""
    copy = tmp_path / "text" / path.name
    copy.parent.mkdir(exist_ok=True)
    shutil.copyfile(path, copy)
    got = _outcome(read, copy)
    return got.replace(str(copy), str(path)) if isinstance(got, str) else got


def _digest(data):
    """The digest that binds a column file to the CSV bytes data: the
    SHA-256 of the format tag and the bytes."""
    return hashlib.sha256(canon._COLUMNS_TAG + data).digest()


def _bind(path, table, allow_pickle=False):
    """Write, beside CSV path, a column file bound to its current bytes
    that holds `table`."""
    buf = io.BytesIO()
    buf.write(_digest(path.read_bytes()))
    np.lib.format.write_array(buf, table, allow_pickle=allow_pickle)
    _columns(path).write_bytes(buf.getvalue())


# Seven rows of each kind, to write a block or a few rows at a time: tied
# times, fixed and exponent forms, a 2**40 integer, absent cells, -0.0.
LATENCY_7 = LatencyTrace([0.0, 0.2, 0.2, 0.6, 1e-5, 123456.789, 2.0 ** 40],
                         [0, 1, 3, 2, 4, 5, 2 ** 40], [9.0, 1e-3, 0.1, 250.5, 1e5, 7.0, 3.0])
SCHED_7 = SchedulerTrace([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [17] * 7,
                         [0.05, 0.5, -0.0, 1.0, 0.3, 0.0, 0.125],
                         [None, 0.1, 0.2, None, 1.0, 0.0, 0.5],
                         [9, None, 28, 0, 1, 2, 3], [None, 3, 4, 5, 6, 7, 8],
                         [-0.0, 30.5, None, -7.25, 1e-4, 200.0, 3.0],
                         [None, -80.0, -90.5, -100.0, None, -85.0, -84.0],
                         [2, None, 0, 1, 2, 3, 4], [50, None, 60, 70, 80, 90, 2 ** 40])


def _head(trace, rows):
    return type(trace)(*(getattr(trace, name)[:rows] for name in trace.names()))


def _whole_table_files(trace):
    """The CSV and column file bytes (None for no column file) of trace,
    rendered whole: csv_bytes, then the digest and write_array of the
    rows × fields table stacked from the rendered columns."""
    names = trace.names()
    columns = np.array([trace.rendered(name) for name in names])
    data = canon.csv_bytes(names, columns, trace.INTEGRAL)
    if not len(trace):
        return data, None
    buf = io.BytesIO()
    buf.write(_digest(data))
    np.lib.format.write_array(buf, columns.T, allow_pickle=False)
    return data, buf.getvalue()


# ------------------------------------------------ column file == text read

# Values a writer may be handed that the reader refuses, or that take a
# special form in the text: NaN of either sign, infinities, -0.0,
# fractions in integral columns, integers too large for a float64.
ODD = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0,
                       -1.0, 0.5, 31.0, 2.0 ** 60, 1e300, 5e-324])
TIMES = st.sampled_from([-0.0, 0.0, 0.2, 0.2, 5.0]) | st.floats(0.0, 1e6)
OPT_FLOAT = st.none() | st.sampled_from([-0.0, 1.5]) | st.floats(-200.0, 200.0)

LATENCY_ROWS = st.tuples(TIMES, st.integers(0, 2 ** 31) | st.just(-0.0),
                         st.floats(1e-3, 1e6) | st.just(9.0))
SCHED_ROWS = st.tuples(
    TIMES, st.sampled_from([0, 17, 0x4601]),     # three RNTIs
    st.sampled_from([-0.0, 1.0]) | st.floats(0.0, 1.0),
    st.none() | st.floats(0.0, 1.0), st.none() | st.integers(0, 28),
    st.none() | st.integers(0, 28), OPT_FLOAT, OPT_FLOAT,
    st.none() | st.integers(0, 1000), st.none() | st.integers(1000, 2 ** 40))


@st.composite
def traces(draw):
    """A latency or scheduler trace of 1-20 rows (one row, tied times,
    -0.0 and absent cells included), at times with one odd cell."""
    kind, rows = draw(st.sampled_from([(LatencyTrace, LATENCY_ROWS),
                                       (SchedulerTrace, SCHED_ROWS)]))
    columns = [list(c) for c in zip(*draw(st.lists(rows, min_size=1, max_size=20)))]
    odd = draw(st.none() | st.tuples(st.integers(0, 19), st.integers(0, 9), ODD))
    if odd is not None:
        row, field, value = odd
        column = columns[field % len(columns)]
        column[row % len(column)] = value
    return kind(*columns)


def _unwritable(trace):
    """Whether an integral column of trace holds a value (not NaN) that
    no int64 holds: an infinity, or 2**63 or more in magnitude."""
    return any(not math.isnan(v) and not abs(v) < 2.0 ** 63
               for name in trace.INTEGRAL for v in getattr(trace, name).tolist())


@settings(max_examples=150, deadline=None)
@given(traces())
@example(SchedulerTrace([0.0], [17], [0.5], [-math.nan], [math.nan], [9], [-0.0],
                        [None], [0], [0]))
@example(LatencyTrace([-0.0, -0.0], [-0.0, 1], [9.0, 9.0]))
@example(LatencyTrace([0.0, 0.2], [0, 1], [9.0, math.nan]))
@example(LatencyTrace([0.0, 0.2], [0, math.inf], [9.0, 9.0]))
@example(SchedulerTrace([0.0], [1e300], [0.5], [None], [-math.inf], [9], [None],
                        [None], [0], [0]))
def test_column_file_read_equals_text_read(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("cols") / "trace.csv"
    write, read = IO[type(trace)]
    if _unwritable(trace):
        # No CSV cell holds such an integer: the writer refuses the
        # trace and writes nothing.
        with pytest.raises(InvalidSpecError, match="int64 cannot hold it"):
            write(path, trace)
        assert not path.exists() and not _columns(path).exists()
        return
    write(path, trace)
    with_columns = _outcome(read, path)
    written = _columns(path).exists()
    _columns(path).unlink(missing_ok=True)
    assert _outcome(read, path) == with_columns
    # written exactly for a table the reader accepts
    assert written == isinstance(with_columns, tuple)


def _latency(tmp_path):
    path = tmp_path / "lat.csv"
    canon.write_latency_csv(path, LatencyTrace([0.0, 0.2, 0.4], [0, 1, 2], [9.0, 9.5, 8.25]))
    return path


def test_bound_column_file_spares_the_text_parse(tmp_path, monkeypatch):
    path = _latency(tmp_path)
    expected = _text_outcome(canon.read_latency_csv, path, tmp_path)
    monkeypatch.setattr(canon, "_parse_text", None)     # any text parse fails
    assert _outcome(canon.read_latency_csv, path) == expected


UNPICKLED = []


def _unpickled():
    UNPICKLED.append("unpickled")


class _Trap:
    """An object whose unpickling is recorded in UNPICKLED."""

    def __reduce__(self):
        return _unpickled, ()


def _stale(path):
    path.write_bytes(path.read_bytes().replace(b"9.5", b"9.6"))     # one byte


def _truncate(size):
    return lambda path: _columns(path).write_bytes(_columns(path).read_bytes()[:size])


def _rebind(make):
    return lambda path: _bind(path, make(canon.read_latency_csv(path)))


def _as_table(trace):
    return np.column_stack([getattr(trace, name) for name in trace.names()])


DAMAGE = {
    "missing": lambda path: _columns(path).unlink(),
    "stale": _stale,
    "truncated_data": _truncate(-5),
    "truncated_header": _truncate(40),
    "digest_only": _truncate(32),
    "empty": _truncate(0),
    "float32": _rebind(lambda t: _as_table(t).astype("<f4")),
    "big_endian": _rebind(lambda t: _as_table(t).astype(">f8")),
    "int64": _rebind(lambda t: _as_table(t).astype("<i8")),
    "narrow": _rebind(lambda t: _as_table(t)[:, :2]),
    "one_dimensional": _rebind(lambda t: _as_table(t).ravel()),
    "no_rows": _rebind(lambda t: _as_table(t)[:0]),
    "object": lambda path: _bind(path, np.array([[_Trap()] * 3] * 3, dtype=object),
                                 allow_pickle=True),
    "other_digest": lambda path: _columns(path).write_bytes(
        bytes([_columns(path).read_bytes()[0] ^ 1]) + _columns(path).read_bytes()[1:]),
    # Bound and well-formed, but a value breaks a rule of LatencyTrace:
    # the text decides, and alone names the line of a fault.
    "faulty_value": _rebind(lambda t: _as_table(t) * [1.0, 1.0, -1.0]),
    "extra_faulty_row": _rebind(lambda t: np.vstack([_as_table(t), [[0.6, 3.0, 0.0]]])),
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_unusable_column_file_falls_back_to_the_text(tmp_path, damage):
    path = _latency(tmp_path)
    damage(path)
    assert _outcome(canon.read_latency_csv, path) == \
        _text_outcome(canon.read_latency_csv, path, tmp_path)
    assert UNPICKLED == []


def test_stale_column_file_reads_the_edited_text(tmp_path):
    path = _latency(tmp_path)
    _stale(path)
    assert canon.read_latency_csv(path).rtt_ms.tolist() == [9.0, 9.6, 8.25]


def test_column_file_binds_the_format_tag(tmp_path, monkeypatch):
    path = _latency(tmp_path)
    doubled = _as_table(canon.read_latency_csv(path)) * 2     # not what the text says
    monkeypatch.setattr(canon, "_COLUMNS_TAG", b"an earlier reader\n")
    _bind(path, doubled)
    monkeypatch.undo()
    assert canon.read_latency_csv(path).rtt_ms.tolist() == [9.0, 9.5, 8.25]
    _bind(path, doubled)                                         # under this tag
    assert canon.read_latency_csv(path).rtt_ms.tolist() == [18.0, 19.0, 16.5]


def test_fault_read_from_the_column_file_names_path_and_line(tmp_path):
    path = tmp_path / "lat.csv"
    path.write_text(LATENCY_HEADER + "\n0.0,0,9.0\n\n0.2,1,0.0\n")
    _bind(path, np.array([[0.0, 0.0, 9.0], [0.2, 1.0, 0.0]]))
    with pytest.raises(MalformedRecordError) as exc:
        canon.read_latency_csv(path)
    assert str(exc.value) == f"{path}:4: rtt_ms not finite and > 0"


def test_rewrite_the_reader_refuses_drops_the_column_file(tmp_path, monkeypatch):
    path = _latency(tmp_path)
    assert _columns(path).exists()
    canon.write_latency_csv(path, LatencyTrace([0.0], [0], [0.0]))
    assert not _columns(path).exists()
    with pytest.raises(MalformedRecordError, match=":2: rtt_ms not finite and > 0"):
        canon.read_latency_csv(path)
    refused = LATENCY_7.replace(rtt_ms=np.r_[LATENCY_7.rtt_ms[:-1], 0.0])
    for block in (1, 3):            # streamed in blocks of these many rows
        monkeypatch.setattr(canon, "_BLOCK_ROWS", block)
        canon.write_latency_csv(path, LATENCY_7)
        assert _columns(path).exists()
        canon.write_latency_csv(path, refused)
        assert path.read_bytes() == _whole_table_files(refused)[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lat.csv"]


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_crlf_copy_reads_as_the_lf_original(tmp_path, newline):
    sched = SchedulerTrace([0.0, 1.0], [17, 17], [0.05, 0.5], [None, 0.1], [9, None],
                           [None, 3], [-0.0, 30.5], [None, -80.0], [2, None], [50, None])
    lat = LatencyTrace([0.0, 0.2, 0.2], [0, 2, 1], [9.0, 1e-3, 250.5])
    for trace in (lat, sched):
        write, read = IO[type(trace)]
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        write(lf, trace)
        original = _outcome(read, lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", newline))
        assert _outcome(read, crlf) == original                 # no column file
        shutil.copyfile(_columns(lf), _columns(crlf))
        assert _outcome(read, crlf) == original                 # one bound to the LF bytes
        _bind(crlf, _as_table(read(lf)))
        assert _outcome(read, crlf) == original                 # one bound to these bytes
    bad = tmp_path / "bad.csv"
    bad.write_bytes(newline.join([LATENCY_HEADER.encode(), b"0.0,0,9.0", b"",
                                  b"0.4,2", b""]))
    with pytest.raises(MalformedRecordError) as exc:
        canon.read_latency_csv(bad)
    assert str(exc.value) == f"{bad}:4: expected 3 fields, got 2"


# ------------------------------------------------------- the mapped column file

def test_bound_c_order_table_reads_its_own_values(tmp_path, monkeypatch):
    # The writer stores fields × rows (Fortran order); a table stored row
    # by row must read as the same columns.
    path = _latency(tmp_path)
    table = np.ascontiguousarray(_as_table(canon.read_latency_csv(path)) * [1.0, 1.0, 2.0])
    _bind(path, table)
    monkeypatch.setattr(canon, "_parse_text", None)
    trace = canon.read_latency_csv(path)
    assert [getattr(trace, name).tolist() for name in trace.names()] == table.T.tolist()


@pytest.mark.parametrize("row", [0, -1], ids=["first_block", "last_block"])
def test_fault_in_one_block_of_a_long_column_file_reads_the_text(tmp_path, row):
    rows = canon._CHECK_ROWS + 10
    rtt = np.full(rows, 9.0)
    rtt[row] = 0.0
    path = tmp_path / "lat.csv"
    trace = LatencyTrace(np.arange(rows) * 0.2, np.arange(rows), rtt)
    canon.write_latency_csv(path, trace)
    _bind(path, _as_table(trace))
    expected = f"{path}:{rows + 1 if row else 2}: rtt_ms not finite and > 0"
    assert _outcome(canon.read_latency_csv, path) == expected
    assert _text_outcome(canon.read_latency_csv, path, tmp_path) == expected


def _mapped(column):
    """Whether numpy column is a view of a mapped file."""
    while isinstance(column, np.ndarray):
        column = column.base
    return isinstance(column, mmap.mmap)


def test_mapped_trace_outlives_a_rewrite_of_its_files(tmp_path):
    path = _latency(tmp_path)
    trace = canon.read_latency_csv(path)
    assert all(_mapped(getattr(trace, name)) for name in trace.names())
    before = _outcome(canon.read_latency_csv, path)
    canon.write_latency_csv(path, LatencyTrace([1.0, 2.0], [5, 6], [3.0, 4.0]))
    assert tuple(getattr(trace, name).tobytes() for name in trace.names()) == before
    assert canon.read_latency_csv(path).rtt_ms.tolist() == [3.0, 4.0]
    with pytest.raises(ValueError, match="read-only"):
        trace.rtt_ms[0] = 1.0


def test_failed_mapping_reads_the_text(tmp_path, monkeypatch):
    path = _latency(tmp_path)
    expected = _outcome(canon.read_latency_csv, path)

    def refuse(*args, **kwargs):
        raise OSError("too many open files")

    monkeypatch.setattr(canon.mmap, "mmap", refuse)
    parsed, parse = [], canon._parse_text
    monkeypatch.setattr(canon, "_parse_text", lambda *args: parsed.append(1) or parse(*args))
    assert _outcome(canon.read_latency_csv, path) == expected
    assert parsed == [1]


def test_empty_csv_beside_a_column_file_names_the_csv(tmp_path):
    path = _latency(tmp_path)
    path.write_bytes(b"")
    with pytest.raises(MissingColumnError, match=f"^{re.escape(str(path))}: expected header"):
        canon.read_latency_csv(path)


def test_first_line_longer_than_a_read_piece(tmp_path, monkeypatch):
    path = _latency(tmp_path)
    expected = _outcome(canon.read_latency_csv, path)
    head, body = path.read_bytes().split(b"\n", 1)
    # Blanks around the header are stripped, however many there are.
    path.write_bytes(head + b" " * canon._PIECE + b"\n" + body)
    _bind(path, _as_table(canon.read_latency_csv(path)))
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_parse_text", None)
        assert _outcome(canon.read_latency_csv, path) == expected
    # A line that is not the header is named whole, though a character
    # of it straddles the end of the first piece.
    line = "x" + "é" * canon._PIECE
    path.write_bytes(line.encode() + b"\n" + body)
    with pytest.raises(MissingColumnError) as exc:
        canon.read_latency_csv(path)
    assert str(exc.value) == f"{path}: expected header {LATENCY_HEADER!r}, got {line!r}"


# ------------------------------------------------------------- streamed writes

@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 7])
@pytest.mark.parametrize("trace", [LATENCY_7, SCHED_7], ids=["latency", "scheduler"])
def test_streamed_files_equal_the_whole_table_ones(tmp_path, monkeypatch, trace, rows, block):
    trace = _head(trace, rows)
    data, cols = _whole_table_files(trace)
    monkeypatch.setattr(canon, "_BLOCK_ROWS", block)
    path = tmp_path / "trace.csv"
    IO[type(trace)][0](path, trace)
    assert path.read_bytes() == data
    assert (_columns(path).read_bytes() if _columns(path).exists() else None) == cols
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["trace.csv"] + ["trace.csv.cols"] * (cols is not None)


@pytest.mark.parametrize("block", [1, 3])
def test_render_failing_after_its_first_block_leaves_the_old_files(tmp_path, monkeypatch,
                                                                   block):
    path = _latency(tmp_path)
    before = path.read_bytes(), _columns(path).read_bytes()
    monkeypatch.setattr(canon, "_BLOCK_ROWS", block)
    calls, render = [], canon._float_slots

    def fail_in_the_second_block(x):
        calls.append(1)
        if len(calls) > 2:          # t_s and rtt_ms of the first block rendered
            raise MemoryError("render failed")
        return render(x)

    monkeypatch.setattr(canon, "_float_slots", fail_in_the_second_block)
    with pytest.raises(MemoryError, match="render failed"):
        canon.write_latency_csv(path, LATENCY_7)
    assert (path.read_bytes(), _columns(path).read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lat.csv", "lat.csv.cols"]


def test_writer_holds_the_rendered_columns_and_one_block(tmp_path):
    rows = 100_000
    rng = np.random.default_rng(19)
    trace = LatencyTrace(np.arange(rows) * 0.2, np.arange(rows),
                         1.0 + 250.0 * rng.random(rows))
    canon.write_latency_csv(tmp_path / "warm.csv", _head(trace, 2))
    columns = len(trace.names()) * rows * 8
    tracemalloc.start()
    try:
        canon.write_latency_csv(tmp_path / "lat.csv", trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A block's byte and digit matrices take some 2.5 MB at 8,192 rows;
    # each whole-trace copy (CSV text, stacked table) would add 2.4 MB.
    assert peak < columns + (3 << 20)
    assert _outcome(canon.read_latency_csv, tmp_path / "lat.csv") == \
        _text_outcome(canon.read_latency_csv, tmp_path / "lat.csv", tmp_path)


# -------------------------------------------------------------- atomic writes

def test_atomic_writes_leave_no_temp_file(tmp_path, monkeypatch):
    canon.atomic_write_text(tmp_path / "a.txt", "\x00\xff")
    canon.atomic_write_text(tmp_path / "b.txt", "café\n")
    _latency(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.txt", "b.txt", "lat.csv", "lat.csv.cols"]
    assert (tmp_path / "b.txt").read_bytes() == b"caf\xc3\xa9\n"

    with pytest.raises(UnicodeEncodeError):   # a lone surrogate is no UTF-8
        canon.atomic_write_text(tmp_path / "c.txt", "lone \udcff")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(canon.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        canon.atomic_write_text(tmp_path / "a.txt", "new")
    with pytest.raises(OSError, match="rename refused"):
        canon.write_latency_csv(tmp_path / "d.csv", LatencyTrace([0.0], [0], [9.0]))
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.txt", "b.txt", "lat.csv", "lat.csv.cols"]
    assert (tmp_path / "a.txt").read_bytes() == b"\x00\xc3\xbf"


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=["022", "002", "077"])
def test_written_files_take_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        canon.atomic_write_text(tmp_path / "b.txt", "b\n")
        _latency(tmp_path)
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["b.txt", "lat.csv", "lat.csv.cols"],
                                  0o666 & ~umask)
