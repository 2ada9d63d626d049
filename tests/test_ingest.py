"""Parser, dominant-RNTI, consolidation and canonical-format tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taildiag import canon, decimals, synthgen
from taildiag.errors import (
    EmptyTraceError,
    InvalidSpecError,
    MalformedRecordError,
    MissingColumnError,
    ToolkitError,
)
from taildiag.ingest import parse_fullstats, parse_ping_log
from taildiag.model import (
    LatencySample,
    LatencyTrace,
    RunMetadata,
    SchedulerSnapshot,
    SchedulerTrace,
    consolidate_run,
    select_dominant_rnti,
)

from oracles import consolidate_ref
from readers import read_manifest, read_truth_csv
from runs import latency_trace, sched_trace


def meta(**kw):
    base = dict(run_id="r1", ue_type="smartphone", distance_m=6.0,
                packet_size_b=30, scenario="baseline",
                nominal_duration_s=1800.0, ping_interval_s=0.2)
    base.update(kw)
    return RunMetadata(**base)


# ---------------------------------------------------------------- metadata

def test_metadata_validation():
    with pytest.raises(InvalidSpecError):
        meta(run_id="")
    with pytest.raises(InvalidSpecError):
        meta(packet_size_b=0)
    with pytest.raises(InvalidSpecError):
        meta(ping_interval_s=0.0)
    with pytest.raises(InvalidSpecError):
        meta(nominal_duration_s=-1.0)
    with pytest.raises(InvalidSpecError):
        meta(distance_m=-0.5)


# ---------------------------------------------------------------- ping log

def test_ping_basic_line_seq_time_base():
    res = parse_ping_log(
        ["64 bytes from 10.0.0.1: icmp_seq=3 ttl=64 time=12.4 ms"], meta())
    [s] = res.samples
    assert (s.t_s, s.seq, s.rtt_ms) == (pytest.approx(0.6), 3, 12.4)
    assert res.skipped_lines == 0 and res.malformed == []


def test_ping_epoch_lines_offset_from_first_epoch():
    res = parse_ping_log([
        "[1700000000.500000] 1008 bytes from h: icmp_seq=0 ttl=64 time=8.1 ms",
        "[1700000000.700000] 1008 bytes from h: icmp_seq=1 ttl=64 time=9.0 ms",
    ], meta())
    assert [s.t_s for s in res.samples] == pytest.approx([0.0, 0.2])
    assert [s.rtt_ms for s in res.samples] == [8.1, 9.0]


def test_ping_icmp_req_variant_and_dup():
    res = parse_ping_log([
        "64 bytes from 10.0.0.1: icmp_req=2 ttl=64 time=5.5 ms",
        "64 bytes from 10.0.0.1: icmp_seq=2 ttl=64 time=5.6 ms (DUP!)",
    ], meta())
    assert [s.rtt_ms for s in res.samples] == [5.5, 5.6]


def test_ping_skips_headers_summaries_timeouts():
    res = parse_ping_log([
        "PING 10.0.0.1 (10.0.0.1) 30(58) bytes of data.",
        "64 bytes from 10.0.0.1: icmp_seq=0 ttl=64 time=7.0 ms",
        "Request timeout for icmp_seq 1",
        "no answer yet for icmp_seq=2",
        "",
        "--- 10.0.0.1 ping statistics ---",
        "3 packets transmitted, 1 received, 66% packet loss",
    ], meta())
    assert len(res.samples) == 1
    assert res.skipped_lines == 6
    assert res.malformed == []


def test_ping_malformed_reply_counted_with_line_number():
    lines = [
        "64 bytes from 10.0.0.1: icmp_seq=0 ttl=64 time=7.0 ms",
        "64 bytes from 10.0.0.1: icmp_seq=1 ttl=64 time=garbage ms",
        "64 bytes from 10.0.0.1: icmp_seq=2 ttl=64 time=0.0 ms",
    ]
    res = parse_ping_log(lines, meta())
    assert len(res.samples) == 1
    assert [n for n, _ in res.malformed] == [2, 3]
    # conservation: every line is parsed, skipped or malformed
    assert len(res.samples) + res.skipped_lines + len(res.malformed) == len(lines)


def test_ping_empty_trace_raises():
    with pytest.raises(EmptyTraceError):
        parse_ping_log(["PING host", "--- stats ---"], meta())
    with pytest.raises(EmptyTraceError):
        parse_ping_log([], meta())


def test_ping_out_of_order_epochs_sorted_nonnegative():
    res = parse_ping_log([
        "[100.8] 38 bytes from h: icmp_seq=4 ttl=64 time=3.0 ms",
        "[100.2] 38 bytes from h: icmp_seq=1 ttl=64 time=2.0 ms",
        "[100.4] 38 bytes from h: icmp_seq=2 ttl=64 time=2.5 ms",
    ], meta())
    ts = [s.t_s for s in res.samples]
    assert ts == sorted(ts) and ts[0] >= 0.0
    assert ts == pytest.approx([0.0, 0.2, 0.6])


def test_ping_30min_trace_with_55_losses():
    # 9000 nominal sends at 0.2 s, 55 replies lost
    lost = {i * 163 % 9000 for i in range(55)}
    assert len(lost) == 55
    lines = ["PING h (h) 30(58) bytes of data."]
    for seq in range(9000):
        if seq in lost:
            continue
        lines.append(f"64 bytes from h: icmp_seq={seq} ttl=64 time=9.1 ms")
    res = parse_ping_log(lines, meta())
    assert len(res.samples) == 8945
    ts = [s.t_s for s in res.samples]
    assert ts == sorted(ts)


def test_ping_seq_wraps_at_16_bits_without_epochs():
    # 70,000 replies at 0.2 s: icmp_seq wraps from 65535 to 0 once
    lines = [f"64 bytes from h: icmp_seq={i % 65536} ttl=64 time=9.1 ms"
             for i in range(70_000)]
    res = parse_ping_log(lines, meta())
    t = res.samples.t_s
    assert np.unique(t).size == 70_000
    assert t.max() == 69_999 * 0.2
    assert np.all(np.diff(t) > 0)
    # the seq column keeps the printed value
    assert res.samples.seq.max() == 65535 and res.samples.seq[-1] == 70_000 - 65536 - 1


def test_ping_seq_unwrap_tolerates_dups_and_reordering_across_the_wrap():
    printed = [65533, 65534, 0, 65535, 1, 1, 2, 65535, 3]   # swap, DUPs
    lines = [f"64 bytes from h: icmp_seq={s} ttl=64 time=9.1 ms" for s in printed]
    res = parse_ping_log(lines, meta(ping_interval_s=1.0))
    counts = [65533, 65534, 65536, 65535, 65537, 65537, 65538, 65535, 65539]
    assert sorted(zip(res.samples.t_s.tolist(), res.samples.seq.tolist())) == \
        sorted((float(c), s) for c, s in zip(counts, printed))


def test_ping_seq_unwrap_keeps_times_nonnegative():
    # a reply from before the first one crosses the wrap backwards
    lines = [f"64 bytes from h: icmp_seq={s} ttl=64 time=9.1 ms" for s in (0, 1, 65535)]
    res = parse_ping_log(lines, meta(ping_interval_s=1.0))
    assert res.samples.t_s.tolist() == [65535.0, 65536.0, 65537.0]


@given(st.lists(st.tuples(st.integers(0, 10_000),
                          st.floats(0.01, 5000.0)), min_size=1, max_size=60))
def test_ping_conservation_property(pairs):
    lines = ["PING h"] + [
        f"64 bytes from h: icmp_seq={seq} ttl=64 time={rtt:.3f} ms"
        for seq, rtt in pairs
    ] + ["--- stats ---"]
    res = parse_ping_log(lines, meta())
    assert len(res.samples) + res.skipped_lines + len(res.malformed) == len(lines)
    assert all(s.rtt_ms > 0 and s.t_s >= 0 for s in res.samples)
    ts = [s.t_s for s in res.samples]
    assert ts == sorted(ts)


# --------------------------------------------------------------- fullstats

CMAP = {"rnti": "rnti", "dl_bler": "dl_bler"}


def test_fullstats_index_time_base():
    res = parse_fullstats(
        ["rnti,dl_bler", "17,0.05", "17,0.10"], CMAP, meta())
    assert [(s.t_s, s.rnti, s.dl_bler) for s in res.snapshots] == [
        (0.0, 17, 0.05), (1.0, 17, 0.10)]


def test_fullstats_custom_period_and_skipped_row_keeps_slot():
    res = parse_fullstats(
        ["rnti,dl_bler", "17,0.0", "17,1.7", "17,0.2"], CMAP, meta(),
        stats_period_s=0.5)
    assert res.skipped_rows == 1
    assert [(s.t_s, s.dl_bler) for s in res.snapshots] == [(0.0, 0.0), (1.0, 0.2)]


def test_fullstats_out_of_range_rows_skipped():
    rows = ["rnti,dl_bler,dl_mcs,dl_retx,dl_total",
            "17,0.05,9,2,50",      # fine
            "17,1.7,9,2,50",       # bler out of range
            "17,0.05,40,2,50",     # mcs out of range
            "17,0.05,9,60,50",     # retx > total
            "-3,0.05,9,2,50",      # negative rnti
            "17,0.05,9,2,"]        # absent total: fine
    cmap = dict(CMAP, dl_mcs="dl_mcs", dl_retx="dl_retx", dl_total="dl_total")
    res = parse_fullstats(rows, cmap, meta())
    assert len(res.snapshots) == 2
    assert res.skipped_rows == 4
    assert res.snapshots[1].dl_total is None


def test_fullstats_timestamp_column_rebased():
    cmap = dict(CMAP, t_s="time")
    res = parse_fullstats(
        ["time,rnti,dl_bler", "1000.5,17,0.0", "1001.5,17,0.1", "1000.0,17,0.2"],
        cmap, meta())
    assert [s.t_s for s in res.snapshots] == pytest.approx([0.0, 0.5, 1.5])
    assert res.snapshots[0].dl_bler == 0.2


def test_fullstats_header_mapping_errors():
    with pytest.raises(MissingColumnError):
        parse_fullstats(["rnti,bler", "17,0.0"], CMAP, meta())
    with pytest.raises(MissingColumnError):
        parse_fullstats(["rnti,dl_bler", "17,0.0"], {"rnti": "rnti"}, meta())
    with pytest.raises(InvalidSpecError):
        parse_fullstats(["rnti,dl_bler", "17,0.0"],
                        dict(CMAP, bogus="x"), meta())


def test_fullstats_empty_traces():
    with pytest.raises(EmptyTraceError):
        parse_fullstats([], CMAP, meta())
    with pytest.raises(EmptyTraceError):
        parse_fullstats(["rnti,dl_bler"], CMAP, meta())
    with pytest.raises(EmptyTraceError):
        parse_fullstats(["rnti,dl_bler", "17,9.9"], CMAP, meta())


def test_fullstats_hex_rnti_and_optional_fields():
    cmap = dict(CMAP, ul_bler="ul_bler", snr_db="snr", rsrp_dbm="rsrp")
    res = parse_fullstats(
        ["rnti,dl_bler,ul_bler,snr,rsrp", "0x4601,0.1,,31.5,-80.0"],
        cmap, meta())
    s = res.snapshots[0]
    assert s.rnti == 0x4601
    assert s.ul_bler is None and s.snr_db == 31.5 and s.rsrp_dbm == -80.0
    assert s.dl_mcs is None and s.ul_mcs is None


# ------------------------------------------------------------ dominant RNTI

def test_dominant_single_instance():
    snaps = [SchedulerSnapshot(t_s=float(i), rnti=17, dl_bler=0.0) for i in range(4)]
    assert select_dominant_rnti(sched_trace(snaps)) == (17, sched_trace(snaps))


def test_dominant_by_count_brute_force():
    snaps = ([SchedulerSnapshot(t_s=float(i), rnti=17, dl_bler=0.0) for i in range(100)]
             + [SchedulerSnapshot(t_s=float(i), rnti=42, dl_bler=0.5) for i in range(3)])
    counts = {}
    for s in snaps:
        counts[s.rnti] = counts.get(s.rnti, 0) + 1
    expect = max(sorted(counts), key=lambda r: counts[r])
    rnti, filtered = select_dominant_rnti(sched_trace(snaps))
    assert rnti == expect == 17
    assert len(filtered) == 100 and all(s.rnti == 17 for s in filtered)


def test_dominant_tie_breaks_to_smallest():
    snaps = ([SchedulerSnapshot(t_s=float(i), rnti=9, dl_bler=0.0) for i in range(10)]
             + [SchedulerSnapshot(t_s=float(i), rnti=5, dl_bler=0.0) for i in range(10)])
    rnti, _ = select_dominant_rnti(sched_trace(snaps))
    assert rnti == 5


def test_dominant_empty_raises():
    with pytest.raises(EmptyTraceError):
        select_dominant_rnti(sched_trace([]))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=50))
def test_dominant_count_is_maximal(rntis):
    snaps = [SchedulerSnapshot(t_s=float(i), rnti=r, dl_bler=0.0)
             for i, r in enumerate(rntis)]
    rnti, filtered = select_dominant_rnti(sched_trace(snaps))
    for other in set(rntis):
        assert len(filtered) >= sum(1 for r in rntis if r == other)
    assert all(s.rnti == rnti for s in filtered)


# ------------------------------------------------------------- consolidate

def test_consolidate_latency_only():
    lat = [LatencySample(t_s=0.2, seq=1, rtt_ms=9.0),
           LatencySample(t_s=0.0, seq=0, rtt_ms=8.0)]
    run = consolidate_run(latency_trace(lat), None, meta())
    assert len(run.scheduler) == 0
    assert [s.seq for s in run.latency] == [0, 1]


def test_consolidate_sorts_and_filters_dominant():
    lat = [LatencySample(t_s=float(i) * 0.2, seq=i, rtt_ms=9.0) for i in range(5)]
    sched = [SchedulerSnapshot(t_s=2.0, rnti=17, dl_bler=0.0),
             SchedulerSnapshot(t_s=0.0, rnti=17, dl_bler=0.1),
             SchedulerSnapshot(t_s=1.0, rnti=99, dl_bler=0.9)]
    run = consolidate_run(latency_trace(lat), sched_trace(sched), meta())
    assert len(run.latency) == len(lat)
    assert [s.t_s for s in run.scheduler] == [0.0, 2.0]
    assert all(s.rnti == 17 for s in run.scheduler)


def test_consolidate_offset_drops_negative_times():
    lat = [LatencySample(t_s=0.0, seq=0, rtt_ms=8.0)]
    sched = [SchedulerSnapshot(t_s=0.0, rnti=17, dl_bler=0.0),
             SchedulerSnapshot(t_s=5.0, rnti=17, dl_bler=0.1)]
    run = consolidate_run(latency_trace(lat), sched_trace(sched), meta(),
                          sched_offset_s=-2.0)
    assert [s.t_s for s in run.scheduler] == [3.0]


@pytest.mark.parametrize("offset, dropped", [(-0.0004, 1), (-1e308, 2)])
def test_consolidate_offset_warning_names_the_offset_exactly(capsys, offset, dropped):
    # Neither rounded to -0.000 nor spelt out in 300 digits.
    sched = [SchedulerSnapshot(t_s=0.0, rnti=17, dl_bler=0.0),
             SchedulerSnapshot(t_s=5.0, rnti=17, dl_bler=0.1)]
    lat = [LatencySample(t_s=0.0, seq=0, rtt_ms=8.0)]
    run = consolidate_run(latency_trace(lat), sched_trace(sched), meta(), sched_offset_s=offset)
    assert len(run.scheduler) == 2 - dropped
    assert capsys.readouterr().err == (
        f"WARNING: sched_offset_s {offset!r} drops {dropped} snapshots below t=0\n")


def _bits(trace):
    return [getattr(trace, name).tobytes() for name in trace.names()]


# Few distinct times and seqs, so that ties are common.
_LAT_ROWS = st.lists(st.builds(LatencySample, t_s=st.sampled_from([0.0, 0.2, 0.4, 3.0]),
                               seq=st.integers(0, 3), rtt_ms=st.floats(1.0, 100.0)),
                     max_size=30)
_SCHED_ROWS = st.lists(st.builds(SchedulerSnapshot, t_s=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
                                 rnti=st.sampled_from([17, 17, 99]),
                                 dl_bler=st.floats(0.0, 1.0),
                                 dl_mcs=st.none() | st.integers(0, 28)),
                       max_size=20)
_ORDERED = [LatencySample(0.0, 0, 9.0), LatencySample(0.2, 1, 8.0), LatencySample(0.4, 2, 7.0)]
_ONE_RNTI = [SchedulerSnapshot(0.0, 17, 0.1), SchedulerSnapshot(1.0, 17, 0.2),
             SchedulerSnapshot(2.0, 17, 0.3)]
_TWO_RNTIS = [*_ONE_RNTI, SchedulerSnapshot(0.5, 99, 0.9)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_LAT_ROWS, st.booleans(), _SCHED_ROWS, st.booleans(), st.sampled_from([0.0, -1.5, 2.0]))
@example(_ORDERED, False, _ONE_RNTI, False, 0.0)                   # already sorted
@example([LatencySample(0.2, 1, 5.0), LatencySample(0.2, 1, 6.0),  # tie, equal seq
          LatencySample(0.4, 2, 7.0), LatencySample(0.4, 1, 8.0)],  # tie, seq falls
         False, _ONE_RNTI, False, 0.0)
@example(_ORDERED[::-1], False, _ONE_RNTI[::-1], False, 0.0)       # unsorted
@example(_ORDERED, False, _TWO_RNTIS, False, 0.0)                 # two RNTIs
@example(_ORDERED, False, _ONE_RNTI, False, -1.5)                  # drops two rows
def test_consolidate_matches_the_stable_sort_oracle(samples, presort, snapshots,
                                                    presort_sched, offset):
    # Bit for bit, whether or not the rows come in order already; a
    # latency trace already in order is kept as it is.
    if presort:
        samples = sorted(samples, key=lambda s: (s.t_s, s.seq))
    if presort_sched:
        snapshots = sorted(snapshots, key=lambda s: (s.rnti, s.t_s))
    lat = latency_trace(samples)
    sched = sched_trace(snapshots) if snapshots else None
    run = consolidate_run(lat, sched, meta(), sched_offset_s=offset)
    ref_lat, ref_sched = consolidate_ref(samples, snapshots, offset)
    assert _bits(run.latency) == _bits(latency_trace(ref_lat))
    assert _bits(run.scheduler) == _bits(sched_trace(ref_sched))
    if ref_lat == samples:
        assert run.latency is lat


# ---------------------------------------------------------- canonical files

def _sample_strategy():
    return st.builds(
        LatencySample,
        t_s=st.floats(0.0, 1e6, allow_nan=False),
        seq=st.integers(0, 2**31),
        rtt_ms=st.floats(1e-3, 1e6, allow_nan=False))


def _snapshot_strategy():
    opt = st.none() | st.floats(-200.0, 200.0, allow_nan=False)
    return st.builds(
        SchedulerSnapshot,
        t_s=st.floats(0.0, 1e6, allow_nan=False),
        rnti=st.integers(0, 65535),
        dl_bler=st.floats(0.0, 1.0, allow_nan=False),
        ul_bler=st.none() | st.floats(0.0, 1.0, allow_nan=False),
        dl_mcs=st.none() | st.integers(0, 28),
        ul_mcs=st.none() | st.integers(0, 28),
        snr_db=opt,
        rsrp_dbm=opt,
        dl_retx=st.none() | st.integers(0, 1000),
        dl_total=st.none() | st.integers(1000, 2000))


@settings(max_examples=25)
@given(st.lists(_sample_strategy(), min_size=1, max_size=40))
def test_latency_csv_round_trip(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("lat") / "latency.csv"
    canon.write_latency_csv(path, latency_trace(samples))
    assert list(canon.read_latency_csv(path)) == samples
    first = path.read_bytes()
    canon.write_latency_csv(path, canon.read_latency_csv(path))
    assert path.read_bytes() == first


@settings(max_examples=25)
@given(st.lists(_snapshot_strategy(), min_size=1, max_size=40))
def test_scheduler_csv_round_trip(tmp_path_factory, snapshots):
    path = tmp_path_factory.mktemp("sched") / "sched.csv"
    canon.write_scheduler_csv(path, sched_trace(snapshots))
    assert list(canon.read_scheduler_csv(path)) == snapshots
    first = path.read_bytes()
    canon.write_scheduler_csv(path, canon.read_scheduler_csv(path))
    assert path.read_bytes() == first


def test_csv_headers_are_canonical(tmp_path):
    lat = tmp_path / "l.csv"
    sched = tmp_path / "s.csv"
    canon.write_latency_csv(lat, latency_trace([LatencySample(t_s=0.0, seq=0, rtt_ms=1.0)]))
    canon.write_scheduler_csv(
        sched, sched_trace([SchedulerSnapshot(t_s=0.0, rnti=1, dl_bler=0.0)]))
    assert lat.read_text().splitlines()[0] == "t_s,seq,rtt_ms"
    assert sched.read_text().splitlines()[0] == (
        "t_s,rnti,dl_bler,ul_bler,dl_mcs,ul_mcs,snr_db,rsrp_dbm,dl_retx,dl_total")
    with pytest.raises(MissingColumnError):
        canon.read_latency_csv(sched)
    with pytest.raises(MissingColumnError):
        canon.read_scheduler_csv(lat)


def test_manifest_round_trip(tmp_path):
    m = meta(distance_m=11.0, packet_size_b=1000)
    run = consolidate_run(latency_trace([LatencySample(0.0, 0, 9.0)]),
                          sched_trace([SchedulerSnapshot(0.0, 17, 0.05)]), m)
    path, fields = canon.write_run(tmp_path, run, {"truth_file": "r1_truth.csv"})
    assert path == tmp_path / "r1.manifest"
    got, files = read_manifest(path)
    assert got == m
    assert files == {name: str(tmp_path / f"r1_{kind}.csv") for name, kind in
                     [("latency_file", "latency"), ("scheduler_file", "sched"),
                      ("truth_file", "truth")]}
    assert canon.read_latency_csv(files["latency_file"]) == run.latency
    assert canon.read_scheduler_csv(files["scheduler_file"]) == run.scheduler
    assert [line.partition("=")[0] for line in path.read_text().splitlines()] == list(fields)
    assert fields["truth_file"] == "r1_truth.csv" and fields["packet_size_b"] == 1000


def test_run_without_snapshots_gets_no_scheduler_file(tmp_path):
    run = consolidate_run(latency_trace([LatencySample(0.0, 0, 9.0)]), None, meta())
    path, fields = canon.write_run(tmp_path, run)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "r1.manifest", "r1_latency.csv", "r1_latency.csv.cols"]
    assert "scheduler_file" not in fields and "scheduler_file" not in read_manifest(path)[1]


def test_truth_round_trip(tmp_path):
    path = tmp_path / "truth.csv"
    canon.write_truth_csv(path, [12.5, 3.25], [4.0, 99.0, 7.0])
    stalls, excursions = read_truth_csv(path)
    assert stalls == [3.25, 12.5]
    assert excursions == [4.0, 7.0, 99.0]
    assert path.read_text().splitlines()[0] == "kind,t_s"


def test_truth_csv_writes_numpy_times_as_plain_floats(tmp_path):
    path = tmp_path / "truth.csv"
    canon.write_truth_csv(path, np.array([2.0, 1.5]), np.array([0.25]))
    assert path.read_text() == "kind,t_s\nstall,1.5\nstall,2.0\nexcursion,0.25\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_truth_csv_refuses_a_time_that_is_not_finite(tmp_path, bad):
    path = tmp_path / "truth.csv"
    with pytest.raises(InvalidSpecError, match=f"excursion time {bad!r} "):
        canon.write_truth_csv(path, [1.0], np.array([3.0, bad]))
    assert not path.exists()


def test_manifest_writes_numpy_floats_as_plain_floats(tmp_path):
    m = meta(distance_m=np.float64(2.0), nominal_duration_s=np.float64(60.0))
    run = consolidate_run(latency_trace([LatencySample(0.0, 0, 9.0)]), None, m)
    path, _ = canon.write_run(tmp_path, run)
    lines = path.read_text().splitlines()
    assert "distance_m=2.0" in lines and "nominal_duration_s=60.0" in lines
    assert read_manifest(path)[0] == m


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    canon.atomic_write_text(path, "old\n")
    canon.atomic_write_text(path, "new\n")
    assert path.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


def test_ingested_run_survives_canonical_round_trip(tmp_path):
    ping = ["64 bytes from h: icmp_seq=%d ttl=64 time=%s ms" % (i, rtt)
            for i, rtt in enumerate(["8.1", "9.0", "250.7", "8.6"])]
    stats = ["rnti,dl_bler,dl_mcs,snr", "17,0.05,9,30.1", "17,0.2,8,29.0"]
    cmap = dict(CMAP, dl_mcs="dl_mcs", snr_db="snr")
    run = consolidate_run(parse_ping_log(ping, meta()).samples,
                          parse_fullstats(stats, cmap, meta()).snapshots,
                          meta())
    lat_path = tmp_path / "lat.csv"
    sched_path = tmp_path / "sched.csv"
    canon.write_latency_csv(lat_path, run.latency)
    canon.write_scheduler_csv(sched_path, run.scheduler)
    assert canon.read_latency_csv(lat_path) == run.latency
    assert canon.read_scheduler_csv(sched_path) == run.scheduler


# --------------------------------------------------- canonical-file faults

LAT_HEAD = ",".join(LatencyTrace.names()) + "\n"
SCHED_HEAD = ",".join(SchedulerTrace.names()) + "\n"


def _file(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    return path


def test_canonical_readers_skip_blank_lines(tmp_path):
    path = _file(tmp_path, LAT_HEAD + "\n0.0,0,9.0\n\n   \n0.2,1,9.5\n\n")
    assert list(canon.read_latency_csv(path)) == [
        LatencySample(0.0, 0, 9.0), LatencySample(0.2, 1, 9.5)]
    path = _file(tmp_path, SCHED_HEAD + "0.0,17,0.05,,,,,,,\n\n1.0,17,0.1,,9,,,,,\n")
    assert list(canon.read_scheduler_csv(path)) == [
        SchedulerSnapshot(0.0, 17, 0.05), SchedulerSnapshot(1.0, 17, 0.1, dl_mcs=9)]


@pytest.mark.parametrize("rows, line, reason", [
    ("0.0,0,9.0\n0.2,1\n", 3, "expected 3 fields, got 2"),
    ("0.0,0,9.0\n0.2,1,9.0,7\n", 3, "expected 3 fields, got 4"),
    ("0.0,0,9.0\n0.2,1,fast\n", 3, "rtt_ms is not a number: 'fast'"),
    ("0.0,0,9.0\n0.2,1,\n", 3, "rtt_ms is not a number: ''"),
    ("0.0,0,9.0\n0.2,1.5,9.0\n", 3, "seq not an integer"),
    ("0.0,9007199254740991,9.0\n0.2,9007199254740992,9.0\n", 3, "seq not an integer"),
    ("0.0,0,nan\n", 2, "rtt_ms is not a number: 'nan'"),
    ("0.0,0,9.0\n0.2,1,0.0\n", 3, "rtt_ms not finite and > 0"),
    ("0.0,0,9.0\n0.2,1,-3.0\n", 3, "rtt_ms not finite and > 0"),
    ("0.0,0,9.0\n0.2,1,1e999\n", 3, "rtt_ms not finite and > 0"),
    ("0.0,0,9.0\n1e999,1,9.0\n", 3, "t_s not finite"),
    ("0.0,0,9.0\n-inf,1,9.0\n", 3, "t_s is not a number: '-inf'"),
    ("0.0,0,9.0\n#0.2,1,9.0\n", 3, "t_s is not a number: '#0.2'"),  # '#' is no comment
    ("0.0,0,9.0\n0.2,1,\u0663\n", 3, "rtt_ms is not a number: '\u0663'"),  # ASCII digits only
    ("0.0,0,9.0\n0.2,\u0661,9.0\n", 3, "seq is not a number: '\u0661'"),
    ("0.0,0,9.0\n\n\n0.2,1\n", 5, "expected 3 fields, got 2"),
    ("0.0,0,9.0\n\n  \n0.6,3,0\n", 5, "rtt_ms not finite and > 0"),
    # The first of two malformed lines; one in a CRLF body; one after
    # more proven cells than decimals.decode reads in a block.
    ("0.0,0,9.0\n0.2,1,fast\n0.4,2\n", 3, "rtt_ms is not a number: 'fast'"),
    ("0.0,0,9.0\r\n0.2,1,9.5\r\n0.4,2,fast\r\n0.6,3,9.0\r\n", 4,
     "rtt_ms is not a number: 'fast'"),
    pytest.param("".join(f"{k}.5,{k},9.0\n" for k in range(decimals._BLOCK + 1)) + "0.2,1,\n",
                 decimals._BLOCK + 3, "rtt_ms is not a number: ''", id="past_a_decode_block"),
])
def test_latency_reader_names_file_and_line(tmp_path, rows, line, reason):
    path = _file(tmp_path, LAT_HEAD + rows)
    with pytest.raises(MalformedRecordError) as exc:
        canon.read_latency_csv(path)
    assert (exc.value.path, exc.value.line) == (str(path), line)
    assert str(exc.value) == f"{path}:{line}: {reason}"
    assert isinstance(exc.value, ToolkitError)


@pytest.mark.parametrize("row, reason", [
    ("0.0,17,0.05", "expected 10 fields, got 3"),
    (",17,0.05,,,,,,,", "t_s missing or not finite"),
    ("0.0,,0.05,,,,,,,", "rnti missing or not an integer"),
    ("0.0,17.5,0.05,,,,,,,", "rnti missing or not an integer"),
    ("0.0,0x11,0.05,,,,,,,", "rnti is not a number: '0x11'"),
    ("0.0,-3,0.05,,,,,,,", "rnti < 0"),
    ("0.0,17,,,,,,,,", "dl_bler missing or outside [0, 1]"),
    ("0.0,17,1.5,,,,,,,", "dl_bler missing or outside [0, 1]"),
    ("0.0,17,0.05,1.2,,,,,,", "ul_bler outside [0, 1]"),
    ("0.0,17,0.05,,9.5,,,,,", "dl_mcs not an integer"),
    ("0.0,17,0.05,,\u0669,,,,,", "dl_mcs is not a number: '\u0669'"),
    ("0.0,17,0.05,,31,,,,,", "dl_mcs outside [0, 28]"),
    ("0.0,17,0.05,,,-1,,,,", "ul_mcs outside [0, 28]"),
    ("0.0,17,0.05,,,,nan,,,", "snr_db is not a number: 'nan'"),
    ("0.0,17,0.05,,,,1e999,,,", "snr_db not finite"),
    ("0.0,17,0.05,,,,,-1e999,,", "rsrp_dbm not finite"),
    ("0.0,17,0.05,,,,,,-1,", "dl_retx < 0"),
    ("0.0,17,0.05,,,,,,,-50", "dl_total < 0"),
    ("0.0,9007199254740993,0.05,,,,,,,", "rnti missing or not an integer"),
    ("0.0,17,0.05,,,,,,,9007199254740992", "dl_total not an integer"),
    ("0.0,17,0.05,,,,,,60,50", "dl_retx > dl_total"),
])
def test_scheduler_reader_applies_the_fullstats_domains(tmp_path, row, reason):
    path = _file(tmp_path, SCHED_HEAD + "0.0,17,0.05,0.05,9,9,30.0,-80.0,2,50\n\n" + row + "\n")
    with pytest.raises(MalformedRecordError) as exc:
        canon.read_scheduler_csv(path)
    assert str(exc.value) == f"{path}:4: {reason}"


def test_fullstats_parser_skips_what_the_canonical_reader_rejects():
    cmap = dict(CMAP, snr_db="snr", dl_mcs="mcs")
    res = parse_fullstats(["rnti,dl_bler,snr,mcs", "17,0.1,30.0,9", "17,0.1,nan,9",
                           "17,0.1,inf,9", "17,0.1,30.0,9.5", "17,nan,30.0,9"],
                          cmap, meta())
    assert len(res.snapshots) == 1 and res.skipped_rows == 4


def test_truth_reader_names_file_and_line(tmp_path):
    path = _file(tmp_path, "kind,t_s\nstall,1.0\n\nspike,2.0\n")
    with pytest.raises(MalformedRecordError) as exc:
        read_truth_csv(path)
    assert str(exc.value) == f"{path}:4: unknown truth kind 'spike'"
    path = _file(tmp_path, "kind,t_s\nstall,nan\n")
    with pytest.raises(MalformedRecordError):
        read_truth_csv(path)


def test_empty_canonical_tables_raise(tmp_path):
    for header, read in ((LAT_HEAD, canon.read_latency_csv),
                         (SCHED_HEAD, canon.read_scheduler_csv)):
        with pytest.raises(EmptyTraceError):
            read(_file(tmp_path, header + "\n  \n"))


# ------------------------------------------------------- traces as columns

def test_trace_rows_hold_builtin_values():
    run, _ = synthgen.gen_run(synthgen.coupled_presets()[0])
    for trace, row_type, types in (
            (run.latency, LatencySample, (float, int, float)),
            (run.scheduler, SchedulerSnapshot, (float, int) + (float,) * 2
             + (int,) * 2 + (float,) * 2 + (int,) * 2)):
        rows = list(trace)
        assert len(rows) == len(trace) > 0
        assert rows[-1] == trace[-1] and rows[0] == trace[0]
        for row in rows:
            assert type(row) is row_type
            assert tuple(type(v) for v in row) == types
    snap = sched_trace([SchedulerSnapshot(0.0, 3, 0.5, dl_mcs=7)])[0]
    assert snap.dl_mcs == 7 and type(snap.dl_mcs) is int
    assert snap.ul_bler is None and snap.dl_total is None
    with pytest.raises(IndexError):
        run.latency[len(run.latency)]


def test_trace_slices_and_masks_are_traces():
    trace = latency_trace([LatencySample(float(i), i, 9.0 + i) for i in range(5)])
    assert trace[1:3] == latency_trace([LatencySample(1.0, 1, 10.0),
                                        LatencySample(2.0, 2, 11.0)])
    assert trace[trace.seq % 2 == 0].seq.tolist() == [0, 2, 4]
    with pytest.raises(InvalidSpecError):
        LatencyTrace([0.0], [0, 1], [9.0])
    with pytest.raises(InvalidSpecError, match="t_s must be one-dimensional"):
        LatencyTrace([[0.0]], [0], [9.0])
    with pytest.raises(ValueError):     # columns are read-only
        trace.t_s[0] = 7.0


def test_trace_takes_its_columns_by_position_or_name_and_is_read_only():
    trace = LatencyTrace([0.0, 0.2], seq=[0, 1], rtt_ms=[9.0, 8.0])
    assert trace == LatencyTrace(t_s=[0.0, 0.2], seq=[0, 1], rtt_ms=[9.0, 8.0])
    for columns, named in [(([0.0],) * 2, {}), (([0.0],) * 4, {}),
                           (([0.0],) * 2, {"t_s": [0.0]}), ((), {"t": [0.0], "seq": [0],
                                                                "rtt_ms": [9.0]})]:
        with pytest.raises(TypeError, match="takes the columns t_s, seq, rtt_ms"):
            LatencyTrace(*columns, **named)
    with pytest.raises(AttributeError):
        trace.t_s = np.zeros(2)
    with pytest.raises(AttributeError):
        del trace.seq
    moved = trace.replace(t_s=[1.0, 1.2])
    assert moved.t_s.tolist() == [1.0, 1.2] and np.shares_memory(moved.seq, trace.seq)
    assert trace.t_s.tolist() == [0.0, 0.2]


def _columns_strategy():
    """Scheduler columns with absent fields, integer columns, -0.0,
    tied times and several RNTIs."""
    opt_float = st.none() | st.sampled_from([-0.0, 0.0, 1.5]) | st.floats(
        -200.0, 200.0, allow_nan=False)
    row = st.tuples(
        st.sampled_from([-0.0, 0.0, 0.2, 0.2, 5.0]) | st.floats(-1e6, 1e6, allow_nan=False),
        st.sampled_from([0, 17, 0x4601]),
        st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0),
        st.none() | st.floats(0.0, 1.0), st.none() | st.integers(0, 28),
        st.none() | st.integers(0, 28), opt_float, opt_float,
        st.none() | st.integers(0, 1000), st.none() | st.integers(1000, 2**40))
    return st.lists(row, min_size=1, max_size=30)


@settings(max_examples=40)
@given(_columns_strategy())
@example([(-0.0, 0, -0.0, None, None, None, -0.0, None, None, None),
          (-0.0, 17, 1.0, 0.5, 0, 28, 0.0, -0.0, 0, 2**40)])
def test_columns_write_read_write_is_byte_identical(tmp_path_factory, rows):
    d = tmp_path_factory.mktemp("rt")
    cols = list(zip(*rows))
    sched = SchedulerTrace(*cols)
    lat = LatencyTrace(cols[0], cols[1], [abs(v) + 0.5 for v in cols[2]])
    for trace, write, read in ((lat, canon.write_latency_csv, canon.read_latency_csv),
                               (sched, canon.write_scheduler_csv, canon.read_scheduler_csv)):
        first, second = d / "first.csv", d / "second.csv"
        write(first, trace)
        back = read(first)
        write(second, back)
        assert second.read_bytes() == first.read_bytes()
        assert back == trace
        # -0.0 survives: the written cells, not just the values, agree
        assert [math.copysign(1.0, v) for v in back.t_s] == \
            [math.copysign(1.0, v) for v in trace.t_s]
