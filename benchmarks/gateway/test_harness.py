"""Tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/gateway`` (not part
of the tier-1 suite, which collects ``tests/`` only).
"""

import json
import subprocess
import sys
import time

import pytest

from benchmarks.gateway import ROOT, load_contract, loadgen, stats
from benchmarks.gateway.tracing import Recorder, Summary, exclusive_ms


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, 50),       # nothing has ten samples beyond it: the median
    (30, 50),       # p75 would leave 7
    (40, 75),       # p75 leaves exactly 10
    (100, 90),      # p90 leaves 10, p95 leaves 5
    (199, 90),      # p95 leaves 9
    (200, 95),      # p95 leaves exactly 10
    (5000, 95),     # capped at the top of the ladder
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_slice_rate_is_median_of_equal_slices():
    # Five one-second slices holding 10, 10, 2, 10, 12 events: a stall
    # in one slice and a burst in another leave the median alone.
    times = []
    for second, count in enumerate([10, 10, 2, 10, 12]):
        times += [second + (k + 0.5) / count for k in range(count)]
    assert stats.slice_rate(times, 0.0, 5.0) == 10.0
    # Events outside the window are not counted.
    assert stats.slice_rate(times + [-1.0, 5.5], 0.0, 5.0) == 10.0


# ----------------------------------------------------------------------
# Exclusive-time arithmetic
# ----------------------------------------------------------------------

def _tree():
    """root 0-100 ms; a 10-40 (with a1 15-25); b 50-90; then a second
    trace: root 200-210 with one child 202-206."""
    return [
        ["root", 0.000, 0.100, -1, 1, "GET"],
        ["a", 0.010, 0.040, 0, 1, None],
        ["a.inner", 0.015, 0.025, 1, 1, 3],
        ["b", 0.050, 0.090, 0, 1, None],
        ["root", 0.200, 0.210, -1, 2, "POST"],
        ["a", 0.202, 0.206, 4, 2, None],
    ]


def test_exclusive_time_subtracts_direct_children_only():
    own = exclusive_ms(_tree())
    assert own == pytest.approx([30.0, 20.0, 10.0, 40.0, 6.0, 4.0])
    # Self times of a trace add up to its root's duration.
    assert sum(own[:4]) == pytest.approx(100.0)
    assert sum(own[4:]) == pytest.approx(10.0)


def test_summary_selects_traces_by_their_root():
    spans = _tree()
    gets = Summary([spans], lambda root: root[5] == "GET")
    assert len(gets.roots) == 1
    assert gets.self_ms == pytest.approx(
        {"root": 30.0, "a": 20.0, "a.inner": 10.0, "b": 40.0})
    assert gets.count == {"root": 1, "a": 1, "a.inner": 1, "b": 1}
    assert gets.note == {"a.inner": 3}
    assert gets.root_ms() == pytest.approx(100.0)
    assert sum(gets.layer_ms().values()) == pytest.approx(gets.root_ms())
    both = Summary([spans, spans], lambda root: True)
    assert len(both.roots) == 4
    assert both.self_ms["a"] == pytest.approx(48.0)


def test_recorder_nests_spans_and_numbers_traces():
    recorder = Recorder()
    inner = recorder.wrap(lambda rows: rows, "inner",
                          note=lambda result, args: len(result))
    outer = recorder.wrap(lambda: inner([1, 2, 3]), "outer")
    outer()
    outer()
    names = [span[0] for span in recorder.spans]
    parents = [span[3] for span in recorder.spans]
    traces = [span[4] for span in recorder.spans]
    assert names == ["outer", "inner", "outer", "inner"]
    assert parents == [-1, 0, -1, 2]
    assert traces == [1, 1, 2, 2]
    assert recorder.spans[1][5] == 3
    assert all(span[2] >= span[1] for span in recorder.spans)


# ----------------------------------------------------------------------
# Generator determinism
# ----------------------------------------------------------------------

def _fixture_description():
    return {
        "stars": [[pk, f"{'HDKICHIP'[pk % 4 * 2:][:2]} {pk * 37 % 100}{pk}"]
                  for pk in range(1, 49)],
        "users": list(range(1, 65)),
        "sessions": [f"session{index:02d}" for index in range(64)],
        "done_simulations": list(range(1, 61)),
        "machines": ["frost", "kraken", "lonestar", "ranger"],
        "rows": {"amp_simulation": 2000},
    }


def _shape(plan):
    return ({category: [(url.target, url.kind, url.expect)
                        for url in urls]
             for category, urls in plan.urls.items()},
            plan.sequence, plan.sessions, plan.warm, plan.writes)


def test_plans_depend_on_the_seed_and_nothing_else():
    fixture = _fixture_description()
    for build in (
            lambda seed: loadgen.browse_plan(fixture, seed,
                                             logged_in=False),
            lambda seed: loadgen.under_writes_plan(fixture, seed, 4)):
        assert _shape(build(7)) == _shape(build(7))
        assert _shape(build(7)) != _shape(build(8))
    assert loadgen.daemon_plan(fixture, 7, 3) == \
        loadgen.daemon_plan(fixture, 7, 3)
    assert loadgen.daemon_plan(fixture, 7, 3) != \
        loadgen.daemon_plan(fixture, 8, 3)


def test_hot_and_render_send_the_same_url_sequence():
    fixture = _fixture_description()
    hot = loadgen.browse_plan(fixture, 3, logged_in=False)
    render = loadgen.browse_plan(fixture, 3, logged_in=True)
    assert hot.sequence == render.sequence
    assert not hot.sessions and len(render.sessions) == 64
    distinct = sum(len(urls) for urls in hot.urls.values())
    assert distinct == 123
    assert len(hot.warm) == distinct        # every page, both workers
    drawn = [category for category, _ in hot.sequence]
    for category, weight in loadgen.BROWSE_MIX:
        share = drawn.count(category) / len(drawn)
        assert abs(share - weight / 100.0) < 0.02, category


def test_under_writes_reader_outgrows_the_l1():
    fixture = _fixture_description()
    plan = loadgen.under_writes_plan(fixture, 3, 5)
    details = {index for category, index in plan.sequence
               if category == "sim-detail"}
    assert len(details) > 256               # the L1 holds 256 entries
    assert plan.read_rate == loadgen.READ_RATE_PER_S
    assert plan.write_rate == loadgen.WRITE_RATE_PER_S
    assert len(plan.writes) == 5 * loadgen.WRITE_RATE_PER_S
    sweep = json.loads(plan.writes[0])["sweep"]
    assert len(sweep["mass"]) == loadgen.SWEEP_SIZE
    assert len(set(sweep["mass"])) == loadgen.SWEEP_SIZE


def test_daemon_plan_blocks_of_four_and_eight_owners():
    plan = loadgen.daemon_plan(_fixture_description(), 3, 15)
    sims = plan["simulations"]
    assert len(sims) == 148
    assert plan["scan_polls"] == 150
    assert len({sim["owner"] for sim in sims}) == 8
    assert [sim["machine"] for sim in sims[:9]] == \
        ["frost"] * 4 + ["kraken"] * 4 + ["lonestar"]


def test_paced_reader_waits_for_its_slot_and_times_from_the_send():
    plan = loadgen.under_writes_plan(_fixture_description(), 3, 1)
    plan.read_rate = 100.0

    class Stub(loadgen.Reader):
        def get(self, step, slot=None):
            sent = time.perf_counter()
            time.sleep(0.025 if step == 2 else 0.001)   # one slow answer
            done = time.perf_counter()
            return loadgen.Sample(done, done - sent, True, 200, 0,
                                  late_s=sent - slot)

    start = time.perf_counter()
    reader = Stub(("127.0.0.1", 0), plan, start, start + 0.2)
    reader.run()
    assert reader.error is None
    lateness = [sample.late_s for sample in reader.samples]
    # No request leaves before its slot; the two behind the slow answer
    # leave late, and the lateness is not part of their latency.
    assert all(late >= 0 for late in lateness)
    assert lateness[3] > 0.01 and lateness[4] > 0.005
    assert lateness[8] < 0.005
    assert reader.samples[3].latency_s < 0.01
    assert 17 <= len(reader.samples) <= 20


# ----------------------------------------------------------------------
# The command, end to end
# ----------------------------------------------------------------------

def test_smoke_run_reports_exactly_the_contracts_metrics(tmp_path):
    contract = load_contract()
    out = tmp_path / "smoke.json"
    finished = subprocess.run(
        [sys.executable, "-m", "benchmarks.gateway", "--smoke",
         "--seed", "5", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert finished.returncode == 0, finished.stderr[-2000:]
    report = json.loads(out.read_text())
    assert report["fixture"]["rows"]["amp_simulation"] == 2000
    assert len(report["fixture"]["content_hash"]) == 64
    assert {"commit", "python", "sqlite", "journal_mode", "nproc"} \
        <= set(report["environment"])
    runs = {(run["workload"], run["trace"]): run
            for run in report["runs"]}
    assert set(runs) == {(workload["name"], trace)
                         for workload in contract["workloads"]
                         for trace in (0, 1)}
    for (name, trace), run in runs.items():
        listed = contract["per_layer" if trace else "end_to_end"]
        assert list(run["metrics"]) == [m["name"] for m in listed], name
        for metric in listed:
            assert run["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert run["failed"] == 0 and run["attempted"] >= 1, (name, run)
        if not trace:
            assert all(entry["value"] > 0
                       for entry in run["metrics"].values()), (name, run)
    # The tables on stdout name every end-to-end metric, and the two
    # that were demoted from end to end, with their units.
    for name in [m["name"] for m in contract["end_to_end"]] \
            + ["ops_per_s", "op_tail_ms"]:
        assert f"  {name} " in finished.stdout, name
