"""Tests of the benchmark's own code.

    python -m pytest -q perfbench
"""

import itertools
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import run
from queries import join_text, query_stream, split_text
from speed import SpeedProbe
from tracing import Tracer, span_totals
from workloads import IdentifyStream, Program, check_answers, load_golden, timed

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ["0", "ABACBC:aab", "ABACBC:abb", "ABABCDCD:aabb", "ABACDECDBE:bbaaa"]


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_stream_is_deterministic_per_seed():
    assert take(query_stream(RECORDS, 7), 300) == take(query_stream(RECORDS, 7), 300)
    assert take(query_stream(RECORDS, 7), 300) != take(query_stream(RECORDS, 8), 300)


def test_stream_queries_are_distinct_with_equal_insertion_shares():
    queries = take(query_stream(RECORDS, 3), 2000)
    assert len({q.text for q in queries}) == len(queries)
    counts = [sum(q.insertions == k for q in queries) for k in range(4)]
    assert counts == [500] * 4
    for q in queries:
        word, types = split_text(q.text)
        assert join_text(word, types) == q.text
        assert all(word.count(x) == 2 for x in types)
        assert q.letters == len(split_text(q.record)[1]) + 2 * q.insertions


def _spin(seconds):
    t0 = time.thread_time()
    while time.thread_time() - t0 < seconds:
        pass


def test_work_in_threads_and_child_processes_is_charged():
    def threaded():
        workers = [threading.Thread(target=_spin, args=(0.1,)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

    def child():
        code = "import time\nwhile time.process_time() < 0.2: pass"
        subprocess.run([sys.executable, "-c", code], check=True)

    assert timed(threaded)[1] >= 0.2
    assert timed(child)[1] >= 0.2


def test_speed_probe_cpu_is_left_out():
    with SpeedProbe() as probe:
        cpu = timed(time.sleep, 0.5)[1]
    assert len(probe.samples) >= 3
    assert cpu < 0.002 < sum(probe.samples)
    assert probe.scale() > 0


def test_percentile_interpolates():
    assert run.percentile([4.0], 99) == 4.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([0.0, 10.0], 90) == pytest.approx(9.0)


def test_self_time_subtracts_direct_children():
    spans = [
        ["measure", 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 4.0, 5.5, 1],
        ["a", 7.0, 8.0, 0],
        ["setup", 20.0, 30.0, -1],
        ["a", 21.0, 29.0, 5],
    ]
    rows = span_totals(spans, "measure")
    assert rows["a"] == {"calls": 2, "total": 6.0, "self": 3.5}
    assert rows["b"] == {"calls": 2, "total": 2.5, "self": 2.5}
    assert span_totals(spans, None)["a"]["calls"] == 3


def test_attach_wraps_every_binding_and_detach_restores():
    prog = Program(ROOT)
    mods = prog.load()
    originals = (mods.census.identify, mods.cli.parse_nanoword, mods.moves._neighbors)
    tracer = Tracer()
    tracer.attach(mods)
    assert mods.census.identify is not originals[0]
    assert mods.cli.parse_nanoword is mods.words.parse_nanoword is not originals[1]
    mods.cli.parse_nanoword("ABACBC:aab")
    with tracer.span("op"):
        mods.cli.parse_nanoword("ABACBC:abb")
        mods.cli.parse_nanoword("ABABCDCD:aabb")
    assert [s[0] for s in tracer.spans] == ["words.parse", "op", "words.parse", "words.parse"]
    assert tracer.count("", "words.validate.calls") == 1
    assert tracer.count("op", "words.validate.calls") == 2
    assert tracer.count("cli", "words.validate.calls") == 0
    tracer.detach()
    assert (mods.census.identify, mods.cli.parse_nanoword, mods.moves._neighbors) == originals


def test_counter_of_a_removed_function_is_absent():
    prog = Program(ROOT)
    mods = prog.load()
    del mods.moves._neighbors
    tracer = Tracer()
    tracer.attach(mods)
    assert tracer.count("op", "moves.states_expanded") is None
    assert tracer.count("op", "words.validate.calls") == 0
    tracer.detach()


@pytest.fixture(scope="module")
def stream_workload(tmp_path_factory):
    prog = Program(ROOT)
    workload = IdentifyStream(prog, load_golden(ROOT), 5, tmp_path_factory.mktemp("out"))
    workload.setup()
    yield workload
    workload.close()


def test_identify_stream_answers_match(stream_workload):
    samples = [s for _ in range(24) for s in stream_workload.step()]
    assert {s.kind for s in samples} == {"op", "cli"}
    assert run.failed_share(samples) == 0


def test_traced_stream_keeps_cli_work_out_of_the_op_spans(stream_workload):
    tracer = Tracer()
    prog = stream_workload.prog
    prog.tracer = tracer
    prog.set_traced(True)
    try:
        samples = [s for _ in range(8) for s in stream_workload.step()]
    finally:
        prog.set_traced(False)
    assert sum(s.kind == "cli" for s in samples) == 1
    op, cli = span_totals(tracer.spans, "op"), span_totals(tracer.spans, "cli")
    assert op["census.identify"]["calls"] == 8
    assert "cli.load_census" not in op and "words.parse" not in op
    assert cli["cli.load_census"]["calls"] == 1
    assert tracer.count("cli", "words.validate.calls") > 400
    assert tracer.count("op", "words.validate.calls") < 400


def test_record_answers_are_checked(stream_workload):
    census = stream_workload.census
    answers = dict(stream_workload.expected)
    assert check_answers(census, answers) == []
    record = census.by_id("3.1")
    answers[str(record.nanoword)] = "2.1"
    assert check_answers(census, answers) == [
        f"record 3.1 ({record.nanoword}) is identified as 2.1"
    ]
    answers[str(record.nanoword)] = "ambiguous(0|2.1)"
    assert len(check_answers(census, answers)) == 1


def test_planted_wrong_answer_is_caught(stream_workload):
    done = stream_workload.count
    upcoming = take(query_stream(sorted(stream_workload.expected), 5), done + 1)[done]
    stream_workload.expected[upcoming.record] = "planted-wrong-answer"
    samples = stream_workload.step()
    assert run.failed_share(samples) > 0
    assert all(not s.ok for s in samples)
