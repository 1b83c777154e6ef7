"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench

They use small inputs (a 20-ideal corpus, the 5-generator worked example)
and take a few seconds.
"""

import json
import os
import random
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import shiftlab as sl  # noqa: E402

import pin  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def small_corpus(seed=1, count=20):
    w = workloads.Corpus(count)
    w.setup(sl, seed)
    return w


def outputs(w):
    return [fn() for _, fn in w.ops()]


def comparable(out):
    table_q, table_p, reports = out
    return (workloads.table_entries(table_q), workloads.table_entries(table_p),
            [r.to_dict() for r in reports])


def test_benchmark_json_lists_the_harness_metrics():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_pinned_ideals_match_their_provenance():
    s13, s14 = pin.draw_stress_ideals(sl)
    for name, drawn in (("S13", s13), ("S14", s14)):
        pinned = sl.load_ideal(os.path.join(workloads.PINNED, f"{name}.ideal"))
        assert pinned.gens == drawn.gens
    expected = workloads.load_expected()
    assert expected["S13"]["lattice"] == len(sl.lcm_lattice(s13)) == 284
    assert expected["S13"]["betti"]["QQ"]["totals"] == [1, 13, 42, 47, 20, 3]
    assert expected["S13"]["betti"]["QQ"]["shifts"] == [0, 21, 23, 24, 25, 26]
    assert expected["S14"]["betti"]["GF(32003)"]["totals"] == [1, 14, 50, 66, 35, 6]
    assert expected["S14"]["betti"]["GF(32003)"]["shifts"] == [0, 20, 24, 25, 26, 27]


def test_traced_and_untraced_runs_give_identical_outputs():
    w = small_corpus()
    ex2 = sl.load_ideal(workloads.EX2_FILE)
    gf = sl.PrimeField(workloads.PRIME)

    def resolve():
        out = workloads.resolve_ideal(sl, ex2, sl.lcm_lattice(ex2), gf)
        return workloads.resolve_summary(sl, out, gf)

    originals = {name: getattr(sl, name) for name in dir(sl)}
    plain = [comparable(o) for o in outputs(w)], resolve(), workloads.symbolic_sweep(sl)[:50]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [comparable(o) for o in outputs(w)], resolve(), workloads.symbolic_sweep(sl)[:50]
        layers = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert layers["betti.rank.calls"] > 0 and layers["complexes.taylor.faces"] > 0
    assert {name: getattr(sl, name) for name in dir(sl)} == originals


def test_seed_changes_the_corpus_and_not_the_pinned_workloads():
    a, b = small_corpus(seed=1), small_corpus(seed=2)
    assert [I.gens for I in a.ideals] != [I.gens for I in b.ideals]
    assert [I.gens for I in a.ideals] == [I.gens for I in small_corpus(seed=1).ideals]
    for cls, attrs in ((workloads.Stress, ("s13", "s14")), (workloads.Resolve, ("ideals",))):
        x, y = cls(), cls()
        x.setup(sl, 1)
        y.setup(sl, 2)
        for attr in attrs:
            assert getattr(x, attr) == getattr(y, attr)


def test_wrong_expected_output_is_a_failed_operation(alarm):
    w = small_corpus(count=10)
    w.prepare()
    entries = w.refs[3][0]
    entries[-1] = [entries[-1][0], entries[-1][1], entries[-1][2] + 1]
    m = run.Measurement()
    assert run.run_pass(w, m)
    assert (m.attempted, m.failed) == (10, 1)
    assert m.problems[0].startswith("3: Betti table over QQ")


def test_operation_over_budget_fails_without_hanging(alarm):
    t0, t1, out, err = run.timed_call(lambda: time.sleep(5), 0.05)
    assert out is None and "budget" in err
    assert t1 - t0 < 1


def test_speed_probe_scales_by_the_samples_taken_during_an_operation():
    probe = speed.SpeedProbe()
    probe.at = [float(t) for t in range(20)]
    probe.kernel_s = [0.001] * 10 + [0.002] * 10
    assert probe.scale(10, 19) == pytest.approx(speed.REFERENCE_KERNEL_S / 0.002)
    assert probe.scale(4.5, 4.6) == pytest.approx(speed.REFERENCE_KERNEL_S / 0.001)
    probe.start()
    try:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.3:
            pass
    finally:
        probe.stop()
    assert len(probe.kernel_s) > 20 and probe.spent > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(100))
    pct, value = workloads.tail_percentile(values)
    assert value == 89 and sum(v > value for v in values) == 10 and pct == 90.0
