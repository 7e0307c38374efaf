"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_helpers.py -q
"""

from __future__ import annotations

import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_keeps_shape_of_the_work(name):
    """Ids encode the slot (and so N); kinds give the mix."""
    shape = [(s["id"], s.get("kind"), s.get("target")) for s in workloads.generate(name, 0)]
    for seed in (1, 2, 12345):
        assert [(s["id"], s.get("kind"), s.get("target"))
                for s in workloads.generate(name, seed)] == shape


def test_plane_always_contains_the_anchor():
    for seed in range(5):
        specs = workloads.plane_inversion(seed)
        assert specs[0] == {"id": "anchor", "text": workloads.ANCHOR, "target": "10"}


def test_passes_stop_before_the_budget_and_spread_the_probes():
    now = [0.0]
    probes = []

    def probe():
        probes.append(now[0])
        return 0.5

    passes = run.Passes(10, probe, 4, clock=lambda: now[0])
    for _ in passes:
        for _ in range(3):  # three instances of 1 s each
            passes.between_instances()
            now[0] += 1
    assert passes.count == 3  # a fourth pass would end at 12 s
    assert probes == [0, 3, 5, 8]  # due at 0, 2.5, 5 and 7.5 s
    assert passes.setup_times == [0.5] * 4


def test_passes_make_at_least_one_pass():
    passes = run.Passes(0, lambda: 0.25, 2, clock=lambda: 0.0)
    assert list(passes) == [1]
    assert passes.setup_times == [0.25, 0.25]  # probes not yet due are taken at the end


@pytest.mark.parametrize(
    "n, rank",
    [(1, 1), (12, 6), (20, 10), (21, 11), (29, 19), (40, 30), (60, 50), (1000, 990)],
)
def test_tail_leaves_ten_samples_beyond(n, rank):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    percentile, value, beyond = tracing.tail(samples)
    assert value == rank  # the rank-th smallest of 1..n
    assert beyond == n - rank
    assert percentile == pytest.approx(100 * rank / n)
    if n >= 20:
        assert beyond == 10



def test_pooled_tail_does_not_depend_on_the_number_of_passes():
    one_pass = [float(i) for i in range(1, 30)]  # 29 instances
    single = tracing.tail(one_pass)
    for passes in (2, 3, 7):
        percentile, value, beyond = tracing.tail(one_pass * passes, group=29)
        assert (percentile, value) == single[:2]
        assert beyond == 10 * passes


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_tracer_nests_spans_and_subtracts_children():
    tr = tracing.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]))
    tr.instance = "i0"
    with tr.span("outer"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("a"):
            pass
    assert [(n, s, e, p) for n, s, e, p, _ in tr.spans] == [
        ("outer", 0.0, 10.0, None), ("a", 1.0, 5.0, 0), ("b", 3.0, 4.0, 1), ("a", 6.0, 8.0, 0),
    ]
    assert tracing.self_times(tr.spans) == {"outer": 4.0, "a": 5.0, "b": 1.0}
    assert {s[4] for s in tr.spans} == {"i0"}


def test_self_time_of_known_intervals():
    spans = [
        ("instance", 0.0, 10.0, None, "x"),
        ("dual", 1.0, 4.0, 0, "x"),
        ("pow", 2.0, 3.0, 1, "x"),
        ("pow", 5.0, 9.0, 0, "x"),
        ("oracle", 11.0, 12.0, None, "x"),
    ]
    assert tracing.self_times(spans) == {
        "instance": 3.0, "dual": 2.0, "pow": 5.0, "oracle": 1.0,
    }
    assert tracing.child_durations(spans, "instance") == 7.0
    assert tracing.durations(spans, "instance") == 10.0


def test_overlapping_children_are_counted_once():
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_null_tracer_records_nothing():
    null = tracing.NullTracer()
    with null.span("x"):
        null.count("y")
    assert not hasattr(null, "spans")


def test_oracles_on_the_paper_set():
    import instances

    E = [F(6), F(15), F(16), F(21), F(23)]
    assert instances.irreducible_oracle([(e,) for e in E]) == {(e,) for e in E} - {(F(21),)}
    assert instances.essential_p_oracle(E, 2) == (F(6), F(15))
    assert instances.essential_p_oracle(E, 6) == (F(6), F(15), F(16))
    assert instances.essential_p_oracle([F(1), F(5, 2), F(8, 3)], 1) == (F(1), F(5, 2), F(8, 3))
