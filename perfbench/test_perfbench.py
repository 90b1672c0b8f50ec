"""Tests of the benchmark's own machinery; run with

    python3 -m pytest perfbench
"""

import json
import sys
import threading
import types
from pathlib import Path

import pytest

import layers
import reference
from percentiles import (MIN_BEYOND, TooFewSamples, beyond, percentile,
                         tail_level)
from spans import NO_PARENT, Patches, Tracer, self_times, union_length, write_spans

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def target(a, b=2, *rest, **named):
    if a == "boom":
        raise KeyError("boom")
    return (a, b, rest, named)


@pytest.mark.parametrize("make", ["wrap", "marking", "counting"])
def test_wrappers_pass_arguments_results_and_exceptions_through(make):
    tracer = Tracer()
    if make == "counting":
        wrapped = tracer.counting(target)
    else:
        wrapped = getattr(tracer, make)(target, "t.target")
    assert wrapped(1) == (1, 2, (), {})
    assert wrapped(1, 3, 4, 5, x=6) == (1, 3, (4, 5), {"x": 6})
    with pytest.raises(KeyError) as info:
        wrapped("boom")
    assert info.value.args == ("boom",)
    assert wrapped.__name__ == "target" and wrapped.__wrapped__ is target


def test_wrap_records_one_span_per_call_even_when_it_raises():
    tracer = Tracer(clock=FakeClock([1.0, 2.0, 3.0, 5.0]))
    wrapped = tracer.wrap(target, "t.target")
    wrapped(1)
    with pytest.raises(KeyError):
        wrapped("boom")
    assert [(s[1], s[2], s[3], s[4]) for s in tracer.spans] == [
        ("t.target", NO_PARENT, 1.0, 2.0), ("t.target", NO_PARENT, 3.0, 5.0)]


def test_parents_come_from_the_calling_threads_stack():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    worker = threading.Thread(target=inner)

    def hold():
        inner()
        worker.start()
        worker.join(timeout=10)

    tracer.wrap(hold, "outer")()
    inner()
    assert not worker.is_alive()
    outer_id = next(s[0] for s in tracer.spans if s[1] == "outer")
    parents = sorted(s[2] for s in tracer.spans if s[1] == "inner")
    # nested call, call from another thread while outer is open, call after
    assert parents == sorted([outer_id, NO_PARENT, NO_PARENT])


def test_counting_counts_under_the_innermost_marked_span():
    tracer = Tracer()
    counted = tracer.counting(lambda: None)
    step = tracer.marking(lambda n: [counted() for _ in range(n)], "step")
    evaluate = tracer.marking(lambda: (counted(), step(1), counted()), "eval")
    counted()
    step(3)
    step(2)
    evaluate()
    counted()
    assert tracer.counts() == {"step": 6, "eval": 2}


def test_patches_replace_module_copies_and_restore_them():
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")
    other = types.ModuleType("otherpkg")
    lib.f = user.f = other.f = target
    cls = type("C", (), {"m": target})
    saved = {n: sys.modules.get(n) for n in ("fakepkg", "fakepkg.lib", "fakepkg.user")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.lib": lib, "fakepkg.user": user})
    try:
        patches = Patches()
        assert patches.replace(lib, "f", "W", package="fakepkg") == 2
        patches.replace(cls, "m", "W")
        assert (lib.f, user.f, other.f, cls.m) == ("W", "W", target, "W")
        assert patches.restore() == []
        assert lib.f is target and user.f is target and cls.__dict__["m"] is target
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert union_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        (1, "parent", NO_PARENT, 0.0, 10.0, "r", 1),
        (2, "child", 1, 1.0, 4.0, "r", 1),
        (3, "child", 1, 3.0, 6.0, "r", 2),   # overlaps the first child
        (4, "grandchild", 2, 1.5, 2.0, "r", 1),
        (5, "late", 1, 9.0, 11.0, "r", 2),   # runs past the parent's end
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 101)), 90) == 90
    assert beyond(100, 90) == MIN_BEYOND
    with pytest.raises(TooFewSamples):
        percentile(list(range(1, 100)), 90)
    assert percentile(list(range(1, 41)), 75) == 30
    with pytest.raises(TooFewSamples):
        percentile(list(range(1, 40)), 75)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_scaled_timings_follow_the_reference_task():
    ref = reference.REFERENCE_S
    assert reference.scaled(0.5, 2 * ref) == pytest.approx(0.25)
    assert reference.scaled(0.5, ref, 3 * ref) == pytest.approx(0.25)
    assert reference.scaled(0.5, ref / 2, ref / 2, 9 * ref) == pytest.approx(1.0)
    assert reference.task() > 0


@pytest.mark.parametrize("n, level", [(20, 50), (39, 50), (40, 75), (99, 75),
                                      (100, 90), (200, 95), (1000, 99)])
def test_tail_level_is_the_highest_supported_percentile(n, level):
    assert tail_level(n) == level
    assert beyond(n, level) >= MIN_BEYOND


def test_tail_level_refuses_too_few_samples():
    with pytest.raises(TooFewSamples):
        tail_level(19)


def test_client_overlap_counts_concurrent_client_spans():
    spans = [
        (1, layers.TRAIN_SPAN, NO_PARENT, 0.0, 4.0, "r", 1),
        (2, layers.TRAIN_SPAN, NO_PARENT, 0.0, 4.0, "r", 2),
        (3, "federation.aggregate", NO_PARENT, 4.0, 4.5, "r", 0),
        (4, layers.TRAIN_SPAN, NO_PARENT, 5.0, 6.0, "r", 1),
        (5, layers.TRAIN_SPAN, NO_PARENT, 6.0, 7.0, "r", 1),
        (6, "federation.aggregate", NO_PARENT, 7.0, 7.5, "r", 0),
    ]
    summary = layers.summarize(spans, {}, reps=1)
    assert summary["federation.client_overlap"] == pytest.approx((8.0 + 2.0) / (4.0 + 2.0))
    assert summary["federation.client_updates"] == 4


def test_every_layer_metric_is_summarized():
    summary = layers.summarize([], {}, reps=1)
    assert set(summary) | {"src_lines", "trace.overhead"} == set(layers.METRICS)


def test_benchmark_json_names_what_the_code_reports():
    import run
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (unit, better) for name, (unit, better, *_) in layers.METRICS.items()}


def test_write_spans_round_trips(tmp_path):
    import gzip

    spans = [(2, "b", 1, 2.0, 3.0, "r", 7), (1, "a", NO_PARENT, 1.0, 4.0, "r", 7)]
    path = tmp_path / "spans.csv.gz"
    write_spans(path, spans)
    with gzip.open(path, "rt", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    assert lines == ["id,name,parent,start,end,run,thread",
                     "1,a,0,1.0,4.0,r,7", "2,b,1,2.0,3.0,r,7"]
