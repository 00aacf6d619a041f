"""Span recording, wrapping, and self time with nested children."""

import pytest

from spans import Tracer, covered, layer_metrics, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(identifier, start, end, parent=None, leaf_s=0.0):
    return {"id": identifier, "name": f"s{identifier}", "start": start,
            "end": end, "parent": parent, "request": None, "leaf_s": leaf_s}


def test_covered_merges_overlapping_children_and_clips_them():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_child_coverage_and_leaf_time():
    spans = [span(0, 0.0, 10.0, leaf_s=0.5),
             span(1, 1.0, 4.0, parent=0),      # overlapping children, as
             span(2, 3.0, 6.0, parent=0),      # concurrent tasks produce
             span(3, 2.0, 3.0, parent=1)]      # a grandchild counts once
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_wrapped_calls_nest_and_leaves_charge_their_parent():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 2.0
        wrapped_leaf()

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 1.0

    wrapped_leaf = tracer.wrap(leaf, "leaf", leaf=True)
    wrapped_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()

    exported = tracer.to_dict()
    by_name = {record["name"]: record for record in exported["spans"]}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    own = self_times(exported["spans"])
    assert own[by_name["outer"]["id"]] == pytest.approx(2.0)
    assert own[by_name["inner"]["id"]] == pytest.approx(2.0)
    assert exported["leaves"]["leaf"] == {"calls": 1, "seconds": 1.0}


def test_patch_and_restore_a_class_method_and_a_classmethod():
    class Target:
        def method(self):
            return "method"

        @classmethod
        def build(cls):
            return cls.__name__

    tracer = Tracer()
    original = Target.__dict__["method"]
    tracer.patch(Target, "method", "m")
    tracer.patch(Target, "build", "b")
    assert Target().method() == "method" and Target.build() == "Target"
    assert [record[1] for record in tracer.spans] == ["m", "b"]
    tracer.restore()
    assert Target.__dict__["method"] is original
    assert isinstance(Target.__dict__["build"], classmethod)


def test_spans_of_one_request_share_its_id():
    tracer = Tracer()
    tracer.request.set(7)
    tracer.wrap(lambda: tracer.wrap(lambda: None, "child")(), "parent")()
    assert {record[5] for record in tracer.spans} == {7}


def test_layer_metrics_keep_each_process_trace_apart():
    # Both processes number their spans from 0; the server's child span
    # must not shorten the client process's engine span.
    client = {"spans": [span(0, 0.0, 4.0)], "leaves": {}, "counts": {}}
    client["spans"][0]["name"] = "engine.run"
    server = {"spans": [span(0, 10.0, 12.0), span(1, 10.0, 11.5, parent=0)],
              "leaves": {}, "counts": {}}
    server["spans"][0]["name"] = "engine.run"
    metrics = layer_metrics([client, server], factor=1.0, featurization={})
    assert metrics["engine.self_s"] == pytest.approx(4.0 + 0.5)
