"""Self-time arithmetic on hand-built span trees.

    python3 -m pytest perfbench/test_spans.py
"""

from spans import END, PARENT, START, Tracer, self_times


def span(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


def test_self_time_subtracts_covered_interval_once():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 40, 0),
        span("a.inner", 15, 20, 1),  # a grandchild never counts against the root
        span("b", 30, 60, 0),  # overlaps a: 30-40 is covered once
        span("c", 90, 120, 0),  # clipped to the root's end
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 5, 5, 30, 30]


def test_tracer_links_nested_calls_to_their_parent():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert [(s[START], s[END]) for s in tracer.spans] == [(0, 50), (10, 20), (30, 40)]
    assert self_times(tracer.spans) == [30, 10, 10]
