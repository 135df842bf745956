"""Differential tests for :class:`repro.sim.trace.ObjectTimeline`.

The timeline answers both position questions by bisection.  The
references below are the linear forms it replaced: the certifier's scan
of an object's rest intervals and the competitive ratio's step function.
On random leg sequences the two must agree at every integer step.
"""

from __future__ import annotations

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import ExecutionTrace, ObjectLeg, ObjectTimeline

NODES = range(4)


def reference_rest_intervals(start, legs):
    """Rest intervals ``(from_t, until_t_inclusive_or_None, node)``."""
    intervals = []
    pos, t = start, 0
    for leg in legs:
        intervals.append((t, leg.depart_time, pos))
        pos, t = leg.dst, leg.arrive_time
    intervals.append((t, None, pos))
    return intervals


def reference_at_rest(intervals, t, node):
    """Linear scan: does any rest interval at ``node`` contain ``t``?"""
    return any(
        lo <= t and (hi is None or t <= hi) and pos == node
        for lo, hi, pos in intervals
    )


class ReferenceChargedTimeline:
    """Step function charging an object to a leg's destination from its
    departure (the ratio's artificial-node convention)."""

    def __init__(self, start, legs):
        self.times = [leg.depart_time for leg in legs]
        self.nodes = [start] + [leg.dst for leg in legs]

    def position(self, t):
        return self.nodes[bisect.bisect_right(self.times, t)]


@st.composite
def contiguous_legs(draw):
    """An object's journey: each leg leaves from where the previous one
    arrived.  Rests of 0 steps are hand-offs (arrive == next depart).
    The legs come back shuffled too, as the timeline must order them."""
    start = draw(st.sampled_from(NODES))
    legs, pos, t = [], start, 0
    for _ in range(draw(st.integers(0, 6))):
        depart = t + draw(st.integers(0, 3))
        arrive = depart + draw(st.integers(1, 4))
        dst = draw(st.sampled_from(NODES))
        legs.append(ObjectLeg(0, depart, pos, dst, arrive))
        pos, t = dst, arrive
    return start, legs, draw(st.permutations(legs))


@st.composite
def arbitrary_legs(draw):
    """Legs as a corrupted trace may carry them: gaps, overlaps, even
    arrivals before departures."""
    step = st.integers(0, 12)
    legs = draw(st.lists(
        st.builds(ObjectLeg, st.just(0), step, st.sampled_from(NODES),
                  st.sampled_from(NODES), step),
        max_size=6,
    ))
    return draw(st.sampled_from(NODES)), legs


def _steps(legs):
    last = max((max(leg.depart_time, leg.arrive_time) for leg in legs), default=0)
    return range(-1, last + 3)


@settings(max_examples=300, deadline=None)
@given(contiguous_legs())
def test_contiguous_legs_match_references(case):
    start, legs, shuffled = case
    timeline = ObjectTimeline(start, shuffled)
    assert timeline.legs == legs
    intervals = reference_rest_intervals(start, legs)
    charged = ReferenceChargedTimeline(start, legs)
    for t in _steps(legs):
        assert timeline.charged_position(t) == charged.position(t), t
        for node in NODES:
            assert timeline.at_rest(t, node) == reference_at_rest(intervals, t, node), (t, node)


@settings(max_examples=300, deadline=None)
@given(arbitrary_legs())
def test_at_rest_matches_scan_on_malformed_legs(case):
    """The certifier also queries corrupted traces; its verdicts there
    must not depend on which form answers."""
    start, legs = case
    timeline = ObjectTimeline(start, legs)
    ordered = sorted(legs, key=lambda leg: leg.depart_time)
    intervals = reference_rest_intervals(start, ordered)
    charged = ReferenceChargedTimeline(start, ordered)
    for t in _steps(legs):
        assert timeline.charged_position(t) == charged.position(t), t
        for node in NODES:
            assert timeline.at_rest(t, node) == reference_at_rest(intervals, t, node), (t, node)


def test_object_timelines_groups_legs_and_starts_unplaced_objects():
    trace = ExecutionTrace("t", {1: 2})
    trace.legs.extend([
        ObjectLeg(7, 5, 3, 0, 8),
        ObjectLeg(1, 0, 2, 1, 1),
        ObjectLeg(7, 1, 1, 3, 3),
    ])
    timelines = trace.object_timelines()
    assert list(timelines) == [1, 7]
    assert timelines[1].start == 2
    # an object first seen in a leg starts at its earliest leg's source
    assert timelines[7].start == 1
    assert [leg.depart_time for leg in timelines[7].legs] == [1, 5]
    assert timelines[7].at_rest(0, 1) and not timelines[7].at_rest(4, 1)
