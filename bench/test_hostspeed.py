"""Unit tests for the host-speed scaling arithmetic.

    python3 -m pytest bench
"""

import pytest

import hostspeed as hs


def test_raw_intervals_leave_out_the_probes():
    # probes of 1, 2 and 1 s end at 1, 5 and 10: program work runs 1-3 and 5-9
    ends, probe_s = [1.0, 5.0, 10.0], [1.0, 2.0, 1.0]
    assert hs.raw_intervals(ends, probe_s) == pytest.approx([2.0, 4.0])


def test_scaled_intervals_divide_by_the_mean_of_both_probes():
    ends, probe_s = [1.0, 5.0, 10.0], [1.0, 2.0, 1.0]
    # 2 s at a mean probe of 1.5 s, 4 s at 1.5 s; reference probe 0.75 s
    assert hs.scaled_intervals(ends, probe_s, 0.75) == pytest.approx([1.0, 2.0])


def test_a_uniform_slow_down_scales_out():
    fast = ([0.5, 3.5, 4.5], [0.5, 0.5, 0.5])
    slow = ([0.75, 5.25, 6.75], [0.75, 0.75, 0.75])  # everything 1.5x slower
    assert hs.raw_intervals(*slow) == pytest.approx([1.5 * t for t in hs.raw_intervals(*fast)])
    assert hs.scaled_intervals(*slow) == pytest.approx(hs.scaled_intervals(*fast))
    assert hs.scaled_intervals(*fast, ref_s=0.5) == pytest.approx([2.5, 0.5])


def test_every_marks_before_every_kth_call():
    marks = hs.Marks()
    calls = []
    wrapped = marks.every(lambda x: calls.append((x, len(marks.ends))), 3)
    for x in range(7):
        wrapped(x)
    # marks before calls 0, 3 and 6
    assert [n for _, n in calls] == [1, 1, 1, 2, 2, 2, 3]
    assert len(marks.probe_s) == 3 and all(t > 0 for t in marks.probe_s)
    assert marks.ends == sorted(marks.ends)
