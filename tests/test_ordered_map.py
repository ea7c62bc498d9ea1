"""signals.ordered_map as a hypothesis property: results in slice order, a slot
handed to a new call only once the consumer is done with its previous result,
and no thread left behind, on any CPU count and however far the consumer
reads. hypothesis comes from the `test` extra."""

import concurrent.futures
import threading
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from upsample_audit import signals as sig


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(slices=st.integers(0, 40), cpus=st.integers(1, 8), data=st.data())
def test_results_come_in_order_and_no_slot_is_reused_early(slices, cpus, data):
    taken = data.draw(st.integers(0, slices), label="taken")
    asked = 0  # how many results the consumer has asked for: result i is asked for at the (i + 1)-th
    calls = {}  # i: (slot, asked when call i was submitted)
    submit = concurrent.futures.ThreadPoolExecutor.submit

    def submitted(pool, fn, slot, i):
        calls[i] = (slot, asked)
        return submit(pool, fn, slot, i)

    def fn(slot, i):
        calls.setdefault(i, (slot, asked))  # inline, the call is its submission
        return i

    threads = threading.active_count()
    with (mock.patch.object(sig, "cpu_count", lambda: cpus),
          mock.patch.object(concurrent.futures.ThreadPoolExecutor, "submit", submitted)):
        results = sig.ordered_map(fn, range(slices), object)
        got = []
        for _ in range(taken):
            asked += 1
            got.append(next(results))
        if taken == slices:
            assert list(results) == []  # the pass ends, rather than being closed
        results.close()
    assert got == list(range(taken))
    last = {}  # slot: the call that used it last
    for i, (slot, at) in sorted(calls.items()):
        if slot in last:  # the consumer has asked for the result after that call's
            assert at >= last[slot] + 2
        last[slot] = i
    assert threading.active_count() == threads
