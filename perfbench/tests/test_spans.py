"""Self-time arithmetic and parent tracking of the span recorder."""

import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from layers import _exec_wait, install
from spans import Recorder, Span, coverage, layer_busy, self_times, union_length


@contextlib.contextmanager
def span(recorder, name):
    token = recorder.open()
    try:
        yield
    finally:
        recorder.close(token, name)


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        Span(1, "api", 0.0, 10.0),
        Span(2, "pipeline", 1.0, 7.0, parent=1),
        Span(3, "kernel", 2.0, 4.0, parent=2),
        Span(4, "verify", 4.0, 6.5, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(2.5)


def test_self_time_with_children_on_concurrent_threads():
    # Two worker threads overlap inside one fan-out: only their union counts.
    spans = [
        Span(1, "exec", 0.0, 10.0, thread=1),
        Span(2, "kernel", 1.0, 7.0, parent=1, thread=2),
        Span(3, "kernel", 2.0, 9.0, parent=1, thread=3),
        Span(4, "kernel", 12.0, 13.0, parent=1, thread=3),  # outside the parent: clipped
    ]
    assert self_times(spans)[1] == pytest.approx(2.0)
    # Busy time counts each thread; the busiest worker (thread 3: 8 s) sets the wait.
    assert layer_busy(spans, "kernel") == pytest.approx(14.0)
    assert _exec_wait(spans) == pytest.approx(2.0)


def test_layer_busy_counts_nested_spans_of_one_layer_once():
    spans = [
        Span(1, "encode", 0.0, 4.0),
        Span(2, "encode", 1.0, 3.0, parent=1),
        Span(3, "kernel", 4.0, 5.0),
        Span(4, "encode", 4.2, 4.3, parent=3),
    ]
    assert layer_busy(spans, "encode") == pytest.approx(4.1)


def test_coverage_is_the_union_of_named_spans_over_the_root():
    root = Span(1, "api", 0.0, 10.0)
    spans = [
        root,
        Span(2, "stream", 0.0, 10.0, parent=1),
        Span(3, "parse", 1.0, 3.0, parent=2),
        Span(4, "seed", 2.0, 5.0, parent=2),
    ]
    assert coverage(spans, root, ("parse", "seed")) == pytest.approx(0.4)


def test_recorder_nests_spans_on_one_thread():
    recorder = Recorder()
    with span(recorder, "api"):
        with span(recorder, "pipeline"):
            with span(recorder, "kernel"):
                pass
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["api"].parent is None
    assert by_name["pipeline"].parent == by_name["api"].id
    assert by_name["kernel"].parent == by_name["pipeline"].id
    assert all(span.end >= span.start for span in recorder.spans)


def test_pool_and_thread_work_keeps_its_parent_under_install():
    recorder = Recorder()
    restore = install(recorder)
    try:
        def work(name):
            with span(recorder, name):
                time.sleep(0.01)

        with ThreadPoolExecutor(max_workers=2) as pool:
            with span(recorder, "exec"):
                futures = [pool.submit(work, "kernel") for _ in range(4)]
                for future in futures:
                    future.result(timeout=10)
                thread = threading.Thread(target=work, args=("prefetch",))
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive()
        # Outside any span a pool task is a root.
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(work, "orphan").result(timeout=10)
    finally:
        restore()

    exec_span = next(span for span in recorder.spans if span.name == "exec")
    kernels = [span for span in recorder.spans if span.name == "kernel"]
    assert len(kernels) == 4
    assert {span.parent for span in kernels} == {exec_span.id}
    assert all(span.thread != exec_span.thread for span in kernels)
    prefetch = next(span for span in recorder.spans if span.name == "prefetch")
    assert prefetch.parent == exec_span.id
    orphan = next(span for span in recorder.spans if span.name == "orphan")
    assert orphan.parent is None
    assert self_times(recorder.spans)[exec_span.id] < exec_span.duration
    assert ThreadPoolExecutor.submit.__name__ == "submit"
