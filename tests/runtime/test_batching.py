"""Tests for the MicroBatcher request coalescer (repro.runtime.batching)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exceptions import QueueFullError, ValidationError
from repro.runtime import MicroBatcher

#: Generous deadline for deadline-flush assertions on slow CI machines.
_WAIT = 5.0


class Collector:
    """Thread-safe sink recording every flushed batch."""

    def __init__(self, fail: bool = False):
        self.batches: list[tuple[object, list]] = []
        self.event = threading.Event()
        self.fail = fail
        self._lock = threading.Lock()

    def __call__(self, key, batch):
        if self.fail:
            raise RuntimeError("sink exploded")
        with self._lock:
            self.batches.append((key, batch))
        self.event.set()
        for request in batch:
            request.future.set_result(sum(r.n_rows for r in batch))

    def wait(self, n_batches: int, timeout: float = _WAIT) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.batches) >= n_batches:
                    return
            time.sleep(0.002)
        raise AssertionError(
            f"expected {n_batches} batches, got {len(self.batches)}")


@pytest.fixture
def rows():
    return lambda n: np.zeros((n, 3))


class TestSizeTrigger:
    def test_flushes_when_rows_reach_max_batch_size(self, rows):
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=4, max_delay_seconds=30.0)
        try:
            futures = [batcher.submit("m", rows(1)) for _ in range(4)]
            # size trigger flushes synchronously on the submitting thread
            assert len(sink.batches) == 1
            key, batch = sink.batches[0]
            assert key == "m"
            assert [r.n_rows for r in batch] == [1, 1, 1, 1]
            assert all(f.result(timeout=_WAIT) == 4 for f in futures)
            assert batcher.flush_counts["size"] == 1
            assert batcher.pending_rows == 0
        finally:
            batcher.close()

    def test_oversized_request_flushes_alone(self, rows):
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=4, max_delay_seconds=30.0)
        try:
            future = batcher.submit("m", rows(10))
            assert future.result(timeout=_WAIT) == 10
            assert len(sink.batches) == 1
        finally:
            batcher.close()

    def test_keys_coalesce_independently(self, rows):
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=2, max_delay_seconds=30.0)
        try:
            batcher.submit(("m", "a"), rows(1))
            batcher.submit(("m", "b"), rows(1))
            assert sink.batches == []       # neither key reached the size
            batcher.submit(("m", "a"), rows(1))
            assert len(sink.batches) == 1   # only key "a" flushed
            assert sink.batches[0][0] == ("m", "a")
            assert batcher.pending_rows == 1
        finally:
            batcher.close()


class TestDeadlineTrigger:
    def test_flushes_after_max_delay(self, rows):
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=1000,
                               max_delay_seconds=0.02)
        try:
            start = time.monotonic()
            future = batcher.submit("m", rows(3))
            assert future.result(timeout=_WAIT) == 3
            assert time.monotonic() - start >= 0.015
            assert batcher.flush_counts["deadline"] == 1
        finally:
            batcher.close()

    def test_manual_flush_drains_everything(self, rows):
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=1000,
                               max_delay_seconds=30.0)
        try:
            futures = [batcher.submit(k, rows(2)) for k in ("a", "b")]
            assert batcher.flush() == 2
            assert all(f.result(timeout=_WAIT) == 2 for f in futures)
            assert batcher.flush_counts["manual"] == 2
        finally:
            batcher.close()


class TestBackpressure:
    def test_queue_full_raises(self, rows):
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=1000,
                               max_delay_seconds=30.0, max_pending=5)
        try:
            batcher.submit("m", rows(5))
            with pytest.raises(QueueFullError, match="full"):
                batcher.submit("m", rows(1))
        finally:
            batcher.close()

    def test_flush_frees_capacity(self, rows):
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=1000,
                               max_delay_seconds=30.0, max_pending=5)
        try:
            batcher.submit("m", rows(5))
            batcher.flush()
            batcher.submit("m", rows(5))  # accepted again
        finally:
            batcher.close()

    def test_request_larger_than_queue_is_invalid_not_full(self, rows):
        # No amount of draining can admit 5 rows into a 4-row queue, so
        # the refusal must not be the retryable QueueFullError.
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=1000,
                               max_delay_seconds=30.0, max_pending=4)
        try:
            with pytest.raises(ValidationError, match="more than"):
                batcher.submit("m", rows(5))
            assert batcher.pending_rows == 0
            batcher.submit("m", rows(4))  # the queue is untouched
            assert batcher.pending_rows == 4
        finally:
            batcher.close()


class TestLifecycle:
    def test_close_flushes_remaining_requests(self, rows):
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=1000,
                               max_delay_seconds=30.0)
        future = batcher.submit("m", rows(2))
        batcher.close()
        assert future.result(timeout=_WAIT) == 2
        assert batcher.flush_counts["close"] == 1

    def test_submit_after_close_rejected(self, rows):
        batcher = MicroBatcher(Collector(), max_batch_size=4,
                               max_delay_seconds=30.0)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("m", rows(1))

    def test_sink_exception_lands_in_futures(self, rows):
        sink = Collector(fail=True)
        batcher = MicroBatcher(sink, max_batch_size=2, max_delay_seconds=30.0)
        try:
            futures = [batcher.submit("m", rows(1)) for _ in range(2)]
            for future in futures:
                with pytest.raises(RuntimeError, match="sink exploded"):
                    future.result(timeout=_WAIT)
        finally:
            batcher.close()


class TestConcurrency:
    def test_many_submitting_threads_lose_no_request(self, rows):
        sink = Collector()
        batcher = MicroBatcher(sink, max_batch_size=16,
                               max_delay_seconds=0.005)
        futures = []
        lock = threading.Lock()

        def submitter():
            for _ in range(50):
                future = batcher.submit("m", rows(1))
                with lock:
                    futures.append(future)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=_WAIT)
        try:
            assert len(futures) == 200
            for future in futures:
                assert future.result(timeout=_WAIT) >= 1
            total = sum(sum(r.n_rows for r in batch)
                        for _, batch in sink.batches)
            assert total == 200
        finally:
            batcher.close()
