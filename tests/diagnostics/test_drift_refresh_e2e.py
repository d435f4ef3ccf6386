"""End-to-end: injected covariate drift drives an automatic refresh.

The server watches its own query stream.  A control stream of fresh
in-distribution draws must never trip the policy; a shifted stream must
trip it exactly once (hysteresis holds while the drift persists), the
in-flight request must survive the hot swap, and the auto-refreshed model
must agree with a cold refit on the post-drift dataset at the same 90%
bar the manual refresh path meets.  No timers are involved — the trigger
is purely score-driven.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import RHCHME
from repro.diagnostics import RefreshPolicy
from repro.exceptions import ValidationError
from repro.metrics import cluster_alignment
from repro.runtime import RuntimeServer

_WAIT = 30.0
_SHIFT = 25.0


def _agreement(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    mapping = cluster_alignment(labels_a, labels_b)
    return float(np.mean(mapping[labels_b] == labels_a))


def _wait_for(predicate, deadline: float = _WAIT) -> bool:
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


@pytest.fixture
def drift_server(diag_artifact, diag_grown_dataset, tmp_path):
    """A serial-worker server with the drift control loop armed."""
    path = diag_artifact.save(tmp_path / "model.npz")
    policy = RefreshPolicy(threshold=1.0, min_observations=2,
                           cooldown_seconds=60.0)
    server = RuntimeServer(workers="serial", max_batch_size=64,
                           max_delay_seconds=0.001,
                           diagnostics={"min_rows": 32},
                           refresh_policy=policy,
                           refresh_data=lambda p: diag_grown_dataset)
    with server:
        yield server, path


class TestDriftRefreshEndToEnd:
    def test_undrifted_stream_never_triggers(self, drift_server,
                                             query_stream):
        server, path = drift_server
        for batch in range(6):
            server.predict(path=path, type_name="points",
                           queries=query_stream(64, seed=100 + batch),
                           timeout=_WAIT)
        assert server.stats.refreshes == 0
        assert server.stats.auto_refreshes == 0
        # the detector saw the traffic and scored it as healthy
        (per_type,) = server.stats.drift.values()
        scores = per_type["points"]
        assert scores["rows"] >= 64
        assert scores["score"] < 1.0

    def test_drifted_stream_triggers_exactly_one_refresh(
            self, drift_server, diag_grown_dataset, query_stream):
        server, path = drift_server
        in_flight = server.submit(path=path, type_name="points",
                                  queries=query_stream(64, seed=200))
        for batch in range(4):
            server.predict(path=path, type_name="points",
                           queries=query_stream(64, shift=_SHIFT,
                                                seed=300 + batch),
                           timeout=_WAIT)
        assert _wait_for(lambda: server.stats.auto_refreshes >= 1), \
            server.stats.as_dict()
        assert server.stats.auto_refresh_failures == 0
        assert server.last_auto_refresh_error is None

        # hysteresis: the score stays high while drift persists, but the
        # policy is disarmed — continued traffic must not re-trigger
        for batch in range(4):
            server.predict(path=path, type_name="points",
                           queries=query_stream(64, shift=_SHIFT,
                                                seed=400 + batch),
                           timeout=_WAIT)
        assert server.stats.auto_refreshes == 1
        assert server.stats.refreshes == 1

        # the request submitted before the swap still answers
        assert in_flight.result(timeout=_WAIT).n_queries == 64

        # the swapped-in model is the refreshed one and agrees with a
        # cold refit of the post-drift dataset
        refreshed = server.predictor.get_model(path)
        assert refreshed.type_info("points").n_objects == 150
        cold = RHCHME(max_iter=20, random_state=0, use_subspace_member=False,
                      track_metrics_every=0).fit(diag_grown_dataset)
        agreement = _agreement(refreshed.labels["points"],
                               cold.labels["points"])
        assert agreement >= 0.9, agreement

        # policy accounting is visible in the exported snapshot
        (entry,) = server.refresh_policy.snapshot().values()
        assert entry["triggers"] == 1
        assert entry["armed"] is False

    def test_manual_refresh_notifies_policy(self, drift_server,
                                            diag_grown_dataset, query_stream):
        # an operator-initiated refresh counts as the policy's cooldown
        # anchor: immediately-following drifted traffic must not double-fire
        server, path = drift_server
        server.predict(path=path, type_name="points",
                       queries=query_stream(64, seed=500), timeout=_WAIT)
        server.refresh(path, diag_grown_dataset)
        for batch in range(4):
            server.predict(path=path, type_name="points",
                           queries=query_stream(64, shift=_SHIFT,
                                                seed=600 + batch),
                           timeout=_WAIT)
        time.sleep(0.2)  # give a (wrong) trigger the chance to land
        assert server.stats.auto_refreshes == 0
        assert server.stats.refreshes == 1


class TestControlLoopValidation:
    def test_refresh_policy_requires_refresh_data(self):
        with pytest.raises(ValidationError, match="refresh_data"):
            RuntimeServer(workers="serial",
                          refresh_policy=RefreshPolicy(threshold=1.0))

