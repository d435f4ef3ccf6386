"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs its
operation in ``measure`` for a given number of seconds, and checks every
output it produces.  ``perfbench/README.md`` records why each workload
exists and which layers it stresses or bypasses.

The workloads call only the public API of ``repro.data``, ``repro.core``,
``repro.serve``, ``repro.runtime``, ``repro.net`` and ``repro.stream``
(plus ``repro.relational`` to assemble the generated star dataset and
``repro.metrics`` to score it).
"""

from __future__ import annotations

import resource
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core import RHCHME, RHCHMEConfig
from repro.data import make_dataset
from repro.exceptions import (QueueFullError, QuotaExceededError, ReproError,
                              ServerDrainingError)
from repro.metrics import clustering_fscore, normalized_mutual_information
from repro.net import NetClient, NetServer
from repro.relational import MultiTypeRelationalData, ObjectType, Relation
from repro.serve import holdout_split
from repro.stream import ObjectLog, open_model_view, refresh_from_log

#: Theorem 1 slack, the same as the repository's own monotonicity test.
OBJECTIVE_RTOL = 1e-6
OBJECTIVE_ATOL = 1e-8
MAX_FAILURE_MESSAGES = 20


def cpu_seconds() -> float:
    """CPU time of this process, all threads, user plus system.

    Time spent waiting for a CPU is not in it, so unlike wall time it does
    not grow when other processes on a shared host take the cores.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Measurement:
    """What one measuring phase produced."""

    latencies: list[float] = field(default_factory=list)
    #: When each operation completed, in seconds from the phase start.
    ends: list[float] = field(default_factory=list)
    #: CPU seconds per operation: one sample per operation, or on
    #: ``serve-http`` one per time window (window CPU over its requests).
    cpu: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: (F-score, NMI) per scored outcome; the run reports their mean.
    scores: list[tuple[float, float]] = field(default_factory=list)
    seconds: float = 0.0

    def note(self, messages: list[str]) -> None:
        """Keep the first ``MAX_FAILURE_MESSAGES`` failure messages."""
        room = max(0, MAX_FAILURE_MESSAGES - len(self.failures))
        self.failures.extend(messages[:room])

    def check(self, problems: list[str]) -> None:
        """Count one failed operation if its checks found any problem."""
        if problems:
            self.failed += 1
            self.note(problems)

    def fail(self, message: str) -> None:
        self.check([message])

    def absorb(self, other: "Measurement") -> None:
        """Add another phase's operations and failures to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.note(other.failures)


# ------------------------------------------------------------------- inputs
def make_star(n_total: int, seed: int) -> MultiTypeRelationalData:
    """A hub type joined to three satellites by CSR relations.

    Each hub row links to ``degree`` objects of every satellite, 80% of
    them in the satellite cluster with the hub row's index; the rest are
    uniform.  ``corrupt_fraction`` of the hub rows are replaced by dense
    noise in every relation — the sample-wise corruption the row-sparse
    error matrix absorbs.  Features are Gaussian blobs per cluster.
    """
    n_clusters, n_features, degree, corrupt_fraction = 5, 32, 30, 0.01
    rng = np.random.default_rng(seed)
    names = ("hub", "terms", "tags", "authors")
    shares = (0.5, 0.2, 0.15, 0.15)
    sizes = [int(n_total * share) for share in shares]
    sizes[0] += n_total - sum(sizes)
    labels = {name: rng.integers(0, n_clusters, size=size)
              for name, size in zip(names, sizes)}
    types = []
    for name, size in zip(names, sizes):
        centers = rng.normal(scale=3.0, size=(n_clusters, n_features))
        features = centers[labels[name]] + rng.normal(size=(size, n_features))
        types.append(ObjectType(name, n_objects=size, n_clusters=n_clusters,
                                features=features, labels=labels[name]))
    n_hub = sizes[0]
    corrupted = rng.choice(n_hub, size=max(1, int(corrupt_fraction * n_hub)),
                           replace=False)
    relations = []
    for name, size in zip(names[1:], sizes[1:]):
        order = np.argsort(labels[name], kind="stable")
        counts = np.bincount(labels[name], minlength=n_clusters)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        rows = np.repeat(np.arange(n_hub), degree)
        cluster = labels["hub"][rows]
        in_cluster = order[starts[cluster]
                           + (rng.random(rows.size) * counts[cluster]).astype(int)]
        cols = np.where(rng.random(rows.size) < 0.8, in_cluster,
                        rng.integers(0, size, size=rows.size))
        values = rng.random(rows.size) + 0.5
        keep = ~np.isin(rows, corrupted)
        noise_rows = np.repeat(corrupted, size)
        noise_cols = np.tile(np.arange(size), corrupted.size)
        matrix = sp.coo_array(
            (np.concatenate([values[keep], 2.0 * rng.random(noise_rows.size)]),
             (np.concatenate([rows[keep], noise_rows]),
              np.concatenate([cols[keep], noise_cols]))),
            shape=(n_hub, size)).tocsr()
        relations.append(Relation("hub", name, matrix))
    return MultiTypeRelationalData(types, relations)


# ------------------------------------------------------------------- checks
def check_fit(result, data: MultiTypeRelationalData) -> list[str]:
    """Theorem 1, feasible G blocks and in-range labels for one fit."""
    problems = []
    objectives = np.asarray(result.trace.objectives, dtype=float)
    if not np.all(np.isfinite(objectives)):
        problems.append("objective trace holds a non-finite value")
    rises = np.diff(objectives) > (np.abs(objectives[:-1]) * OBJECTIVE_RTOL
                                   + OBJECTIVE_ATOL)
    if np.any(rises):
        step = int(np.argmax(rises)) + 1
        problems.append(f"objective increased at iteration {step}: "
                        f"{objectives[step - 1]!r} -> {objectives[step]!r}")
    for object_type, G in zip(data.types, result.state.G_blocks):
        G = np.asarray(G)
        if not np.all(np.isfinite(G)):
            problems.append(f"G block of {object_type.name} is not finite")
        elif np.any(G < 0):
            problems.append(f"G block of {object_type.name} has a negative entry")
        labels = np.asarray(result.labels[object_type.name])
        if labels.shape != (object_type.n_objects,):
            problems.append(f"{object_type.name} has {labels.shape} labels for "
                            f"{object_type.n_objects} objects")
        elif labels.size and (labels.min() < 0
                              or labels.max() >= object_type.n_clusters):
            problems.append(f"{object_type.name} has a label outside "
                            f"[0, {object_type.n_clusters})")
    return problems


def quality(truth, predicted) -> tuple[float, float]:
    """(F-score, NMI) of a labelling against ground truth."""
    return (float(clustering_fscore(truth, predicted)),
            float(normalized_mutual_information(truth, predicted)))


# ---------------------------------------------------------------- workloads
class Workload:
    """Base class: subclasses fill in setup, warmup, op and teardown."""

    name = ""
    setup_repeats = 3
    #: Time windows the measurement is cut into; latency and throughput
    #: are the median over windows, so a burst of load from outside the
    #: benchmark moves one window, not the result.
    windows = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.smoke = smoke
        self.tracer = None
        self._setups = 0

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def unrecorded(self):
        """A block whose calls (correctness checks) the tracer skips."""
        return nullcontext() if self.tracer is None else self.tracer.paused()

    def setup(self, out: Measurement) -> None:
        """Build the inputs (and any server); set-up fits are checked in ``out``."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` started."""

    def warmup(self, out: Measurement) -> None:
        """Fill caches and finish lazy set-up before anything is timed."""
        self.op(out)

    def op(self, out: Measurement) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        """Run operations back to back until ``seconds`` have passed."""
        out = Measurement()
        start = time.perf_counter()
        while True:
            self.op(out)
            out.seconds = time.perf_counter() - start
            out.ends.append(out.seconds)
            if out.seconds >= seconds and self.round_complete():
                return out

    def round_complete(self) -> bool:
        """Whether stopping now leaves every input used equally often."""
        return True


class FitWorkload(Workload):
    """Cold fits, cycling over ``n_datasets`` datasets drawn from the seed.

    Fit time and quality both depend on the drawn dataset (how many
    iterations run, how many clusters survive), so a run fits each of
    several equally often and reports the median time and the mean
    quality; quality is the mean over ``label_types``.
    """

    #: Set-up is only data generation here: cheap, so repeat it more.
    setup_repeats = 5
    n_datasets = 3
    label_types: tuple[str, ...] = ()

    def dataset(self, seed: int) -> MultiTypeRelationalData:
        raise NotImplementedError

    def warmup_dataset(self) -> MultiTypeRelationalData:
        raise NotImplementedError

    def config(self, seed: int) -> RHCHMEConfig:
        raise NotImplementedError

    def setup(self, out: Measurement) -> None:
        seeds = [self.seed * self.n_datasets + index
                 for index in range(self.n_datasets)]
        self.datasets = [(seed, self.dataset(seed)) for seed in seeds]
        self._fits = 0

    def warmup(self, out: Measurement) -> None:
        data = self.warmup_dataset()
        out.attempted += 1
        result = RHCHME(self.config(self.seed)).fit(data)
        out.check([f"warm-up fit: {problem}" for problem in check_fit(result, data)])

    def round_complete(self) -> bool:
        return self._fits % len(self.datasets) == 0

    def op(self, out: Measurement) -> None:
        seed, data = self.datasets[self._fits % len(self.datasets)]
        self._fits += 1
        out.attempted += 1
        model = RHCHME(self.config(seed))
        start, start_cpu = time.perf_counter(), cpu_seconds()
        result = model.fit(data)
        out.latencies.append(time.perf_counter() - start)
        out.cpu.append(cpu_seconds() - start_cpu)
        out.check(check_fit(result, data))
        scores = [quality(data.get_type(name).labels, result.labels[name])
                  for name in self.label_types]
        out.scores.append(tuple(float(np.mean(column))
                                for column in zip(*scores)))


class PaperFit(FitWorkload):
    """Algorithm 2 with the subspace member on, on Table II's r-top10."""

    name = "paper-fit"
    #: A fit takes about 14 s, so a run completes two.
    n_datasets = 2
    #: Table III/IV score documents; their labels are the corpus classes.
    label_types = ("documents",)

    def dataset(self, seed):
        preset = "r-top10-small" if self.smoke else "r-top10"
        return make_dataset(preset, random_state=seed)

    def warmup_dataset(self):
        return make_dataset("r-top10-small", random_state=self.seed)

    def config(self, seed):
        overrides = {"max_iter": 5, "subspace_max_iter": 10} if self.smoke else {}
        return RHCHMEConfig(random_state=seed, **overrides)


def sparse_config(seed: int, **overrides) -> RHCHMEConfig:
    return RHCHMEConfig(backend="sparse", error_row_tol=1e-2,
                        use_subspace_member=False, random_state=seed,
                        **overrides)


class SparseLoop(FitWorkload):
    """The sparse R-space solver loop on a corrupted N=6000 star."""

    name = "sparse-loop"
    #: Each fit's time and score depend on its dataset, so a run fits six
    #: different ones once each rather than three twice each.
    n_datasets = 6
    #: Every type: the fit empties a different number of hub clusters from
    #: seed to seed, so the hub alone swings between score levels.
    label_types = ("hub", "terms", "tags", "authors")

    def dataset(self, seed):
        return make_star(600 if self.smoke else 6000, seed)

    def warmup_dataset(self):
        return make_star(600, self.seed)

    def config(self, seed):
        return sparse_config(seed, **({"max_iter": 5} if self.smoke else {}))


class ServeHttp(Workload):
    """Batch-1 HTTP predicts from two closed-loop keep-alive clients.

    Quality is the served labels' score over the model's own in-sample
    score on the hub, so it measures what serving controls (how well the
    out-of-sample extension carries the fit to new rows), not how many
    hub clusters the set-up fit happened to keep.
    """

    name = "serve-http"
    n_clients = 2
    windows = 5
    #: The served model only needs to be a fitted one; a short fit keeps
    #: set-up (which runs several times per run) affordable.
    setup_fit_iter = 25
    model_id = "star"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.handle = None
        self.expected = None

    def setup(self, out: Measurement) -> None:
        data = make_star(600 if self.smoke else 6000, self.seed)
        split = holdout_split(data, "hub", fraction=0.1,
                              random_state=self.seed)
        config = sparse_config(self.seed,
                               max_iter=5 if self.smoke else self.setup_fit_iter)
        result = RHCHME(config).fit(split.train)
        self.model = result.to_model(split.train, config)
        self._setups += 1
        path = self.model.save(self.workdir / f"model{self._setups}",
                               shards="per-type")
        self.handle = NetServer.launch(models={self.model_id: path})
        self.queries = split.query_features
        self.truth = split.query_labels
        self.fit_scores = quality(split.train.get_type("hub").labels,
                                  result.labels["hub"])
        problems = check_fit(result, split.train)
        if min(self.fit_scores) <= 0.0:
            problems.append("every hub row is in one cluster")
        out.attempted += 1
        out.check([f"set-up fit: {problem}" for problem in problems])

    def teardown(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None

    def warmup(self, out: Measurement) -> None:
        out.absorb(self.measure(0.5 if self.smoke else 1.0))

    def measure(self, seconds: float) -> Measurement:
        if self.expected is None:
            # The in-process answer every HTTP response must equal.
            self.expected = self.model.predict("hub", self.queries).labels
        out = Measurement()
        served = np.full(len(self.queries), -1)
        lock = threading.Lock()
        refused = {"rejected": 0, "errors": 0}
        runtime = self.handle.runtime
        before = runtime.stats
        start = time.perf_counter()
        deadline = start + seconds

        def client(index: int) -> None:
            latencies, ends, problems = [], [], []
            attempted = rejected = errors = 0
            with NetClient(self.handle.host, self.handle.port) as conn:
                row = index
                while time.perf_counter() < deadline:
                    attempted += 1
                    sent = time.perf_counter()
                    try:
                        response = conn.predict(self.model_id, "hub",
                                                self.queries[row:row + 1])
                    except (QuotaExceededError, QueueFullError,
                            ServerDrainingError) as exc:
                        rejected += 1
                        problems.append(f"refused: {exc}")
                    except (ReproError, OSError, HTTPException) as exc:
                        errors += 1
                        problems.append(f"error: {exc}")
                    else:
                        done = time.perf_counter()
                        latencies.append(done - sent)
                        ends.append(done - start)
                        label = int(response.labels[0])
                        served[row] = label
                        if label != self.expected[row]:
                            problems.append(
                                f"query {row}: HTTP label {label} != "
                                f"in-process {self.expected[row]}")
                    row = (row + self.n_clients) % len(self.queries)
            with lock:
                out.latencies.extend(latencies)
                out.ends.extend(ends)
                out.attempted += attempted
                out.failed += len(problems)
                out.note(problems)
                refused["rejected"] += rejected
                refused["errors"] += errors

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(self.n_clients)]
        cpu_marks = [cpu_seconds()]
        for thread in threads:
            thread.start()
        width = seconds / self.windows
        for window in range(1, self.windows + 1):
            time.sleep(max(0.0, start + window * width - time.perf_counter()))
            cpu_marks.append(cpu_seconds())
        for thread in threads:
            thread.join(seconds + 60.0)
            if thread.is_alive():
                out.fail("client thread did not finish")
        out.seconds = time.perf_counter() - start
        # Requests are counted by the window they completed in; the last
        # window also takes the ones that completed after the deadline.
        completed = np.bincount(
            np.minimum((np.asarray(out.ends) / width).astype(int),
                       self.windows - 1), minlength=self.windows)
        out.cpu = [used / count for used, count
                   in zip(np.diff(cpu_marks), completed) if count]
        seen = served >= 0
        if seen.any():
            served_scores = quality(self.truth[seen], served[seen])
            out.scores.append(tuple(score / fitted for score, fitted
                                    in zip(served_scores, self.fit_scores)))
        if self.tracer is not None:
            self._runtime_layers(before, runtime.stats, out.latencies,
                                 refused["rejected"], refused["errors"])
        return out

    def _runtime_layers(self, before, after, latencies: list[float],
                        rejected: int, errors: int) -> None:
        tracer = self.tracer
        in_runtime = tracer.durations("runtime.request")
        if latencies and in_runtime:
            tracer.observe("net.overhead_ms", 1e3 * (
                float(np.mean(latencies)) - float(np.mean(in_runtime))))
        batches = after.batches - before.batches
        tracer.observe("runtime.batches", batches)
        if batches:
            tracer.observe("runtime.batch_rows_mean",
                           (after.objects - before.objects) / batches)
        count = total = 0.0
        for path, stages in after.stages.items():
            now = stages.get("queue.wait")
            if now is None:
                continue
            old = before.stages.get(path, {}).get("queue.wait") or {}
            count += now["count"] - old.get("count", 0)
            total += now["sum_seconds"] - old.get("sum_seconds", 0.0)
        if count:
            tracer.observe("runtime.wait_ms", 1e3 * total / count)
        tracer.observe("net.rejected", rejected)
        tracer.observe("net.errors", errors)


class GrowRefresh(Workload):
    """Log-driven refresh of a multi5 model with held-out documents appended."""

    name = "grow-refresh"
    setup_repeats = 2

    def setup(self, out: Measurement) -> None:
        preset = "multi5-small" if self.smoke else "multi5"
        data = make_dataset(preset, random_state=self.seed)
        split = holdout_split(data, "documents", fraction=0.1,
                              random_state=self.seed)
        self.config = RHCHMEConfig(random_state=self.seed,
                                   **({"max_iter": 5} if self.smoke else {}))
        result = RHCHME(self.config).fit(split.train)
        self.model = result.to_model(split.train, self.config)
        self.train = split.train
        self.new_features = split.query_features
        self.truth = np.concatenate([split.train.get_type("documents").labels,
                                     split.query_labels])
        n_train = split.train.get_type("documents").n_objects
        self.edges = {}
        for other in ("terms", "concepts"):
            block = data.relation_between("documents", other).matrix
            block = sp.coo_array(sp.csr_array(block)[split.query_indices])
            self.edges[other] = (block.row + n_train, block.col, block.data)
        out.attempted += 1
        out.check([f"set-up fit: {problem}"
                   for problem in check_fit(result, split.train)])
        self._cycles = 0

    def op(self, out: Measurement) -> None:
        out.attempted += 1
        self._cycles += 1
        directory = self.workdir / f"cycle{self._cycles}"
        start, start_cpu = time.perf_counter(), cpu_seconds()
        log = ObjectLog.create(directory / "log", self.train)
        base = log.version
        log.append_objects("documents", self.new_features)
        for other, (rows, cols, values) in self.edges.items():
            log.append_edges("documents", other, rows, cols, values)
        outcome = refresh_from_log(self.model, log, since=base)
        path = outcome.model.save(directory / "model", shards="per-type-mmap")
        with self.span("serve.load"):
            view = open_model_view(path)
        try:
            predicted = view.model.predict("documents", self.new_features).labels
            out.latencies.append(time.perf_counter() - start)
            out.cpu.append(cpu_seconds() - start_cpu)
            touched = view.cache_info()
        finally:
            view.close()
        with self.unrecorded():
            expected = outcome.model.predict("documents", self.new_features).labels
            problems = check_fit(outcome.result, log.dataset())
        if not np.array_equal(predicted, expected):
            problems.append(f"mmap view labels differ from the refreshed model "
                            f"on {int(np.sum(predicted != expected))} new documents")
        out.check(problems)
        out.scores.append(quality(self.truth, outcome.model.labels["documents"]))
        if self.tracer is not None:
            self._stream_layers(directory, outcome, touched)
        shutil.rmtree(directory)

    def _stream_layers(self, directory: Path, outcome, touched: dict) -> None:
        tracer = self.tracer
        tracer.observe("stream.append_bytes", sum(
            path.stat().st_size for path in (directory / "log").glob("seg*")))
        tracer.observe("stream.dirty_types", len(outcome.types_touched))
        tracer.observe("serve.save_bytes", sum(
            path.stat().st_size for path in directory.glob("model*")))
        if touched["total_bytes"]:
            tracer.observe("serve.mmap_touched_fraction",
                           (touched["mapped_bytes"] + touched["resident_bytes"])
                           / touched["total_bytes"])


WORKLOADS = {cls.name: cls for cls in (PaperFit, SparseLoop, ServeHttp,
                                       GrowRefresh)}
