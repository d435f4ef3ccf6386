"""Blocked-vs-global solver core benchmark for RHCHME (G-side structure).

The blocked core stores G as per-type ``(n_t, c_t)`` blocks and runs the
membership update as per-type kernels; the global path stacks G into one
``(N, C)`` block-diagonal matrix and re-imposes the block mask every
iteration.  Three measurements per total object count N:

* **G-update phase timing** — repeated membership updates (Eq. 21) through
  the global kernel and through the blocked kernel.
* **peak G-side memory** — :mod:`tracemalloc` peak of one membership
  update, global vs blocked.  The stacked path allocates its
  A/B/ratio/mask transients at ``(N, C)``; the blocked path at
  ``(n_t, c_t)`` — an ``n_types×``-and-more reduction that is pure
  structure, no approximation.  Gate: **≥ 2× reduction** at the largest N.
* **in-run parity** — a full blocked ``RHCHME.fit`` against a manually
  driven global-kernel reference loop (same seed, same schedule) on both
  backends; the objective trajectories must agree to **1e-6 relative** or
  the benchmark fails outright, on the principle that a speedup over a
  different optimisation is meaningless.

BLAS threading is pinned to one thread (before numpy loads) so the phase
timing compares the two kernels, not the BLAS pool's scheduling.

Usage::

    PYTHONPATH=src python benchmarks/bench_blocks.py            # full run
    PYTHONPATH=src python benchmarks/bench_blocks.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_blocks.py --check    # gate

Writes ``BENCH_blocks.json`` (see ``--output``).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time  # noqa: E402
import tracemalloc  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from common import (bootstrap_sys_path, emit_report, environment_metadata,  # noqa: E402
                    gate, make_parser, select_sizes)

bootstrap_sys_path()

from repro.core import RHCHME  # noqa: E402
from repro.core.objective import evaluate_objective  # noqa: E402
from repro.core.state import initialize_state  # noqa: E402
from repro.core.updates import (update_association, update_association_blocks,  # noqa: E402
                                update_error_matrix, update_membership,
                                update_membership_blocks)
from repro.linalg.blocks import block_diagonal  # noqa: E402
from repro.linalg.parts import split_parts  # noqa: E402
from repro.manifold.ensemble import HeterogeneousManifoldEnsemble  # noqa: E402
from repro.relational.dataset import MultiTypeRelationalData  # noqa: E402
from repro.relational.types import ObjectType, Relation  # noqa: E402

DEFAULT_SIZES = (1000, 3000)
SMOKE_SIZES = (300,)
N_TYPES = 4
N_CLUSTERS = 8
LAM = 250.0
BETA = 50.0
PARITY_RTOL = 1e-6
PARITY_ITERS = 4


def make_multitype(n_total: int, *, n_types: int = N_TYPES,
                   n_clusters: int = N_CLUSTERS, n_features: int = 10,
                   relation_density: float = 0.05,
                   seed: int = 0) -> MultiTypeRelationalData:
    """A chain of ``n_types`` types with planted co-cluster relations.

    Types are evenly sized; consecutive types share a sparse non-negative
    co-occurrence relation aligned with the planted clusters, which is the
    multi-type shape (3+ types, per-pair relations) the blocked core is
    built for.
    """
    rng = np.random.default_rng(seed)
    base = n_total // n_types
    counts = [base + (1 if t < n_total - base * n_types else 0)
              for t in range(n_types)]
    n_clusters = max(1, min(n_clusters, min(counts)))
    types = []
    assignments = {}
    for t, n_objects in enumerate(counts):
        name = f"type{t}"
        centers = rng.normal(scale=4.0, size=(n_clusters, n_features))
        labels = rng.integers(0, n_clusters, size=n_objects)
        features = centers[labels] + rng.normal(size=(n_objects, n_features))
        assignments[name] = labels
        types.append(ObjectType(name, n_objects=n_objects,
                                n_clusters=n_clusters,
                                features=features, labels=labels))
    relations = []
    for t in range(n_types - 1):
        a, b = f"type{t}", f"type{t + 1}"
        n_a, n_b = counts[t], counts[t + 1]
        co_cluster = (assignments[a][:, None] == assignments[b][None, :])
        matrix = np.where(
            co_cluster & (rng.random((n_a, n_b)) < 4 * relation_density),
            rng.random((n_a, n_b)), 0.0)
        background = rng.random((n_a, n_b)) < relation_density
        matrix = np.maximum(matrix,
                            np.where(background, rng.random((n_a, n_b)), 0.0))
        relations.append(Relation(a, b, matrix))
    return MultiTypeRelationalData(types, relations)


def _prepare(data: MultiTypeRelationalData, *, seed: int):
    """Everything both G-update paths share: L blocks, relations, one state."""
    ensemble = HeterogeneousManifoldEnsemble(use_subspace=False, use_pnn=True,
                                             backend="dense")
    L_blocks = ensemble.build_blocks(data)
    L_parts = [split_parts(block) for block in L_blocks]
    R_pairs = data.relation_blocks(normalize=True, backend="dense")
    pairs = sorted(R_pairs)
    state = initialize_state(data, R_pairs, init="random", random_state=seed)
    state.S = update_association_blocks(R_pairs, state, pairs=pairs)
    return L_blocks, L_parts, R_pairs, pairs, state


def _global_shim(state, R_pairs, L_blocks):
    """Global-path operands: stacked R/L/G and a state-like namespace.

    The shim holds a materialised stacked G so the global kernel's timing
    never pays the blocked state's assemble-on-read adapter.
    """
    L = block_diagonal(L_blocks)
    parts = split_parts(L)
    n = state.object_spec.total
    R = np.zeros((n, n))
    for (t, u), block in R_pairs.items():
        R[state.object_spec.slice(t), state.object_spec.slice(u)] = block
    shim = SimpleNamespace(G=state.G, S=state.S,
                           E_R=np.asarray(state.E_R),
                           object_spec=state.object_spec,
                           cluster_spec=state.cluster_spec)
    return R, L, parts, shim


def time_g_update_phase(data: MultiTypeRelationalData, *, n_iters: int,
                        seed: int) -> dict:
    """Time the membership-update phase: global kernel vs blocked."""
    L_blocks, L_parts, R_pairs, pairs, state = _prepare(data, seed=seed)
    R, L, parts, shim = _global_shim(state, R_pairs, L_blocks)
    initial_blocks = [block.copy() for block in state.G_blocks]

    start = time.perf_counter()
    for _ in range(n_iters):
        shim.G = update_membership(R, L, shim, lam=LAM, parts=parts)
    global_seconds = time.perf_counter() - start

    state.G_blocks = [block.copy() for block in initial_blocks]
    start = time.perf_counter()
    for _ in range(n_iters):
        state.G_blocks = update_membership_blocks(
            R_pairs, L_parts, state, lam=LAM, pairs=pairs)
    blocked_seconds = time.perf_counter() - start

    # Untimed tracemalloc pass (tracemalloc inflates allocation-heavy code):
    # peak additional memory of one update through each path.
    shim.G = block_diagonal(initial_blocks)
    tracemalloc.start()
    update_membership(R, L, shim, lam=LAM, parts=parts)
    _, global_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    state.G_blocks = [block.copy() for block in initial_blocks]
    tracemalloc.start()
    update_membership_blocks(R_pairs, L_parts, state, lam=LAM, pairs=pairs)
    _, blocked_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "n_iters": int(n_iters),
        "global_seconds": round(global_seconds, 6),
        "blocked_seconds": round(blocked_seconds, 6),
        "speedup_blocked_vs_global": round(global_seconds / blocked_seconds, 3),
        "global_peak_bytes": int(global_peak),
        "blocked_peak_bytes": int(blocked_peak),
        "memory_ratio_global_over_blocked": round(
            global_peak / max(blocked_peak, 1), 3),
    }


def check_parity(data: MultiTypeRelationalData, *, backend: str,
                 seed: int) -> dict:
    """Blocked fit vs a manually driven global-kernel reference loop."""
    blocked = RHCHME(max_iter=PARITY_ITERS, random_state=seed, backend=backend,
                     init="random", use_subspace_member=False,
                     track_metrics_every=0, lam=LAM, beta=BETA).fit(data)

    ensemble = HeterogeneousManifoldEnsemble(use_subspace=False, use_pnn=True,
                                             backend=backend)
    L = ensemble.build(data)
    R = data.inter_type_matrix(normalize=True,
                               backend=ensemble.resolved_backend_)
    parts = split_parts(L)
    state = initialize_state(data, R, init="random", random_state=seed)
    objectives = []
    state.S = update_association(R, state)
    objectives.append(evaluate_objective(R, state.G, state.S, state.E_R, L,
                                         lam=LAM, beta=BETA).total)
    for iteration in range(1, PARITY_ITERS + 1):
        if iteration > 1:
            state.S = update_association(R, state)
        state.G = update_membership(R, L, state, lam=LAM, parts=parts)
        state.E_R = update_error_matrix(R, state, beta=BETA)
        objectives.append(evaluate_objective(R, state.G, state.S, state.E_R,
                                             L, lam=LAM, beta=BETA).total)

    reference = np.asarray(objectives)
    trajectory = np.asarray(blocked.trace.objectives)
    gap = float(np.max(np.abs(trajectory - reference)
                       / np.maximum(np.abs(reference), 1e-30)))
    if gap > PARITY_RTOL:
        raise SystemExit(
            f"[bench] FAIL: blocked/global objective parity broken "
            f"(backend={backend}, relative gap {gap:.3e} > {PARITY_RTOL})")
    return {"backend": backend, "iters": PARITY_ITERS,
            "max_relative_gap": gap}


def run(sizes, *, n_iters: int, seed: int) -> dict:
    results = []
    for n_total in sizes:
        data = make_multitype(n_total, seed=seed)
        print(f"[bench] N={n_total} ({N_TYPES} types): G-update phase ...",
              flush=True)
        entry = {"n_total": int(n_total), "n_types": N_TYPES,
                 "g_update": time_g_update_phase(data, n_iters=n_iters,
                                                 seed=seed)}
        entry["parity"] = [check_parity(data, backend=backend, seed=seed)
                           for backend in ("dense", "sparse")]
        results.append(entry)
        phase = entry["g_update"]
        print(f"[bench] N={n_total}: blocked ×{phase['speedup_blocked_vs_global']} "
              f"vs global, G-side memory ×{phase['memory_ratio_global_over_blocked']} smaller, "
              f"parity gap ≤ {max(p['max_relative_gap'] for p in entry['parity']):.1e}",
              flush=True)

    largest = results[-1]
    phase = largest["g_update"]
    return {
        "benchmark": "rhchme-blocks",
        **environment_metadata(),
        "sizes": [int(n) for n in sizes],
        "n_types": N_TYPES,
        "n_clusters_per_type": N_CLUSTERS,
        "lam": LAM,
        "beta": BETA,
        "parity_rtol": PARITY_RTOL,
        "results": results,
        "summary": {
            "largest_n": largest["n_total"],
            "memory_ratio_global_over_blocked":
                phase["memory_ratio_global_over_blocked"],
            "meets_2x_memory_target": bool(
                phase["memory_ratio_global_over_blocked"] >= 2.0),
            "speedup_blocked_vs_global": phase["speedup_blocked_vs_global"],
            "parity_max_relative_gap": max(
                p["max_relative_gap"]
                for entry in results for p in entry["parity"]),
        },
    }


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, "BENCH_blocks.json",
        sizes_help=f"total object counts to benchmark (default {DEFAULT_SIZES})",
        with_check="exit non-zero unless the ≥2× G-side memory reduction "
                   "holds")
    parser.add_argument("--iters", type=int, default=20,
                        help="membership updates per phase timing")
    args = parser.parse_args(argv)

    sizes = select_sizes(args, DEFAULT_SIZES, SMOKE_SIZES)
    report = run(sizes, n_iters=args.iters, seed=args.seed)
    emit_report(report, args)
    summary = report["summary"]
    print(f"[bench] largest N={summary['largest_n']}: G-side memory "
          f"×{summary['memory_ratio_global_over_blocked']} smaller blocked "
          f"(target ≥2: {'PASS' if summary['meets_2x_memory_target'] else 'MISS'}), "
          f"blocked ×{summary['speedup_blocked_vs_global']} vs global, "
          f"parity gap "
          f"{summary['parity_max_relative_gap']:.2e}")
    if args.check:
        return gate(summary["meets_2x_memory_target"],
                    "blocked G-side memory reduction below the 2x gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
