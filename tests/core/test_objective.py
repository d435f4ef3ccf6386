"""Tests for repro.core.objective."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objective import evaluate_objective
from repro.linalg.norms import frobenius_norm, l21_norm, trace_quadratic


class TestEvaluateObjective:
    def _random_factors(self, seed=0, n=10, c=4):
        rng = np.random.default_rng(seed)
        R = rng.random((n, n))
        R = (R + R.T) / 2
        G = rng.random((n, c))
        S = rng.random((c, c))
        E = rng.normal(size=(n, n)) * 0.1
        L = rng.random((n, n))
        L = (L + L.T) / 2
        return R, G, S, E, L

    def test_matches_direct_formula(self):
        R, G, S, E, L = self._random_factors()
        lam, beta = 2.5, 1.5
        breakdown = evaluate_objective(R, G, S, E, L, lam=lam, beta=beta)
        expected_recon = frobenius_norm(R - G @ S @ G.T - E) ** 2
        assert breakdown.reconstruction == pytest.approx(expected_recon)
        assert breakdown.error_sparsity == pytest.approx(beta * l21_norm(E))
        assert breakdown.graph_smoothness == pytest.approx(lam * trace_quadratic(G, L))
        assert breakdown.total == pytest.approx(
            expected_recon + beta * l21_norm(E) + lam * trace_quadratic(G, L))

    def test_zero_error_matrix_has_zero_sparsity_term(self):
        R, G, S, _, L = self._random_factors(1)
        breakdown = evaluate_objective(R, G, S, np.zeros_like(R), L, lam=1.0, beta=5.0)
        assert breakdown.error_sparsity == 0.0

    def test_perfect_factorisation_has_zero_reconstruction(self):
        rng = np.random.default_rng(2)
        G = rng.random((8, 3))
        S = rng.random((3, 3))
        R = G @ S @ G.T
        breakdown = evaluate_objective(R, G, S, np.zeros_like(R),
                                       np.zeros_like(R), lam=1.0, beta=1.0)
        assert breakdown.reconstruction == pytest.approx(0.0, abs=1e-18)

    def test_terms_nonnegative_for_laplacian_regularizer(self):
        from repro.graph.laplacian import unnormalized_laplacian
        rng = np.random.default_rng(3)
        R = rng.random((6, 6))
        G = rng.random((6, 2))
        S = rng.random((2, 2))
        E = rng.normal(size=(6, 6))
        affinity = rng.random((6, 6))
        affinity = (affinity + affinity.T) / 2
        np.fill_diagonal(affinity, 0)
        L = unnormalized_laplacian(affinity)
        breakdown = evaluate_objective(R, G, S, E, L, lam=3.0, beta=2.0)
        assert breakdown.reconstruction >= 0
        assert breakdown.error_sparsity >= 0
        assert breakdown.graph_smoothness >= -1e-9


class TestEvaluateObjectiveBlocks:
    def test_default_pairs_match_global_with_error_only_block(self):
        """Error mass on a relation-free pair still counts by default."""
        import scipy.linalg
        from repro.core.objective import evaluate_objective_blocks
        from repro.core.state import initialize_state
        from repro.graph.laplacian import unnormalized_laplacian
        from repro.relational.dataset import MultiTypeRelationalData
        from repro.relational.types import ObjectType, Relation

        # A star a-b, a-c leaves the (b, c) pair with no observed relation.
        rng = np.random.default_rng(0)
        sizes = {"a": 20, "b": 15, "c": 12}
        types = [ObjectType(name, n_objects=n, n_clusters=3)
                 for name, n in sizes.items()]
        data = MultiTypeRelationalData(
            types, [Relation("a", "b", rng.random((20, 15))),
                    Relation("a", "c", rng.random((20, 12)))])
        R_pairs = data.relation_blocks(normalize=True)
        state = initialize_state(data, R_pairs, init="random",
                                 random_state=0)
        spec = state.object_spec
        t, u = 1, 2
        assert (t, u) not in R_pairs
        E_R = np.zeros((spec.total, spec.total))
        E_R[spec.slice(t), spec.slice(u)] = 0.05 * rng.random(
            (sizes["b"], sizes["c"]))
        state.E_R = E_R
        L_blocks = []
        for n in sizes.values():
            affinity = rng.random((n, n))
            affinity = (affinity + affinity.T) / 2
            np.fill_diagonal(affinity, 0.0)
            L_blocks.append(unnormalized_laplacian(affinity))

        lam, beta = 2.0, 3.0
        blocked = evaluate_objective_blocks(R_pairs, state, L_blocks,
                                            lam=lam, beta=beta)
        reference = evaluate_objective(
            data.inter_type_matrix(normalize=True), state.G, state.S,
            state.E_R, scipy.linalg.block_diag(*L_blocks), lam=lam,
            beta=beta)
        for term in ("reconstruction", "error_sparsity", "graph_smoothness"):
            assert getattr(blocked, term) == pytest.approx(
                getattr(reference, term), rel=1e-10)
