"""Delta scheduling of the blocked solver — which blocks a refit recomputes.

The blocked core (PR 5) decomposed Algorithm 2 into independent per-type
and per-pair kernels; growth made that a *scheduling* problem: when only
one of T types received new objects, the other types' ``G_t`` blocks, the
pairs among them and their ``E_R`` rows are already at (or within noise
of) their fixed point, so recomputing them every iteration buys nothing.

:class:`DirtySet` is the caller-facing declaration — the *names* of the
object types whose data changed (new rows appended, relations touched,
drift detected).  :class:`DeltaSchedule` resolves it against a concrete
fit (type order plus the active relation pairs) into the index sets the
kernels consume:

``dirty_types``
    Types whose ``G_t`` block is re-optimised.  Every other block is
    frozen at its warm-start value — ``update_membership_blocks`` never
    touches it.
``dirty_pairs``
    Ordered active pairs with at least one dirty endpoint.  Only these
    recompute their ``S_tu`` block (clean blocks carry over from the
    warm-start association) and their reconstruction term.
``error_types``
    Row types whose ``E_R`` rows must be recomputed: a row's L2,1 norm
    spans *all* of its cross-type blocks, so any type with at least one
    dirty pair re-solves its whole row block; fully clean row types
    splice their previous rows through unchanged.

Freezing clean blocks turns the refit's per-iteration cost from
``O(all types + all pairs)`` into ``O(dirty neighbourhood)``.  The
trade-off is explicit: frozen blocks stop tracking the moving factors of
their dirty neighbours within the refresh, which is exactly the
approximation a periodic ``full_sweep_every`` iteration repairs — on a
sweep iteration every kernel runs unrestricted, pulling the whole state
back onto the joint optimisation path.

``dirty=None`` remains the correctness escape hatch throughout the
stack: without a schedule every code path is byte-for-byte the full
refit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ValidationError

__all__ = ["DirtySet", "DeltaSchedule"]


@dataclass(frozen=True)
class DirtySet:
    """Declaration of which object types' data changed since the last fit.

    Attributes
    ----------
    types:
        Names of the dirty object types.  May be empty — an empty dirty
        set makes the refit a (cheap) no-op that re-records the objective
        and converges immediately.
    full_sweep_every:
        Every k-th iteration runs unrestricted (all types, all pairs),
        bounding the drift frozen blocks can accumulate against their
        moving neighbours.  ``0`` (default) never sweeps.
    """

    types: frozenset[str] = field(default_factory=frozenset)
    full_sweep_every: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "types",
                           frozenset(str(name) for name in self.types))
        if self.full_sweep_every < 0:
            raise ValidationError(
                f"full_sweep_every must be >= 0, got {self.full_sweep_every}")

    # ------------------------------------------------------------ builders
    @classmethod
    def from_growth(cls, grown, *, full_sweep_every: int = 0) -> "DirtySet":
        """Dirty set from a per-type growth delta (``{name: n_new}``)."""
        return cls(types=frozenset(name for name, count in dict(grown).items()
                                   if count > 0),
                   full_sweep_every=full_sweep_every)

    # ------------------------------------------------------------- algebra
    def __or__(self, other: "DirtySet") -> "DirtySet":
        if not isinstance(other, DirtySet):
            return NotImplemented
        return DirtySet(types=self.types | other.types,
                        full_sweep_every=max(self.full_sweep_every,
                                             other.full_sweep_every))

    @property
    def is_empty(self) -> bool:
        return not self.types

    def resolve(self, type_names) -> frozenset[int]:
        """Map the dirty names onto a fit's type order (validating them)."""
        order = {name: index for index, name in enumerate(type_names)}
        unknown = sorted(self.types - set(order))
        if unknown:
            raise ValidationError(
                f"dirty set names unknown object types {unknown}; the "
                f"dataset has {list(type_names)}")
        return frozenset(order[name] for name in self.types)

    def describe(self) -> dict:
        """JSON-safe summary recorded in fit extras and refresh telemetry."""
        return {"types": sorted(self.types),
                "full_sweep_every": int(self.full_sweep_every)}


class DeltaSchedule:
    """A :class:`DirtySet` resolved against one fit's concrete structure.

    Parameters
    ----------
    dirty:
        The caller's dirty-type declaration.
    type_names:
        The dataset's type order (index space of the blocked kernels).
    pairs:
        The fit's active ordered relation pairs (the output of
        :func:`repro.core.updates.active_relation_pairs`).
    """

    def __init__(self, dirty: DirtySet, type_names, pairs, *,
                 track_errors: bool = True) -> None:
        self.dirty = dirty
        self.type_names = [str(name) for name in type_names]
        self.n_types = len(self.type_names)
        self.dirty_types = dirty.resolve(self.type_names)
        self.dirty_pairs = frozenset(
            pair for pair in pairs
            if pair[0] in self.dirty_types or pair[1] in self.dirty_types)
        # A row type's L2,1 norm couples all of its cross-type blocks, so
        # one dirty pair dirties the type's entire E_R row block.  With
        # the error matrix ablated (``use_error_matrix=False``) E_R is
        # identically zero and never updated, so the coupling is vacuous:
        # tracking it would re-evaluate every objective pair that merely
        # shares a row type with the dirty neighbourhood.
        self.error_types = (frozenset(pair[0] for pair in self.dirty_pairs)
                            if track_errors else frozenset())
        self.full_sweep_every = int(dirty.full_sweep_every)

    # ----------------------------------------------------------- iteration
    def sweep(self, iteration: int) -> bool:
        """Whether ``iteration`` is an unrestricted full-sweep iteration."""
        return (self.full_sweep_every > 0
                and iteration % self.full_sweep_every == 0)

    @property
    def laplacian_types(self) -> tuple[int, ...]:
        """Types whose Laplacian block the fit builds (and smooths over).

        Without sweeps only dirty types ever run a G update, so only their
        ``L_t`` blocks are built — the clean types' smoothness terms are a
        constant the trace simply omits.  With sweeps every block is
        needed.
        """
        if self.full_sweep_every > 0:
            return tuple(range(self.n_types))
        return tuple(sorted(self.dirty_types))

    @property
    def objective_pairs(self) -> frozenset:
        """Pairs whose reconstruction term changes between iterations.

        A pair's term moves when its ``S_tu``/``G`` factors move (a dirty
        endpoint) or when its ``E_tu`` rows were re-shrunk (a row type
        with any dirty pair re-solves its whole row block).
        """
        return self.dirty_pairs | frozenset(
            (t, u) for t in self.error_types
            for u in range(self.n_types)
            if t != u)

    def describe(self) -> dict:
        """JSON-safe schedule summary (fit extras)."""
        return {
            "dirty": self.dirty.describe(),
            "dirty_types": sorted(self.type_names[t]
                                  for t in self.dirty_types),
            "error_types": sorted(self.type_names[t]
                                  for t in self.error_types),
            "n_dirty_pairs": len(self.dirty_pairs),
            "full_sweep_every": self.full_sweep_every,
        }
