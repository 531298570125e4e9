"""Sequential play: all SPE-realizable outcomes, a deterministic backward
induction solver, and the sequential price ratios.

Players commit to buses one at a time following a move order (identity by
default), each seeing only her predecessors' choices but anticipating selfish
successors. `spe_outcomes` computes the exact set of outcomes some
subgame-perfect strategy profile realizes: ties at a decision node keep every
minimizing action alive, and off-path continuations may be chosen adversarially
among surviving ones, which is what the per-node max filter encodes.
"""

from __future__ import annotations

from typing import Sequence

from . import engine
from .core import (
    CostVector,
    Instance,
    Outcome,
    OutcomeSet,
    SocialTag,
    cost_vector,
    evaluate_outcomes,  # unused here; perfbench/tracing.py wraps it at this name
    social_code,
)
from .engine import DEFAULT_OUTCOME_BUDGET, FCODES
from .simultaneous import (
    EquilibriumSummary,
    RatioReport,
    optimal_social,  # unused here; perfbench/tracing.py wraps it at this name
)

DEFAULT_NODE_SET_CAP = 10**6

MoveOrder = tuple[int, ...]


def _resolve_order(inst: Instance, order: Sequence[int] | None) -> MoveOrder:
    if order is None:
        return tuple(range(1, inst.n + 1))
    resolved = tuple(order)
    ints = all(isinstance(p, int) and not isinstance(p, bool) for p in resolved)
    if not ints or sorted(resolved) != list(range(1, inst.n + 1)):
        raise ValueError(f"move order must be a permutation of players 1..{inst.n}, got {resolved}")
    return resolved


def _spe_codes(inst: Instance, order, budget: int, node_set_cap: int):
    order_t = _resolve_order(inst, order)
    view = engine.view_within(inst, budget)
    return view, view.spe(order_t, node_set_cap)


def spe_outcomes(
    inst: Instance,
    order: Sequence[int] | None = None,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    node_set_cap: int = DEFAULT_NODE_SET_CAP,
) -> OutcomeSet:
    """Exactly the outcomes realized by some subgame-perfect strategy profile.

    Never empty: any finite perfect-information game admits at least one such
    profile. Raises `SetOverflowError` when a per-node result set exceeds
    `node_set_cap`.
    """
    view, codes = _spe_codes(inst, order, budget, node_set_cap)
    return OutcomeSet(view, tuple(codes))


def zermelo_outcome(
    inst: Instance,
    order: Sequence[int] | None = None,
    budget: int = DEFAULT_OUTCOME_BUDGET,
) -> tuple[Outcome, CostVector]:
    """One deterministic subgame-perfect outcome via backward induction.

    Every tie breaks toward the lowest-numbered bus, so the result is
    reproducible; it always belongs to `spe_outcomes`.
    """
    order_t = _resolve_order(inst, order)
    view = engine.view_within(inst, budget)
    sigma = view.outcome(view.zermelo(order_t))
    return sigma, cost_vector(inst, sigma)


def spe_summary(
    inst: Instance,
    order: Sequence[int] | None = None,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    node_set_cap: int = DEFAULT_NODE_SET_CAP,
    optimum: tuple[tuple[int, int], ...] | None = None,
) -> EquilibriumSummary:
    """The SPE-realizable outcomes and the optimum of every social function:
    SPE induction, integer statistics of its set, and one kernel pass for the
    optimum unless another summary of `inst` already holds it.
    """
    view, codes = _spe_codes(inst, order, budget, node_set_cap)
    return EquilibriumSummary(view, len(codes), optimum or view.optimum(FCODES), view.stats(codes, FCODES))


def spoa(
    inst: Instance,
    function: SocialTag,
    order: Sequence[int] | None = None,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    node_set_cap: int = DEFAULT_NODE_SET_CAP,
) -> RatioReport:
    """Sequential price of anarchy: worst SPE-outcome value over the optimum."""
    social_code(function)
    return spe_summary(inst, order, budget, node_set_cap).ratio(function, True, "SPoA")


def spos(
    inst: Instance,
    function: SocialTag,
    order: Sequence[int] | None = None,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    node_set_cap: int = DEFAULT_NODE_SET_CAP,
) -> RatioReport:
    """Sequential price of stability: best SPE-outcome value over the optimum."""
    social_code(function)
    return spe_summary(inst, order, budget, node_set_cap).ratio(function, False, "SPoS")
