"""Sequential play: all SPE-realizable outcomes, a deterministic backward
induction solver, an exhaustive strategy-profile oracle, and the sequential
price ratios.

Players commit to buses one at a time following a move order (identity by
default), each seeing only her predecessors' choices but anticipating selfish
successors. `spe_outcomes` computes the exact set of outcomes some
subgame-perfect strategy profile realizes: ties at a decision node keep every
minimizing action alive, and off-path continuations may be chosen adversarially
among surviving ones, which is what the per-node max filter encodes.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from . import _kernel_py, engine
from .core import (
    CostVector,
    Instance,
    Outcome,
    OutcomeSet,
    SocialTag,
    cost_vector,
    evaluate_outcomes,
    social_code,
)
from .errors import OracleBudgetExceededError
from .simultaneous import (
    DEFAULT_OUTCOME_BUDGET,
    FCODES,
    EquilibriumSummary,
    RatioReport,
    _kernel,
    optimal_social,  # unused here; perfbench/tracing.py wraps it at this name
)

DEFAULT_NODE_SET_CAP = 10**6
DEFAULT_ORACLE_BUDGET = 2_000_000

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
    view = _kernel(inst, budget)
    codes = _kernel_py.spe_codes(view.n, view.m, view.dist, view.perms, tuple(p - 1 for p in order_t), node_set_cap)
    return view, codes


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
    view = _kernel(inst, budget)
    code = _kernel_py.zermelo_code(view.n, view.m, view.dist, view.perms, tuple(p - 1 for p in order_t))
    sigma = view.outcome(code)
    return sigma, cost_vector(inst, sigma)


def oracle_profile_count(inst: Instance) -> int:
    """Number of strategy profiles the oracle enumerates: prod_k m^(m^k)."""
    total = 1
    for k in range(inst.n):
        total *= inst.m ** (inst.m**k)
    return total


def spe_oracle(
    inst: Instance,
    order: Sequence[int] | None = None,
    profile_budget: int = DEFAULT_ORACLE_BUDGET,
) -> OutcomeSet:
    """Brute-force reference: enumerate every strategy profile and keep the
    subgame-perfect ones, returning their realized outcomes.

    A profile passes when at every prefix the prescribed action minimizes the
    mover's continuation cost against single-action deviations (the one-shot
    deviation property). Deliberately independent of `spe_outcomes` and kept
    in plain Python; only viable for tiny games.
    """
    order_t = _resolve_order(inst, order)
    n, m = inst.n, inst.m
    total_profiles = 1
    for k in range(n):
        total_profiles *= m ** (m**k)
        if total_profiles > profile_budget:
            raise OracleBudgetExceededError(
                f"{total_profiles}+ strategy profiles exceed the oracle budget of {profile_budget}"
            )

    view = engine.scaled_view(inst)
    dist, perms = view.dist, view.perms
    width = n + 1
    order0 = [p - 1 for p in order_t]
    rank = [[0] * n for _ in range(m)]
    for j in range(m):
        for pos in range(n):
            rank[j][perms[j * n + pos]] = pos

    def cost_on(sig: list[int], player: int) -> int:
        b = sig[player]
        acc = 0
        cur = player * width
        base = b * n
        for pos in range(rank[b][player] + 1, n):
            q = perms[base + pos]
            if sig[q] == b:
                acc += dist[cur + q]
                cur = q * width
        return acc + dist[cur + n]

    sizes = [m**k for k in range(n)]
    offsets = [0] * n
    for k in range(1, n):
        offsets[k] = offsets[k - 1] + sizes[k - 1]
    total_entries = offsets[-1] + sizes[-1]

    def outcome_from(table, stage: int, prefix_code: int, action: int) -> list[int]:
        sig = [0] * n
        c = prefix_code
        for s in range(stage - 1, -1, -1):
            c, r = divmod(c, m)
            sig[order0[s]] = r
        sig[order0[stage]] = action
        cur = prefix_code * m + action
        for s in range(stage + 1, n):
            act = table[offsets[s] + cur]
            sig[order0[s]] = act
            cur = cur * m + act
        return sig

    realized: set[Outcome] = set()
    for table in product(range(m), repeat=total_entries):
        ok = True
        # Deepest stages first: cheapest checks with the highest rejection rate.
        for stage in range(n - 1, -1, -1):
            mover = order0[stage]
            for prefix_code in range(sizes[stage]):
                a_star = table[offsets[stage] + prefix_code]
                base = cost_on(outcome_from(table, stage, prefix_code, a_star), mover)
                for a in range(m):
                    if a == a_star:
                        continue
                    if cost_on(outcome_from(table, stage, prefix_code, a), mover) < base:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            sig = outcome_from(table, 0, 0, table[0])
            realized.add(tuple(b + 1 for b in sig))
    return evaluate_outcomes(inst, realized)


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
    n, m, dist, perms = view.n, view.m, view.dist, view.perms
    if optimum is None:
        optimum = tuple(stats[:2] for stats in _kernel_py.scan_social(n, m, dist, perms, FCODES, view.lead))
    return EquilibriumSummary(view, len(codes), optimum, _kernel_py.code_stats(n, m, dist, perms, FCODES, codes))


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
