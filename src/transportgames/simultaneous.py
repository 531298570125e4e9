"""Simultaneous play: outcome enumeration, Nash equilibria, and price ratios.

An outcome is a Nash equilibrium when no single player can *strictly* reduce
her cost by switching buses; cost ties never disqualify an outcome. Ratios
follow the usual definitions: the price of anarchy divides the worst
equilibrium social cost by the optimum, the price of stability the best.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as _bus_relabelings
from itertools import product
from typing import Iterator, NamedTuple, Sequence

from . import _kernel_py, engine
from .core import (
    Instance,
    Outcome,
    OutcomeSet,
    SOCIAL_TAGS,
    SocialTag,
    evaluate_outcomes,
    player_cost,
)
from .errors import BudgetExceededError, DegenerateOptimumError, NoEquilibriumError

DEFAULT_OUTCOME_BUDGET = 10**7

_FCODE = {"D": 0, "E": 1, "U": 2}
FCODES = (0, 1, 2)


def outcome_space_size(inst: Instance) -> int:
    return inst.m**inst.n


def _require_budget(inst: Instance, budget: int) -> None:
    size = outcome_space_size(inst)
    if size > budget:
        raise BudgetExceededError(f"{inst.m}^{inst.n} = {size} outcomes exceed the budget of {budget}")


def _kernel(inst: Instance, budget: int) -> engine.ScaledView:
    """The scaled view the kernels read for `inst`, within the budget."""
    _require_budget(inst, budget)
    return engine.scaled_view(inst)


def _require_tag(function: str) -> SocialTag:
    if function not in SOCIAL_TAGS:
        raise ValueError(f"unknown social function {function!r}, expected one of {SOCIAL_TAGS}")
    return function  # type: ignore[return-value]


def _decode(code: int, n: int, m: int) -> Outcome:
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        code, r = divmod(code, m)
        digits[i] = r + 1
    return tuple(digits)


def enumerate_outcomes(inst: Instance, budget: int = DEFAULT_OUTCOME_BUDGET) -> Iterator[Outcome]:
    """Yield all m^n assignments in lexicographic order (player 1 varies slowest).

    The budget is checked eagerly, before the first outcome is produced.
    """
    _require_budget(inst, budget)
    return iter(product(range(1, inst.m + 1), repeat=inst.n))


class Deviation(NamedTuple):
    """A strictly improving unilateral switch."""

    player: int
    bus: int
    old_cost: Fraction
    new_cost: Fraction


def find_improving_deviation(inst: Instance, sigma: Sequence[int]) -> Deviation | None:
    """First strictly improving switch, scanning players then buses in order."""
    for player in range(1, inst.n + 1):
        current = player_cost(inst, sigma, player)
        moved = list(sigma)
        for bus in range(1, inst.m + 1):
            if bus == sigma[player - 1]:
                continue
            moved[player - 1] = bus
            candidate = player_cost(inst, moved, player)
            if candidate < current:
                return Deviation(player, bus, current, candidate)
        moved[player - 1] = sigma[player - 1]
    return None


def is_nash_equilibrium(inst: Instance, sigma: Sequence[int]) -> bool:
    return find_improving_deviation(inst, sigma) is None


def _reduced_lead(inst: Instance, symmetry_reduction: bool) -> int:
    if not symmetry_reduction:
        return inst.m
    if any(perm != inst.perms[0] for perm in inst.perms):
        raise ValueError("symmetry reduction requires all bus permutations to be equal")
    return 1


def _expand_bus_orbit(m: int, outcomes: Sequence[Outcome]) -> list[Outcome]:
    # Sound whenever all permutations are equal: relabeling buses maps
    # equilibria to equilibria and preserves every social value.
    seen: set[Outcome] = set()
    for sigma in outcomes:
        for relabel in _bus_relabelings(range(1, m + 1)):
            seen.add(tuple(relabel[b - 1] for b in sigma))
    return sorted(seen)


def enumerate_nash(
    inst: Instance,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    symmetry_reduction: bool = False,
) -> OutcomeSet:
    """Exactly the outcomes where no player has a strictly improving switch."""
    view = _kernel(inst, budget)
    lead = _reduced_lead(inst, symmetry_reduction)
    codes = _kernel_py.scan_nash(view.n, view.m, view.dist, view.perms, (), lead, True)[0]
    outcomes = [_decode(c, inst.n, inst.m) for c in codes]
    if lead == 1:
        outcomes = _expand_bus_orbit(inst.m, outcomes)
    return evaluate_outcomes(inst, outcomes)


def optimal_social(
    inst: Instance,
    function: SocialTag,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    symmetry_reduction: bool = False,
) -> tuple[Fraction, Outcome]:
    """Minimum of a social function over all outcomes, with one minimizer.

    Ties resolve to the lexicographically smallest outcome, with or without
    symmetry reduction (see `nash_summary`).
    """
    _require_tag(function)
    view = _kernel(inst, budget)
    lead = _reduced_lead(inst, symmetry_reduction)
    stats = _kernel_py.scan_social(view.n, view.m, view.dist, view.perms, (_FCODE[function],), lead)
    minv, amin, _maxv, _amax = stats[0]
    return view.to_fraction(minv), _decode(amin, inst.n, inst.m)


@dataclass(frozen=True)
class RatioReport:
    """An inefficiency ratio: equilibrium social cost over optimal social cost."""

    measure: str
    function: SocialTag
    equilibrium_value: Fraction
    optimal_value: Fraction
    ratio: Fraction
    equilibrium_witness: Outcome
    optimal_witness: Outcome


@dataclass(frozen=True)
class EquilibriumSummary:
    """An equilibrium set (Nash or SPE) and the optimum, as the scaled integer
    values and outcome codes that reports and ratios read, per social function
    code; they become `Fraction`s and outcomes only when read."""

    view: engine.ScaledView
    count: int
    optimum: tuple[tuple[int, int], ...]  # (min, argmin) over all outcomes
    kept: tuple[tuple[int, int, int, int], ...]  # (min, argmin, max, argmax) over the set

    def read(self, function: SocialTag, which: str) -> tuple[Fraction, Outcome]:
        """Value and first witness of the "optimal" outcome or of the set's "best" or "worst"."""
        code = _FCODE[function]
        minv, amin, maxv, amax = self.kept[code]
        value, witness = {"optimal": self.optimum[code], "best": (minv, amin), "worst": (maxv, amax)}[which]
        return self.view.to_fraction(value), _decode(witness, self.view.n, self.view.m)

    def ratio(self, function: SocialTag, worst: bool, measure: str) -> RatioReport:
        if self.count == 0:
            raise NoEquilibriumError("the instance has no Nash equilibrium")
        optimal_value, optimal_witness = self.read(function, "optimal")
        if optimal_value == 0:
            raise DegenerateOptimumError(f"optimal {function} is zero; the ratio is undefined")
        value, witness = self.read(function, "worst" if worst else "best")
        return RatioReport(measure, function, value, optimal_value, value / optimal_value, witness, optimal_witness)


def nash_summary(
    inst: Instance,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    symmetry_reduction: bool = False,
) -> EquilibriumSummary:
    """The Nash equilibria and the optimum of every social function, from one
    kernel pass.

    Symmetry reduction scans only the outcomes with player 1 on bus 1.
    Relabeling buses maps equilibria to equilibria and keeps every value, so
    player 1's bus splits the equilibria evenly (the count is m times the
    scanned one), and the first outcome of each relabeling orbit, where ties
    resolve, has player 1 on bus 1.
    """
    view = _kernel(inst, budget)
    lead = _reduced_lead(inst, symmetry_reduction)
    _codes, count, optimum, kept = _kernel_py.scan_nash(view.n, view.m, view.dist, view.perms, FCODES, lead, False)
    return EquilibriumSummary(view, count * (inst.m // lead), optimum, kept)


def poa(
    inst: Instance,
    function: SocialTag,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    symmetry_reduction: bool = False,
) -> RatioReport:
    """Price of anarchy: worst Nash equilibrium value over the optimum."""
    _require_tag(function)
    return nash_summary(inst, budget, symmetry_reduction).ratio(function, True, "PoA")


def pos(
    inst: Instance,
    function: SocialTag,
    budget: int = DEFAULT_OUTCOME_BUDGET,
    symmetry_reduction: bool = False,
) -> RatioReport:
    """Price of stability: best Nash equilibrium value over the optimum."""
    _require_tag(function)
    return nash_summary(inst, budget, symmetry_reduction).ratio(function, False, "PoS")
