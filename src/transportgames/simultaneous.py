"""Simultaneous play: outcome enumeration, Nash equilibria, and price ratios.

An outcome is a Nash equilibrium when no single player can *strictly* reduce
her cost by switching buses; cost ties never disqualify an outcome. Ratios
follow the usual definitions: the price of anarchy divides the worst
equilibrium social cost by the optimum, the price of stability the best.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple, Sequence

from . import engine
from .core import (
    Instance,
    Outcome,
    OutcomeSet,
    SocialTag,
    evaluate_outcomes,  # unused here; perfbench/tracing.py wraps it at this name
    player_cost,
    social_code,
)
from .engine import DEFAULT_OUTCOME_BUDGET
from .errors import DegenerateOptimumError, NoEquilibriumError


def enumerate_outcomes(inst: Instance, budget: int = DEFAULT_OUTCOME_BUDGET) -> Iterator[Outcome]:
    """Yield all m^n assignments in lexicographic order (player 1 varies slowest).

    The budget is checked eagerly, before the first outcome is produced.
    """
    engine.view_within(inst, budget)
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


def enumerate_nash(
    inst: Instance,
    budget: int = DEFAULT_OUTCOME_BUDGET,
) -> OutcomeSet:
    """Exactly the outcomes where no player has a strictly improving switch."""
    view = engine.view_within(inst, budget)
    return OutcomeSet(view, tuple(view.nash_codes()))


def optimal_social(
    inst: Instance,
    function: SocialTag,
    budget: int = DEFAULT_OUTCOME_BUDGET,
) -> tuple[Fraction, Outcome]:
    """Minimum of a social function over all outcomes, with one minimizer.

    Ties resolve to the lexicographically smallest outcome. When the buses
    share one pickup order, the scan covers only the outcomes with player 1
    on bus 1, and that outcome is among them (see `engine.ScaledView.nash`).
    """
    code = social_code(function)
    view = engine.view_within(inst, budget)
    minv, amin = view.optimum((code,))[0]
    return view.to_fraction(minv), view.outcome(amin)


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
        code = social_code(function)
        minv, amin, maxv, amax = self.kept[code]
        value, witness = {"optimal": self.optimum[code], "best": (minv, amin), "worst": (maxv, amax)}[which]
        return self.view.to_fraction(value), self.view.outcome(witness)

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
) -> EquilibriumSummary:
    """The Nash equilibria and the optimum of every social function, from one
    kernel pass (`engine.ScaledView.nash`)."""
    view = engine.view_within(inst, budget)
    return EquilibriumSummary(view, *view.nash())


def poa(
    inst: Instance,
    function: SocialTag,
    budget: int = DEFAULT_OUTCOME_BUDGET,
) -> RatioReport:
    """Price of anarchy: worst Nash equilibrium value over the optimum."""
    social_code(function)
    return nash_summary(inst, budget).ratio(function, True, "PoA")


def pos(
    inst: Instance,
    function: SocialTag,
    budget: int = DEFAULT_OUTCOME_BUDGET,
) -> RatioReport:
    """Price of stability: best Nash equilibrium value over the optimum."""
    social_code(function)
    return nash_summary(inst, budget).ratio(function, False, "PoS")
