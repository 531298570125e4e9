"""Exception hierarchy shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One structural defect found while validating raw instance data."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class TransportGameError(Exception):
    """Base class for every error raised by this package."""


class MalformedInstanceError(TransportGameError):
    """Raw instance data failed validation; carries all violations found."""

    def __init__(self, violations) -> None:
        self.violations: tuple[Violation, ...] = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations) or "invalid instance")


class BudgetExceededError(TransportGameError):
    """The outcome space is larger than the configured enumeration budget."""


class SetOverflowError(TransportGameError):
    """A per-node result set grew beyond the configured cap."""


class NoEquilibriumError(TransportGameError):
    """The instance has no Nash equilibrium, so the ratio is undefined."""


class DegenerateOptimumError(TransportGameError):
    """The optimal social cost is zero, so the ratio is undefined."""


class DisconnectedGraphError(TransportGameError):
    """Shortest-path closure is impossible: some vertex pair is unreachable."""


class ParameterDomainError(TransportGameError, ValueError):
    """A generator parameter lies outside its documented domain."""


class NonPositiveParameterError(ParameterDomainError):
    """A parameter that must be strictly positive is zero or negative."""


class PlayerOutOfRangeError(TransportGameError, IndexError):
    """Player index outside 1..n."""


class BusOutOfRangeError(TransportGameError, IndexError):
    """Bus index outside 1..m."""
