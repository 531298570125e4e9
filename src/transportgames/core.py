"""Exact game model: instances, bus routes, player costs, and social costs.

Every numeric quantity at the API boundary is a `fractions.Fraction`; inside
the structural and metric checks the distances are common-denominator integers
(`scaled_rows`). Either way cost comparisons, and in particular tie detection
inside the equilibrium engines, are exact.

The cost functions here (`player_cost`, `cost_vector`, `social_cost`, ...) are
the definitions, read one outcome at a time. An `OutcomeSet` holds the
kernels' codes instead and takes its extremes from their integer statistics
(`_kernel_py.code_stats`), the same routine the analysis summaries use.

Conventions used throughout the package:

* players are labelled ``1..n``; the shared destination is the string ``"t"``;
* ``dist`` is the ``(n+1) x (n+1)`` symmetric distance matrix whose row/column
  ``i-1`` belongs to player ``i`` and whose last row/column belongs to the
  destination;
* an *outcome* is a tuple of ``n`` bus indices in ``1..m`` (entry ``i-1`` is
  the bus chosen by player ``i``);
* each bus visits its subscribed players in the order induced by its pickup
  permutation, skipping everyone else, and ends at the destination.

All functions here are pure; instances are immutable and hashable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence

from . import _kernel_py
from .errors import (
    BusOutOfRangeError,
    MalformedInstanceError,
    PlayerOutOfRangeError,
    Violation,
)

if TYPE_CHECKING:
    from .engine import ScaledView

SocialTag = Literal["D", "E", "U"]
SOCIAL_TAGS: tuple[SocialTag, ...] = ("D", "E", "U")

DESTINATION = "t"

Outcome = tuple[int, ...]
CostVector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


def to_fraction(value: object, where: str = "") -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a ``"p/q"`` string.

    Floats are rejected: they would silently corrupt tie detection. Every
    failure is a `ValueError`; a zero denominator's message puts `where`
    (say ``" at (0, 1)"``) before the value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator{where}: {value!r}") from None
    raise ValueError(f"not an exact rational: {value!r}")


def rational_repr(value: Fraction) -> int | str:
    """Render a rational for the instance file format (int when integral)."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def scaled_rows(matrix: Sequence[Sequence[Fraction | None]]) -> tuple[int, list[list[int | None]]]:
    """Common-denominator form ``(scale, rows)`` of a rational matrix.

    `scale` is the lcm of the denominators and ``rows[i][j] == matrix[i][j] * scale``;
    ``None`` entries stay ``None``.
    """
    scale = lcm(*{x.denominator for row in matrix for x in row if x is not None})
    return scale, [[None if x is None else x.numerator * (scale // x.denominator) for x in row] for row in matrix]


def _triangle_witness(rows: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """First ordered triple (x, y, w) of matrix indices with d(x,w) > d(x,y) + d(y,w),
    checked on the integer rows of `scaled_rows`."""
    size = len(rows)
    for x in range(size):
        row = rows[x]
        for y in range(size):
            if y == x:
                continue
            via = row[y]
            drow = rows[y]
            for w in range(size):
                if row[w] > via + drow[w] and w != x and w != y:
                    return (x, y, w)
    return None


def instance_violations(
    n: object,
    m: object,
    dist: Sequence[Sequence[Fraction]],
    perms: Sequence[Sequence[int]],
    declared_metric: object,
) -> list[Violation]:
    """Collect every structural defect; an empty list means the data is sound."""
    out: list[Violation] = []
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        out.append(Violation("player-count", f"n must be an integer >= 1, got {n!r}"))
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        out.append(Violation("bus-count", f"m must be an integer >= 2, got {m!r}"))
    if out:
        return out

    size = n + 1
    if len(dist) != size or any(len(row) != size for row in dist):
        out.append(
            Violation(
                "dimension-mismatch",
                f"distance matrix must be {size}x{size} (players 1..{n} plus the destination)",
            )
        )
    else:
        _, rows = scaled_rows(dist)
        for i in range(size):
            if rows[i][i] != 0:
                out.append(Violation("nonzero-diagonal", f"dist[{i}][{i}] = {dist[i][i]} != 0"))
        for i in range(size):
            for j in range(i + 1, size):
                if rows[i][j] != rows[j][i]:
                    out.append(
                        Violation(
                            "asymmetry",
                            f"dist[{i}][{j}] = {dist[i][j]} differs from dist[{j}][{i}] = {dist[j][i]}",
                        )
                    )
        for i in range(size):
            for j in range(size):
                if rows[i][j] < 0:
                    out.append(Violation("negative-distance", f"dist[{i}][{j}] = {dist[i][j]} < 0"))

    if len(perms) != m:
        out.append(Violation("permutation-count", f"expected {m} pickup permutations, got {len(perms)}"))
    for j, perm in enumerate(perms, start=1):
        # Compared with 1..n only at length n, so memory follows the data, not the declared n.
        # Entries must be ints: a float or bool equal to an index would pass the set test.
        ints = all(isinstance(p, int) and not isinstance(p, bool) for p in perm)
        if len(perm) != n or not ints or set(perm) != set(range(1, n + 1)):
            out.append(
                Violation("not-a-permutation", f"permutation of bus {j} is not a bijection on 1..{n}: {tuple(perm)}")
            )

    if declared_metric not in (None, True, False):
        out.append(Violation("bad-metric-flag", f"metric flag must be a boolean, got {declared_metric!r}"))
    elif declared_metric is True and not out:  # no violation yet, so `rows` is square
        witness = _triangle_witness(rows)
        if witness is not None:
            x, y, w = witness
            out.append(
                Violation(
                    "metric-mismatch",
                    f"declared metric but d({x},{w}) > d({x},{y}) + d({y},{w})",
                )
            )
    return out


@dataclass(frozen=True)
class Instance:
    """A transportation game: players on a complete graph plus fixed bus pickup orders.

    Construction validates the data and raises `MalformedInstanceError` listing
    every violation, so an `Instance` in hand is always structurally sound.
    """

    n: int
    m: int
    dist: Matrix
    perms: tuple[tuple[int, ...], ...]
    declared_metric: bool | None = None

    def __post_init__(self) -> None:
        dist = tuple(tuple(to_fraction(x) for x in row) for row in self.dist)
        perms = tuple(tuple(perm) for perm in self.perms)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "perms", perms)
        violations = instance_violations(self.n, self.m, dist, perms, self.declared_metric)
        if violations:
            raise MalformedInstanceError(violations)

    @property
    def t_index(self) -> int:
        """Row/column of the destination inside `dist`."""
        return self.n

    def vertices(self) -> tuple[int | str, ...]:
        return tuple(range(1, self.n + 1)) + (DESTINATION,)

    def _vertex(self, label: int | str) -> int:
        if label == DESTINATION:
            return self.n
        if isinstance(label, int) and not isinstance(label, bool) and 1 <= label <= self.n:
            return label - 1
        raise PlayerOutOfRangeError(f"unknown vertex {label!r}")

    def d(self, u: int | str, v: int | str) -> Fraction:
        """Distance between two vertices (player index or DESTINATION)."""
        return self.dist[self._vertex(u)][self._vertex(v)]


class MetricCheck(NamedTuple):
    is_metric: bool
    witness: tuple[int | str, int | str, int | str] | None


def check_metric(inst: Instance) -> MetricCheck:
    """Exhaustive triangle-inequality check over all ordered vertex triples.

    Returns ``(True, None)`` for (pseudo-)metric instances, otherwise
    ``(False, (x, y, w))`` with the first triple where d(x,w) > d(x,y) + d(y,w).
    """
    raw = _triangle_witness(scaled_rows(inst.dist)[1])
    if raw is None:
        return MetricCheck(True, None)
    labels = inst.vertices()
    x, y, w = raw
    return MetricCheck(False, (labels[x], labels[y], labels[w]))


def _check_outcome(inst: Instance, sigma: Sequence[int]) -> None:
    if len(sigma) != inst.n:
        raise ValueError(f"outcome has {len(sigma)} entries, expected {inst.n}")
    for i, bus in enumerate(sigma, start=1):
        if not isinstance(bus, int) or isinstance(bus, bool) or not 1 <= bus <= inst.m:
            raise BusOutOfRangeError(f"player {i} assigned to bus {bus!r}, valid buses are 1..{inst.m}")


def _check_player(inst: Instance, player: int) -> None:
    if not isinstance(player, int) or isinstance(player, bool) or not 1 <= player <= inst.n:
        raise PlayerOutOfRangeError(f"player {player!r} outside 1..{inst.n}")


def _check_bus(inst: Instance, bus: int) -> None:
    if not isinstance(bus, int) or isinstance(bus, bool) or not 1 <= bus <= inst.m:
        raise BusOutOfRangeError(f"bus {bus!r} outside 1..{inst.m}")


def bus_route(inst: Instance, sigma: Sequence[int], bus: int) -> tuple[int, ...]:
    """Players picked up by `bus` under `sigma`, in pickup order (may be empty)."""
    _check_outcome(inst, sigma)
    _check_bus(inst, bus)
    return tuple(p for p in inst.perms[bus - 1] if sigma[p - 1] == bus)


def player_cost(inst: Instance, sigma: Sequence[int], player: int) -> Fraction:
    """Distance travelled by `player`'s bus from the player's pickup to the destination."""
    _check_outcome(inst, sigma)
    _check_player(inst, player)
    bus = sigma[player - 1]
    cur = player - 1
    total = Fraction(0)
    seen = False
    for p in inst.perms[bus - 1]:
        if sigma[p - 1] != bus:
            continue
        if p == player:
            seen = True
            continue
        if seen:
            total += inst.dist[cur][p - 1]
            cur = p - 1
    return total + inst.dist[cur][inst.n]


def cost_vector(inst: Instance, sigma: Sequence[int]) -> CostVector:
    """Per-player costs under `sigma` (entry ``i-1`` is player ``i``'s cost)."""
    _check_outcome(inst, sigma)
    t = inst.n
    costs: list[Fraction] = [Fraction(0)] * inst.n
    for bus in range(1, inst.m + 1):
        route = [p for p in inst.perms[bus - 1] if sigma[p - 1] == bus]
        acc = Fraction(0)
        nxt = t
        for p in reversed(route):
            acc = inst.dist[p - 1][nxt] + acc
            nxt = p - 1
            costs[p - 1] = acc
    return tuple(costs)


def bus_distance_total(inst: Instance, sigma: Sequence[int]) -> Fraction:
    """Social cost ``D``: total distance driven by all buses.

    Sums every pickup leg plus each nonempty bus's final leg to the
    destination; empty buses contribute nothing.
    """
    _check_outcome(inst, sigma)
    t = inst.n
    total = Fraction(0)
    for bus in range(1, inst.m + 1):
        prev = -1
        for p in inst.perms[bus - 1]:
            if sigma[p - 1] != bus:
                continue
            if prev >= 0:
                total += inst.dist[prev][p - 1]
            prev = p - 1
        if prev >= 0:
            total += inst.dist[prev][t]
    return total


def worst_player_cost(inst: Instance, sigma: Sequence[int]) -> Fraction:
    """Social cost ``E``: the largest cost any player pays."""
    return max(cost_vector(inst, sigma))


def player_cost_total(inst: Instance, sigma: Sequence[int]) -> Fraction:
    """Social cost ``U``: the sum of all player costs."""
    return sum(cost_vector(inst, sigma), Fraction(0))


SOCIAL_FUNCTIONS = {
    "D": bus_distance_total,
    "E": worst_player_cost,
    "U": player_cost_total,
}


def social_code(function: str) -> int:
    """The kernels' code for a social function: its index in `SOCIAL_TAGS`."""
    if function not in SOCIAL_TAGS:
        raise ValueError(f"unknown social function {function!r}, expected one of {SOCIAL_TAGS}")
    return SOCIAL_TAGS.index(function)


def social_cost(inst: Instance, sigma: Sequence[int], function: SocialTag) -> Fraction:
    """Evaluate one of the social cost functions ``D``, ``E``, ``U``."""
    social_code(function)
    return SOCIAL_FUNCTIONS[function](inst, sigma)


@dataclass(frozen=True)
class OutcomeSet:
    """A duplicate-free set of outcomes, held as the sorted kernel codes of
    the instance's scaled view (`engine.ScaledView`).

    Serves both as the Nash-equilibrium set of the simultaneous game and as
    the set of outcomes realizable by subgame-perfect play in the sequential
    game. Iteration yields the outcomes in lexicographic order; read their
    values with `cost_vector` and `social_cost`. `min_social`/`max_social`
    take the kernel's integer statistics, so ties resolve to the earliest
    outcome, as in the analysis summaries.
    """

    view: ScaledView
    codes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Outcome]:
        return map(self.view.outcome, self.codes)

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return tuple(self)

    def contains(self, sigma: Sequence[int]) -> bool:
        view = self.view
        valid = len(sigma) == view.n and all(isinstance(bus, int) and 1 <= bus <= view.m for bus in sigma)
        return valid and view.code(sigma) in self.codes

    def _stats(self, function: SocialTag) -> tuple[int, int, int, int]:
        """(min, argmin, max, argmax) of `function` over the set, scaled."""
        code = social_code(function)
        if not self.codes:
            raise ValueError(f"an empty outcome set has no extreme {function} value")
        view = self.view
        return _kernel_py.code_stats(view.n, view.m, view.dist, view.perms, (code,), self.codes)[0]

    def min_social(self, function: SocialTag) -> tuple[Fraction, Outcome]:
        value, code = self._stats(function)[:2]
        return self.view.to_fraction(value), self.view.outcome(code)

    def max_social(self, function: SocialTag) -> tuple[Fraction, Outcome]:
        value, code = self._stats(function)[2:]
        return self.view.to_fraction(value), self.view.outcome(code)


def evaluate_outcomes(inst: Instance, sigmas: Iterable[Sequence[int]]) -> OutcomeSet:
    """The set of the given outcomes, each checked against `inst`."""
    from .engine import scaled_view  # engine builds on this module

    view = scaled_view(inst)
    codes = set()
    for sigma in sigmas:
        _check_outcome(inst, sigma)
        codes.add(view.code(sigma))
    return OutcomeSet(view, tuple(sorted(codes)))


# ---------------------------------------------------------------------------
# Instance file format (JSON, UTF-8). Distances are ints or "p/q" strings so
# the round trip is lossless.
# ---------------------------------------------------------------------------


def instance_to_dict(inst: Instance) -> dict:
    doc: dict = {
        "n": inst.n,
        "m": inst.m,
        "vertices": list(range(1, inst.n + 1)) + [DESTINATION],
        "distances": [[rational_repr(x) for x in row] for row in inst.dist],
        "permutations": [list(perm) for perm in inst.perms],
    }
    if inst.declared_metric is not None:
        doc["metric"] = inst.declared_metric
    return doc


def _is_array(value: object) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def validate_instance(raw: object) -> Instance:
    """Build an `Instance` from untrusted data, or raise with every violation found."""
    if not isinstance(raw, Mapping):
        raise MalformedInstanceError([Violation("malformed", "top-level JSON object expected")])

    violations: list[Violation] = []
    n = raw.get("n")
    m = raw.get("m")
    for field in ("n", "m", "distances", "permutations"):
        if field not in raw:
            violations.append(Violation("missing-field", f"required field {field!r} is absent"))
    if violations:
        raise MalformedInstanceError(violations)

    distances_raw = raw["distances"]
    dist: list[list[Fraction]] = []
    if not _is_array(distances_raw):
        violations.append(Violation("malformed", "'distances' must be an array of arrays"))
    else:
        for i, row in enumerate(distances_raw):
            parsed_row: list[Fraction] = []
            if not _is_array(row):
                violations.append(Violation("malformed", f"distances row {i} is not an array"))
                continue
            for j, entry in enumerate(row):
                try:
                    parsed_row.append(to_fraction(entry))
                except ValueError:
                    violations.append(Violation("bad-entry", f"distances[{i}][{j}] = {entry!r} is not exact"))
                    parsed_row.append(Fraction(0))
            dist.append(parsed_row)

    perms_raw = raw["permutations"]
    perms: list[list[int]] = []
    if not _is_array(perms_raw):
        violations.append(Violation("malformed", "'permutations' must be an array of arrays"))
    else:
        for j, perm in enumerate(perms_raw):
            if not _is_array(perm) or not all(isinstance(p, int) and not isinstance(p, bool) for p in perm):
                violations.append(Violation("not-a-permutation", f"permutation {j + 1} is not an integer array"))
                perms.append([])
            else:
                perms.append([int(p) for p in perm])

    vertices = raw.get("vertices")
    if vertices is not None and isinstance(n, int):
        # As for permutations, the labels are listed only at the right length.
        if not _is_array(vertices) or len(vertices) != n + 1:
            violations.append(Violation("bad-vertices", f"vertices must be an array of 1..{n} and {DESTINATION!r}"))
        elif list(vertices) != (expected := list(range(1, n + 1)) + [DESTINATION]):
            violations.append(Violation("bad-vertices", f"vertices must be {expected}"))

    if violations:
        raise MalformedInstanceError(violations)
    # The constructor runs `instance_violations` and raises with its findings.
    return Instance(n, m, tuple(tuple(row) for row in dist), tuple(tuple(p) for p in perms), raw.get("metric"))


def dumps_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInstanceError([Violation("invalid-json", str(exc))]) from exc
    return validate_instance(raw)


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(inst), encoding="utf-8")


def load_instance(path: str | Path) -> Instance:
    return loads_instance(Path(path).read_text(encoding="utf-8"))


def canonical_instance_bytes(inst: Instance) -> bytes:
    """Stable byte serialization used for digests."""
    return json.dumps(instance_to_dict(inst), separators=(",", ":"), sort_keys=True).encode("utf-8")


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(canonical_instance_bytes(inst)).hexdigest()
