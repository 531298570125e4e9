"""Deterministic builders for the benchmark instance families, shortest-path
closure, and seeded random metric instances.

Each builder returns a fully validated `Instance`; the `FAMILIES` registry
drives both the CLI ``generate`` subcommand and the sweep runner. Each family's
parameter checks live in a shape function that returns the `(n, m)` of the
instance, so the sweep runner can refuse an outcome space before building it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .core import Instance, Matrix, scaled_rows, to_fraction
from .errors import (
    DisconnectedGraphError,
    NonPositiveParameterError,
    ParameterDomainError,
)


def shortest_path_closure(partial: Sequence[Sequence[object]]) -> Matrix:
    """All-pairs shortest paths over a symmetric, partially specified matrix.

    ``None`` marks an unknown distance; known entries must be exact,
    nonnegative and symmetric where both directions are given, otherwise
    `ValueError` names the entry. The result is the minimal metric completion:
    Floyd-Warshall on the common-denominator integers of `scaled_rows`, each
    entry converted back to a `Fraction` once. Raises `DisconnectedGraphError`
    if some pair stays unreachable.
    """
    size = len(partial)
    if any(len(row) != size for row in partial):
        raise ValueError("closure input must be a square matrix")
    work: list[list[Fraction | None]] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            entry = partial[i][j]
            if entry is None:
                continue
            value = to_fraction(entry, f" at ({i}, {j})")
            if value < 0:
                raise ValueError(f"negative distance at ({i}, {j}): {value}")
            work[i][j] = value
    for i in range(size):
        work[i][i] = Fraction(0)
        for j in range(i + 1, size):
            a, b = work[i][j], work[j][i]
            if a is None:
                work[i][j] = b
            elif b is None:
                work[j][i] = a
            elif a != b:
                raise ValueError(f"asymmetric input at ({i}, {j}): {a} vs {b}")
    scale, rows = scaled_rows(work)
    for k in range(size):
        row_k = rows[k]
        for row_i in rows:
            via = row_i[k]
            if via is None:
                continue
            for j in range(size):
                leg = row_k[j]
                if leg is None:
                    continue
                candidate = via + leg
                if row_i[j] is None or candidate < row_i[j]:
                    row_i[j] = candidate
    for i in range(size):
        for j in range(size):
            if rows[i][j] is None:
                raise DisconnectedGraphError(f"no path between vertices {i} and {j}")
    return tuple(tuple(Fraction(v, scale) for v in row) for row in rows)


def _edges_to_matrix(size: int, edges: Mapping[tuple[int, int], object]) -> list[list[object]]:
    matrix: list[list[object]] = [[None] * size for _ in range(size)]
    for i in range(size):
        matrix[i][i] = 0
    for (u, v), w in edges.items():
        matrix[u][v] = w
        matrix[v][u] = w
    return matrix


def gen_five_chain() -> Instance:
    """Five players on a weighted chain, all at distance 3 from the destination.

    Explicit edges 1-4 (1), 4-3 (2), 3-5 (2), 5-2 (1) and every player 3 away
    from the destination; remaining distances come from shortest-path closure.
    Both buses pick up in identity order.
    """
    t = 5
    edges = {(0, 3): 1, (3, 2): 2, (2, 4): 2, (4, 1): 1}
    for p in range(5):
        edges[(p, t)] = 3
    dist = shortest_path_closure(_edges_to_matrix(6, edges))
    perm = tuple(range(1, 6))
    return Instance(5, 2, dist, (perm, perm), declared_metric=True)


def gen_four_line() -> Instance:
    """Four players on a unit-spaced line running through the destination.

    Positions: player 3, player 4, destination, player 1, player 2. Both buses
    share the pickup order (1, 2, 4, 3).
    """
    position = {0: 1, 1: 2, 2: -2, 3: -1, 4: 0}  # rows 0..3 = players, row 4 = destination
    dist = tuple(
        tuple(Fraction(abs(position[i] - position[j])) for j in range(5)) for i in range(5)
    )
    perm = (1, 2, 4, 3)
    return Instance(4, 2, dist, (perm, perm), declared_metric=True)


def _spike_shape(x: object) -> tuple[int, int]:
    spike = to_fraction(x)
    if spike <= 0:
        raise NonPositiveParameterError(f"spike distance must be > 0, got {spike}")
    return 3, 2


def gen_nonmetric_spike(x: object) -> Instance:
    """Three players, two buses, one triangle-breaking expensive vertex.

    Players 2 and 3 sit at distance zero from the destination (and from each
    other for player 2); player 1 is `x` away from everything that matters.
    Both buses pick up in the order (1, 3, 2).
    """
    _spike_shape(x)
    spike = to_fraction(x)
    z = Fraction(0)
    one = Fraction(1)
    dist = (
        (z, z, spike, spike),
        (z, z, z, z),
        (spike, z, z, one),
        (spike, z, one, z),
    )
    perm = (1, 3, 2)
    return Instance(3, 2, dist, (perm, perm), declared_metric=False)


def _star_shape(n: int, m: int, epsilon: object, perm_scheme: str = "identity") -> tuple[int, int]:
    if n < 1 or m < 2:
        raise ParameterDomainError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    eps = to_fraction(epsilon)
    if eps <= 0:
        raise NonPositiveParameterError(f"epsilon must be > 0, got {eps}")
    if perm_scheme not in ("identity", "reverse"):
        raise ParameterDomainError(f"perm_scheme must be 'identity' or 'reverse', got {perm_scheme!r}")
    return n, m


def gen_uniform_star(n: int, m: int, epsilon: object, perm_scheme: str = "identity") -> Instance:
    """Every player at distance 1 from the destination, pairwise `epsilon`.

    `perm_scheme` selects the shared pickup order: "identity" = (1..n), or
    "reverse" = (n..1). Metric exactly when epsilon <= 2.
    """
    _star_shape(n, m, epsilon, perm_scheme)
    eps = to_fraction(epsilon)
    one = Fraction(1)
    rows = []
    for i in range(n):
        rows.append(tuple(Fraction(0) if j == i else (one if j == n else eps) for j in range(n + 1)))
    rows.append(tuple(one if j < n else Fraction(0) for j in range(n + 1)))
    perm = tuple(range(1, n + 1)) if perm_scheme == "identity" else tuple(range(n, 0, -1))
    return Instance(n, m, tuple(rows), (perm,) * m, declared_metric=bool(eps <= 2))


def group_level_layout(k: int, m: int, pad: int = 0) -> tuple[tuple[str, int] | None, ...]:
    """Player labels for the two-group instance: entry ``i-1`` is ("L"|"R", level)
    for player ``i``, or None for a padding player sitting at the destination."""
    pickup_order: list[tuple[str, int]] = []
    for level in range(k, 0, -1):
        for group in ("R", "L"):
            for _ in range(m, 0, -1):
                pickup_order.append((group, level))
    n = 2 * k * m + pad
    layout: list[tuple[str, int] | None] = [None] * n
    for idx, label in enumerate(pickup_order):
        layout[n - 1 - idx] = label
    return tuple(layout)


def _group_levels_shape(k: int, m: int, a: object, pad: int = 0) -> tuple[int, int]:
    if k < 1 or m < 2:
        raise ParameterDomainError(f"need k >= 1 and m >= 2, got k={k}, m={m}")
    if pad < 0:
        raise ParameterDomainError(f"pad must be >= 0, got {pad}")
    av = to_fraction(a)
    if av <= 1:
        raise ParameterDomainError(f"a must be > 1, got {av}")
    return 2 * k * m + pad, m


def gen_group_levels(k: int, m: int, a: object, pad: int = 0) -> Instance:
    """Two groups of k*m players each, organized in k levels per group.

    Distances: 1 inside a group, a(a+1) across groups, a to the destination for
    the right group and a^2 for the left. The shared pickup order is (n..1):
    higher levels first, right group before left within a level. `pad` extra
    players may be appended at the destination, placed last in the pickup
    order (they take the lowest player numbers).
    """
    _group_levels_shape(k, m, a, pad)
    av = to_fraction(a)
    layout = group_level_layout(k, m, pad)
    n = len(layout)
    to_dest = {"L": av * av, "R": av}
    cross = av * (av + 1)

    def entry(i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        gi = layout[i] if i < n else None
        gj = layout[j] if j < n else None
        ti = to_dest[gi[0]] if gi is not None else Fraction(0)
        tj = to_dest[gj[0]] if gj is not None else Fraction(0)
        if i == n or gi is None:
            return tj
        if j == n or gj is None:
            return ti
        if gi[0] == gj[0]:
            return Fraction(1)
        return cross

    dist = tuple(tuple(entry(i, j) for j in range(n + 1)) for i in range(n + 1))
    perm = tuple(range(n, 0, -1))
    return Instance(n, m, dist, (perm,) * m, declared_metric=True)


def _far_shape(n: int, m: int, epsilon: object) -> tuple[int, int]:
    if m < 2 or n <= m:
        raise ParameterDomainError(f"need n > m >= 2, got n={n}, m={m}")
    eps = to_fraction(epsilon)
    if eps < 0:
        raise ParameterDomainError(f"epsilon must be >= 0, got {eps}")
    return n, m


def gen_zero_cluster_far(n: int, m: int, epsilon: object) -> Instance:
    """Players 1..n-m coincide with the destination; the last m players sit at
    distance 1 from it and pairwise `epsilon`.

    Unspecified cross distances come from shortest-path closure (through the
    destination). Every bus picks up the near players first, then the far
    players in descending order.
    """
    _far_shape(n, m, epsilon)
    eps = to_fraction(epsilon)
    t = n
    edges: dict[tuple[int, int], object] = {}
    near = range(0, n - m)
    far = range(n - m, n)
    for i in near:
        edges[(i, t)] = 0
        for j in near:
            if i < j:
                edges[(i, j)] = 0
    for i in far:
        edges[(i, t)] = 1
        for j in far:
            if i < j:
                edges[(i, j)] = eps
    dist = shortest_path_closure(_edges_to_matrix(n + 1, edges))
    perm = tuple(range(1, n - m + 1)) + tuple(range(n, n - m, -1))
    return Instance(n, m, dist, (perm,) * m, declared_metric=True)


def _single_shape(n: int) -> tuple[int, int]:
    if n < 2:
        raise ParameterDomainError(f"need n >= 2, got n={n}")
    return n, n


def gen_zero_cluster_single(n: int) -> Instance:
    """Players 1..n-1 coincide with the destination; player n is 1 away.

    Uses m = n buses and identity pickup orders; cross distances close through
    the destination.
    """
    _single_shape(n)
    t = n
    edges: dict[tuple[int, int], object] = {(n - 1, t): 1}
    for i in range(n - 1):
        edges[(i, t)] = 0
        for j in range(i + 1, n - 1):
            edges[(i, j)] = 0
    dist = shortest_path_closure(_edges_to_matrix(n + 1, edges))
    perm = tuple(range(1, n + 1))
    return Instance(n, n, dist, (perm,) * n, declared_metric=True)


def _random_metric_shape(
    n: int, m: int, seed: int, low: int = 1, high: int = 12, max_denominator: int = 8
) -> tuple[int, int]:
    if n < 1 or m < 2:
        raise ParameterDomainError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    if low < 0 or high < low:
        raise ParameterDomainError(f"need 0 <= low <= high, got {(low, high)}")
    if max_denominator < 1:
        raise ParameterDomainError(f"max_denominator must be >= 1, got {max_denominator}")
    return n, m


def gen_random_metric(
    n: int,
    m: int,
    seed: int,
    value_range: tuple[int, int] = (1, 12),
    max_denominator: int = 8,
) -> Instance:
    """Seeded random instance made metric by shortest-path closure.

    Raw distances are rationals with numerators in `value_range` and
    denominators up to `max_denominator` (kept small so exact arithmetic stays
    cheap); pickup orders are independent random permutations per bus.
    """
    low, high = value_range
    _random_metric_shape(n, m, seed, low, high, max_denominator)
    rng = random.Random(seed)
    size = n + 1
    raw: list[list[object]] = [[None] * size for _ in range(size)]
    for i in range(size):
        raw[i][i] = 0
        for j in range(i + 1, size):
            raw[i][j] = raw[j][i] = Fraction(rng.randint(low, high), rng.randint(1, max_denominator))
    dist = shortest_path_closure(raw)
    perms = []
    for _ in range(m):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        perms.append(tuple(order))
    return Instance(n, m, dist, tuple(perms), declared_metric=True)


@dataclass(frozen=True)
class FamilyParam:
    name: str
    kind: str  # "int" | "rational" | "choice"
    required: bool = True
    default: object = None
    choices: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Family:
    tag: str
    shape: Callable[..., tuple[int, int]]  # checks the parameters, returns the (n, m) that `build` gives
    params: tuple[FamilyParam, ...]
    build: Callable[..., Instance]


def _build_random_metric(n, m, seed, low=1, high=12, max_denominator=8):
    return gen_random_metric(n, m, seed, (low, high), max_denominator)


FAMILIES: dict[str, Family] = {
    fam.tag: fam
    for fam in (
        Family("five-chain", lambda: (5, 2), (), gen_five_chain),
        Family("four-line", lambda: (4, 2), (), gen_four_line),
        Family(
            "nonmetric-spike",
            _spike_shape,
            (FamilyParam("x", "rational"),),
            gen_nonmetric_spike,
        ),
        Family(
            "uniform-star",
            _star_shape,
            (
                FamilyParam("n", "int"),
                FamilyParam("m", "int"),
                FamilyParam("epsilon", "rational"),
                FamilyParam("perm_scheme", "choice", required=False, default="identity", choices=("identity", "reverse")),
            ),
            gen_uniform_star,
        ),
        Family(
            "group-levels",
            _group_levels_shape,
            (
                FamilyParam("k", "int"),
                FamilyParam("m", "int"),
                FamilyParam("a", "rational"),
                FamilyParam("pad", "int", required=False, default=0),
            ),
            gen_group_levels,
        ),
        Family(
            "zero-cluster-far",
            _far_shape,
            (
                FamilyParam("n", "int"),
                FamilyParam("m", "int"),
                FamilyParam("epsilon", "rational"),
            ),
            gen_zero_cluster_far,
        ),
        Family("zero-cluster-single", _single_shape, (FamilyParam("n", "int"),), gen_zero_cluster_single),
        Family(
            "random-metric",
            _random_metric_shape,
            (
                FamilyParam("n", "int"),
                FamilyParam("m", "int"),
                FamilyParam("seed", "int"),
                FamilyParam("low", "int", required=False, default=1),
                FamilyParam("high", "int", required=False, default=12),
                FamilyParam("max_denominator", "int", required=False, default=8),
            ),
            _build_random_metric,
        ),
    )
}


def _coerce_param(spec: FamilyParam, value: object) -> object:
    if spec.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterDomainError(f"parameter {spec.name!r} must be an integer, got {value!r}")
        return value
    if spec.kind == "rational":
        try:
            return to_fraction(value)
        except ValueError as exc:
            raise ParameterDomainError(f"parameter {spec.name!r} must be an exact rational, got {value!r}") from exc
    if spec.kind == "choice":
        if value not in (spec.choices or ()):
            raise ParameterDomainError(f"parameter {spec.name!r} must be one of {spec.choices}, got {value!r}")
        return value
    raise AssertionError(f"unknown parameter kind {spec.kind!r}")


def _family_args(tag: str, params: Mapping[str, object] | None) -> tuple[Family, dict[str, object]]:
    """A registered family and its arguments, coerced from a parameter mapping."""
    if tag not in FAMILIES:
        raise ParameterDomainError(f"unknown family {tag!r}; known: {sorted(FAMILIES)}")
    family = FAMILIES[tag]
    params = dict(params or {})
    kwargs: dict[str, object] = {}
    for spec in family.params:
        if spec.name in params:
            kwargs[spec.name] = _coerce_param(spec, params.pop(spec.name))
        elif spec.required:
            raise ParameterDomainError(f"family {tag!r} requires parameter {spec.name!r}")
        else:
            kwargs[spec.name] = spec.default
    if params:
        raise ParameterDomainError(f"unknown parameters for family {tag!r}: {sorted(params)}")
    return family, kwargs


def family_shape(tag: str, params: Mapping[str, object] | None = None) -> tuple[int, int]:
    """The (n, m) of `build_family(tag, params)`, after the same parameter
    checks, without building the instance."""
    family, kwargs = _family_args(tag, params)
    return family.shape(**kwargs)


def build_family(tag: str, params: Mapping[str, object] | None = None) -> Instance:
    """Instantiate a registered family from a parameter mapping."""
    family, kwargs = _family_args(tag, params)
    return family.build(**kwargs)
