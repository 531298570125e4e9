"""Shared helpers for the test suite.

The oracles here are deliberately independent re-implementations of the
library's semantics (routes, social identities, shortest paths, subgame
perfection), so golden values never come from the code path under test. They
read the `Fraction` distances, never the kernels' scaled integers, so a
scaling bug cannot hide on both sides of a comparison.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, product

from transportgames import DisconnectedGraphError, Instance, cost_vector, evaluate_outcomes
from transportgames.core import to_fraction

DEFAULT_ORACLE_BUDGET = 2_000_000


class OracleBudgetExceededError(Exception):
    """Exhaustive strategy-profile enumeration would exceed its budget."""


# Frozen instance with no Nash equilibrium (found by seeded search, verified
# by exhaustive deviation checks in test_simultaneous).
NE_FREE = Instance(
    3,
    2,
    (
        (Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0), Fraction(4), Fraction(6)),
        (Fraction(0), Fraction(4), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(6), Fraction(0), Fraction(0)),
    ),
    ((3, 2, 1), (1, 2, 3)),
)


def route_of(inst: Instance, sigma, bus):
    """Independent route construction: permutation restricted to subscribers."""
    return [p for p in inst.perms[bus - 1] if sigma[p - 1] == bus]


def suffix_cost(inst: Instance, route, player):
    """Independent player cost: walk the route from the player's pickup to t."""
    idx = route.index(player)
    hops = route[idx:] + ["t"]
    return sum(inst.d(hops[i], hops[i + 1]) for i in range(len(hops) - 1))


def weighted_edge_total(inst: Instance, sigma):
    """Cost-sum identity: the i-th pickup leg of a bus is paid by i players."""
    total = Fraction(0)
    for bus in range(1, inst.m + 1):
        route = route_of(inst, sigma, bus)
        hops = route + ["t"]
        for i in range(len(route)):
            total += (i + 1) * inst.d(hops[i], hops[i + 1])
    return total


def first_pickup_total(inst: Instance, sigma):
    """Bus-distance identity: each nonempty bus drives its first pickup's cost."""
    total = Fraction(0)
    for bus in range(1, inst.m + 1):
        route = route_of(inst, sigma, bus)
        if route:
            total += suffix_cost(inst, route, route[0])
    return total


def brute_shortest_paths(size, edges):
    """Exhaustive simple-path search; oracle for the Floyd-Warshall closure."""

    def best(u, v, visited):
        if u == v:
            return Fraction(0)
        candidates = []
        for (a, b), w in edges.items():
            for (x, y) in ((a, b), (b, a)):
                if x == u and y not in visited:
                    tail = best(y, v, visited | {y})
                    if tail is not None:
                        candidates.append(Fraction(w) + tail)
        return min(candidates, default=None)

    return [[best(u, v, {u}) for v in range(size)] for u in range(size)]


def fraction_triangle_witness(dist):
    """Definitional metric check on `Fraction`s: the first ordered triple
    (x, y, w) of distinct indices with d(x,w) > d(x,y) + d(y,w), or None."""
    size = len(dist)
    for x in range(size):
        for y in range(size):
            for w in range(size):
                if len({x, y, w}) == 3 and dist[x][w] > dist[x][y] + dist[y][w]:
                    return (x, y, w)
    return None


def fraction_closure(partial):
    """Definitional shortest-path closure: Floyd-Warshall on `Fraction`s, with
    the same input checks and messages as `shortest_path_closure`."""
    size = len(partial)
    if any(len(row) != size for row in partial):
        raise ValueError("closure input must be a square matrix")
    work = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if partial[i][j] is not None:
                work[i][j] = to_fraction(partial[i][j])
                if work[i][j] < 0:
                    raise ValueError(f"negative distance at ({i}, {j}): {work[i][j]}")
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
    for k in range(size):
        for i in range(size):
            for j in range(size):
                if work[i][k] is None or work[k][j] is None:
                    continue
                candidate = work[i][k] + work[k][j]
                if work[i][j] is None or candidate < work[i][j]:
                    work[i][j] = candidate
    for i in range(size):
        for j in range(size):
            if work[i][j] is None:
                raise DisconnectedGraphError(f"no path between vertices {i} and {j}")
    return tuple(tuple(row) for row in work)


def random_instance(rng: random.Random, max_n=4, max_m=3, metric=False, zero_ok=True):
    """Random symmetric instance; closure applied when `metric` is set."""
    from transportgames import shortest_path_closure

    n = rng.randint(1, max_n)
    m = rng.randint(2, max_m)
    size = n + 1
    dist = [[Fraction(0)] * size for _ in range(size)]
    low = 0 if zero_ok else 1
    for i in range(size):
        for j in range(i + 1, size):
            dist[i][j] = dist[j][i] = Fraction(rng.randint(low, 8), rng.randint(1, 4))
    if metric:
        dist = [list(row) for row in shortest_path_closure(dist)]
    perms = []
    for _ in range(m):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        perms.append(tuple(order))
    return Instance(n, m, tuple(tuple(row) for row in dist), tuple(perms), declared_metric=metric or None)


def scale_instance(inst: Instance, alpha: Fraction) -> Instance:
    return Instance(
        inst.n,
        inst.m,
        tuple(tuple(x * alpha for x in row) for row in inst.dist),
        inst.perms,
        inst.declared_metric,
    )


def relabel_players(inst: Instance, relabel: dict[int, int]) -> Instance:
    """Apply a player bijection to distances and pickup orders."""
    n = inst.n
    inverse = {new: old for old, new in relabel.items()}

    def row_index(i):
        return inverse[i + 1] - 1 if i < n else n

    dist = tuple(tuple(inst.dist[row_index(i)][row_index(j)] for j in range(n + 1)) for i in range(n + 1))
    perms = tuple(tuple(relabel[p] for p in perm) for perm in inst.perms)
    return Instance(n, inst.m, dist, perms, inst.declared_metric)


def relabel_outcome(sigma, relabel: dict[int, int]):
    moved = [0] * len(sigma)
    for player, bus in enumerate(sigma, start=1):
        moved[relabel[player] - 1] = bus
    return tuple(moved)


def tie_instance(rng: random.Random, max_n=4, max_m=3) -> Instance:
    """Random instance rich in exact ties: distances from a few small values,
    zeros included, and half the time one pickup order shared by every bus."""
    n = rng.randint(1, max_n)
    m = rng.randint(2, max_m)
    size = n + 1
    dist = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            dist[i][j] = dist[j][i] = rng.choice((Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1)))
    shared = rng.random() < 0.5
    perms = []
    for _ in range(m):
        if not shared or not perms:
            order = list(range(1, n + 1))
            rng.shuffle(order)
        perms.append(tuple(order))
    return Instance(n, m, tuple(tuple(row) for row in dist), tuple(perms))


def zermelo_reference(inst: Instance, order):
    """Definitional backward induction: in move order, each mover takes the
    bus whose subgame outcome costs the mover least, the lowest bus on ties."""

    def solve(sigma, stage):
        if stage == inst.n:
            return tuple(sigma)
        mover = order[stage]
        best = best_cost = None
        for bus in range(1, inst.m + 1):
            sigma[mover - 1] = bus
            outcome = solve(sigma, stage + 1)
            cost = suffix_cost(inst, route_of(inst, outcome, bus), mover)
            if best_cost is None or cost < best_cost:
                best, best_cost = outcome, cost
        sigma[mover - 1] = 0
        return best

    return solve([0] * inst.n, 0)


def spe_oracle(inst: Instance, order=None, profile_budget=DEFAULT_ORACLE_BUDGET):
    """Brute-force SPE reference: enumerate every strategy profile, keep those
    that pass the one-shot deviation test at every decision node, and return
    their realized outcomes as an `OutcomeSet`.

    A profile holds one action per decision node; the nodes of stage `s` are
    the earlier movers' actions read as base-m digits. Each outcome's costs
    come from `core.cost_vector` once, indexed by the movers' actions in the
    same digits. Only viable for tiny games.
    """
    n, m = inst.n, inst.m
    movers = [p - 1 for p in (order or range(1, n + 1))]
    sizes = [m**stage for stage in range(n)]
    total = 1
    for size in sizes:
        total *= m**size
        if total > profile_budget:
            raise OracleBudgetExceededError(f"{total}+ strategy profiles exceed the oracle budget of {profile_budget}")
    offsets = list(accumulate(sizes, initial=0))

    outcomes, costs = [], []
    for actions in product(range(1, m + 1), repeat=n):
        sigma = [0] * n
        for mover, bus in zip(movers, actions):
            sigma[mover] = bus
        outcomes.append(tuple(sigma))
        costs.append(cost_vector(inst, sigma))

    def leaf(table, stage, node, action):
        """Index of the outcome reached when the mover at `node` of `stage`
        takes `action` and every later mover follows `table`."""
        for later in range(stage + 1, n):
            node = node * m + action
            action = table[offsets[later] + node]
        return node * m + action

    def one_shot(table, stage, node):
        paid = [costs[leaf(table, stage, node, a)][movers[stage]] for a in range(m)]
        return paid[table[offsets[stage] + node]] == min(paid)

    realized = set()
    for table in product(range(m), repeat=offsets[-1]):
        # Deepest stages first: cheapest checks with the highest rejection rate.
        if all(one_shot(table, stage, node) for stage in range(n - 1, -1, -1) for node in range(sizes[stage])):
            realized.add(outcomes[leaf(table, 0, 0, table[0])])
    return evaluate_outcomes(inst, realized)
