"""The enumeration kernels, over scale-normalized integer distances.

Every Nash scan, optimum, SPE set and Zermelo outcome in the package comes
from this module. All arithmetic is on Python ints, so values of any size
stay exact.

Shared argument layout (everything 0-based):
    n, m        player and bus counts
    dist        flat (n+1)*(n+1) tuple of scaled integer distances; index n = destination
    perms       flat m*n tuple; ``perms[j*n + pos]`` is the player at pickup position
                ``pos`` of bus ``j``
    fcodes      tuple of social function codes wanted: 0 = bus-distance total (D),
                1 = worst cost (E), 2 = cost sum (U)
    lead        how many buses the first player may use (m normally, 1 under
                symmetry reduction)
    order       flat n tuple for the sequential engines; ``order[k]`` is the player
                moving at stage ``k``

Outcome codes are lexicographic ranks: ``code = sum(sigma[i] * m**(n-1-i))``.

One scan evaluates each outcome once and derives D, E and U from the same
cost vector. Its statistics come back with one entry per element of
``fcodes``, in that order:
    optimum     (min, argmin) over every scanned outcome
    kept        (min, argmin, max, argmax) over the kept outcomes: the Nash
                equilibria for `scan_nash`, every outcome for `scan_social`
Ties go to the lowest code, the lexicographically first outcome. Over an
empty set the values read 0 and the codes -1.

    scan_nash(n, m, dist, perms, fcodes, lead, collect) -> (codes or None, count, optimum, kept)
    scan_social(n, m, dist, perms, fcodes, lead)         -> kept
    code_stats(n, m, dist, perms, fcodes, codes)         -> kept, over the given codes
    spe_codes(n, m, dist, perms, order, node_cap)        -> sorted codes of the SPE outcomes
    zermelo_code(n, m, dist, perms, order)               -> code of one SPE outcome
"""

from __future__ import annotations

from .errors import SetOverflowError


def _ranks(n, m, perms):
    rank = [[0] * n for _ in range(m)]
    for j in range(m):
        base = j * n
        for pos in range(n):
            rank[j][perms[base + pos]] = pos
    return rank


def _eval_outcome(n, m, width, dist, perms, sigma, costs, nxt):
    # Backward pass per bus: suffix costs plus "first subscriber at or after
    # position" lookup tables used by the deviation checks. Returns the total
    # the buses drive (D): a bus drives exactly its first pickup's cost.
    bus_total = 0
    for j in range(m):
        base = j * n
        narr = nxt[j]
        narr[n] = -1
        acc = 0
        nxtv = n
        for pos in range(n - 1, -1, -1):
            q = perms[base + pos]
            if sigma[q] == j:
                acc = dist[q * width + nxtv] + acc
                costs[q] = acc
                nxtv = q
                narr[pos] = q
            else:
                narr[pos] = narr[pos + 1]
        bus_total += acc
    return bus_total


def _social_values(bus_total, costs):
    # Indexed by social function code: D, E, U.
    return bus_total, max(costs), sum(costs)


def _has_improvement(n, m, width, dist, sigma, costs, rank, nxt):
    for p in range(n):
        cur = costs[p]
        base = p * width
        for j in range(m):
            if j == sigma[p]:
                continue
            nx = nxt[j][rank[j][p] + 1]
            dev = dist[base + nx] + costs[nx] if nx >= 0 else dist[base + n]
            if dev < cur:
                return True
    return False


def _kept(wanted, kmin, akmin, kmax, akmax):
    return tuple((kmin[i], akmin[i], kmax[i], akmax[i]) for i, _ in wanted)


def _scan(n, m, dist, perms, fcodes, lead, want_nash, collect):
    width = n + 1
    rank = _ranks(n, m, perms)
    sigma = [0] * n
    costs = [0] * n
    nxt = [[0] * (n + 1) for _ in range(m)]
    total = lead * m ** (n - 1)
    wanted = tuple(enumerate(fcodes))
    k = len(wanted)
    opt, aopt = [0] * k, [-1] * k
    kmin, akmin, kmax, akmax = [0] * k, [-1] * k, [0] * k, [-1] * k
    codes = [] if collect else None
    count = 0
    code = 0
    while True:
        values = _social_values(_eval_outcome(n, m, width, dist, perms, sigma, costs, nxt), costs)
        keep = True
        if want_nash:
            for i, f in wanted:
                v = values[f]
                if v < opt[i] or aopt[i] < 0:
                    opt[i], aopt[i] = v, code
            keep = not _has_improvement(n, m, width, dist, sigma, costs, rank, nxt)
        if keep:
            for i, f in wanted:
                v = values[f]
                if v < kmin[i] or akmin[i] < 0:
                    kmin[i], akmin[i] = v, code
                if v > kmax[i] or akmax[i] < 0:
                    kmax[i], akmax[i] = v, code
            count += 1
            if collect:
                codes.append(code)
        code += 1
        if code >= total:
            break
        i = n - 1
        while True:
            sigma[i] += 1
            if sigma[i] < m:
                break
            sigma[i] = 0
            i -= 1
    optimum = tuple((opt[i], aopt[i]) for i, _ in wanted)
    return codes, count, optimum, _kept(wanted, kmin, akmin, kmax, akmax)


def scan_social(n, m, dist, perms, fcodes, lead):
    """Per social function in ``fcodes``: (min, argmin, max, argmax) over all outcomes."""
    return _scan(n, m, dist, perms, fcodes, lead, False, False)[3]


def scan_nash(n, m, dist, perms, fcodes, lead, collect):
    """One pass: Nash filter plus optimum and equilibrium statistics.

    Returns (codes or None, count, optimum, kept): per social function in
    ``fcodes``, ``optimum`` holds (min, argmin) over all outcomes and ``kept``
    holds (min, argmin, max, argmax) over the equilibria.
    """
    return _scan(n, m, dist, perms, fcodes, lead, True, collect)


def code_stats(n, m, dist, perms, fcodes, codes):
    """Per social function in ``fcodes``: (min, argmin, max, argmax) over ``codes``.

    Ties go to the earliest code given; `spe_codes` returns its set sorted,
    so they go to the lexicographically first outcome.
    """
    width = n + 1
    sigma = [0] * n
    costs = [0] * n
    nxt = [[0] * (n + 1) for _ in range(m)]
    wanted = tuple(enumerate(fcodes))
    k = len(wanted)
    kmin, akmin, kmax, akmax = [0] * k, [-1] * k, [0] * k, [-1] * k
    for code in codes:
        c = code
        for q in range(n - 1, -1, -1):
            c, sigma[q] = divmod(c, m)
        values = _social_values(_eval_outcome(n, m, width, dist, perms, sigma, costs, nxt), costs)
        for i, f in wanted:
            v = values[f]
            if v < kmin[i] or akmin[i] < 0:
                kmin[i], akmin[i] = v, code
            if v > kmax[i] or akmax[i] < 0:
                kmax[i], akmax[i] = v, code
    return _kept(wanted, kmin, akmin, kmax, akmax)


def _cost_closure(n, m, width, dist, perms, rank, weight):
    def cost_of(player, code):
        b = (code // weight[player]) % m
        cur = player * width
        acc = 0
        base = b * n
        for pos in range(rank[b][player] + 1, n):
            q = perms[base + pos]
            if (code // weight[q]) % m == b:
                acc += dist[cur + q]
                cur = q * width
        return acc + dist[cur + n]

    return cost_of


def spe_codes(n, m, dist, perms, order, node_cap):
    """All outcomes realizable by subgame-perfect play, as sorted codes.

    Set-valued backward induction: at a node where `mover` acts, an outcome in
    the subtree of action ``a`` survives iff every other action's subtree holds
    a continuation at least as costly for the mover.
    """
    width = n + 1
    rank = _ranks(n, m, perms)
    weight = [m ** (n - 1 - i) for i in range(n)]
    cost_of = _cost_closure(n, m, width, dist, perms, rank, weight)
    sigma = [0] * n

    def rec(stage):
        if stage == n:
            return [sum(sigma[i] * weight[i] for i in range(n))]
        mover = order[stage]
        kids = []
        maxes = []
        for a in range(m):
            sigma[mover] = a
            sub = rec(stage + 1)
            sub_costs = [cost_of(mover, c) for c in sub]
            kids.append((sub, sub_costs))
            maxes.append(max(sub_costs))
        i1 = min(range(m), key=maxes.__getitem__)
        m1 = maxes[i1]
        m2 = min(maxes[a] for a in range(m) if a != i1)
        out = []
        for a in range(m):
            threshold = m2 if a == i1 else m1
            sub, sub_costs = kids[a]
            for c, cost in zip(sub, sub_costs):
                if cost <= threshold:
                    out.append(c)
        if len(out) > node_cap:
            raise SetOverflowError(f"result set of size {len(out)} exceeds the per-node cap {node_cap}")
        return out

    result = rec(0)
    result.sort()
    return result


def zermelo_code(n, m, dist, perms, order):
    """Deterministic backward induction; ties break toward the lowest bus index."""
    width = n + 1
    rank = _ranks(n, m, perms)
    weight = [m ** (n - 1 - i) for i in range(n)]
    cost_of = _cost_closure(n, m, width, dist, perms, rank, weight)
    sigma = [0] * n

    def rec(stage):
        if stage == n:
            return sum(sigma[i] * weight[i] for i in range(n))
        mover = order[stage]
        best = -1
        best_cost = None
        for a in range(m):
            sigma[mover] = a
            code = rec(stage + 1)
            cost = cost_of(mover, code)
            if best_cost is None or cost < best_cost:
                best, best_cost = code, cost
        return best

    return rec(0)
