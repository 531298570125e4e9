# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
# distutils: language = c++
"""Compiled enumeration kernels over scale-normalized int64 distances.

Same scan, SPE and Zermelo contract as ``_kernel_py``, whose docstring gives
the argument and return layouts (``code_stats`` exists only there). Selected
automatically when built and when the scaled distances fit comfortably in
64-bit arithmetic; see ``engine``.
"""

from libc.stdint cimport int64_t
from libcpp.vector cimport vector
from libcpp.algorithm cimport sort as cpp_sort

from .errors import SetOverflowError

ctypedef int64_t i64


cdef void _fill_i64(vector[i64]& dst, seq):
    for x in seq:
        dst.push_back(x)


cdef void _fill_int(vector[int]& dst, seq):
    for x in seq:
        dst.push_back(x)


cdef void _build_ranks(int n, int m, int* perm, int* rank) noexcept nogil:
    cdef int j, pos
    for j in range(m):
        for pos in range(n):
            rank[j * n + perm[j * n + pos]] = pos


cdef i64 _eval_outcome(int n, int m, int width, i64* dist, int* perm,
                       int* sigma, i64* costs, int* nxt) noexcept nogil:
    cdef int j, pos, q, nxtv, base, nbase
    cdef i64 acc, bus_total = 0
    for j in range(m):
        base = j * n
        nbase = j * (n + 1)
        nxt[nbase + n] = -1
        acc = 0
        nxtv = n
        for pos in range(n - 1, -1, -1):
            q = perm[base + pos]
            if sigma[q] == j:
                acc = dist[q * width + nxtv] + acc
                costs[q] = acc
                nxtv = q
                nxt[nbase + pos] = q
            else:
                nxt[nbase + pos] = nxt[nbase + pos + 1]
        bus_total += acc
    return bus_total


cdef void _social_values(int n, i64 bus_total, i64* costs, i64* values) noexcept nogil:
    cdef int i
    values[0] = bus_total
    values[1] = costs[0]
    values[2] = 0
    for i in range(n):
        if costs[i] > values[1]:
            values[1] = costs[i]
        values[2] += costs[i]


cdef bint _has_improvement(int n, int m, int width, i64* dist, int* sigma,
                           i64* costs, int* rank, int* nxt) noexcept nogil:
    cdef int p, j, nx
    cdef i64 cur, dev
    for p in range(n):
        cur = costs[p]
        for j in range(m):
            if j == sigma[p]:
                continue
            nx = nxt[j * (n + 1) + rank[j * n + p] + 1]
            if nx >= 0:
                dev = dist[p * width + nx] + costs[nx]
            else:
                dev = dist[p * width + n]
            if dev < cur:
                return True
    return False


def _scan(int n, int m, dist_seq, perms_seq, fcodes_seq, int lead,
          bint want_nash, bint collect):
    cdef vector[i64] dist
    cdef vector[int] perm
    cdef vector[int] fcodes
    _fill_i64(dist, dist_seq)
    _fill_int(perm, perms_seq)
    _fill_int(fcodes, fcodes_seq)
    cdef int width = n + 1
    cdef vector[int] rank = vector[int](m * n)
    _build_ranks(n, m, &perm[0], &rank[0])
    cdef vector[int] sigma = vector[int](n)
    cdef vector[i64] costs = vector[i64](n)
    cdef vector[int] nxt = vector[int](m * (n + 1))
    cdef i64 values[3]

    cdef i64 total = lead
    cdef int i, k = <int> fcodes.size()
    for i in range(n - 1):
        total *= m

    cdef vector[i64] opt = vector[i64](k, 0)
    cdef vector[i64] aopt = vector[i64](k, -1)
    cdef vector[i64] kmin = vector[i64](k, 0)
    cdef vector[i64] akmin = vector[i64](k, -1)
    cdef vector[i64] kmax = vector[i64](k, 0)
    cdef vector[i64] akmax = vector[i64](k, -1)
    codes = [] if collect else None
    cdef i64 count = 0, code = 0
    cdef i64 v
    cdef bint keep
    while True:
        _social_values(n, _eval_outcome(n, m, width, &dist[0], &perm[0], &sigma[0], &costs[0], &nxt[0]),
                       &costs[0], values)
        keep = True
        if want_nash:
            for i in range(k):
                v = values[fcodes[i]]
                if v < opt[i] or aopt[i] < 0:
                    opt[i] = v
                    aopt[i] = code
            keep = not _has_improvement(n, m, width, &dist[0], &sigma[0], &costs[0], &rank[0], &nxt[0])
        if keep:
            for i in range(k):
                v = values[fcodes[i]]
                if v < kmin[i] or akmin[i] < 0:
                    kmin[i] = v
                    akmin[i] = code
                if v > kmax[i] or akmax[i] < 0:
                    kmax[i] = v
                    akmax[i] = code
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
    optimum = tuple([(opt[f], aopt[f]) for f in range(k)])
    kept = tuple([(kmin[f], akmin[f], kmax[f], akmax[f]) for f in range(k)])
    return codes, count, optimum, kept


def scan_social(int n, int m, dist_seq, perms_seq, fcodes_seq, int lead):
    """Per social function in ``fcodes``: (min, argmin, max, argmax) over all outcomes."""
    return _scan(n, m, dist_seq, perms_seq, fcodes_seq, lead, False, False)[3]


def scan_nash(int n, int m, dist_seq, perms_seq, fcodes_seq, int lead, bint collect):
    """One pass: Nash filter plus optimum and equilibrium statistics; see ``_kernel_py``."""
    return _scan(n, m, dist_seq, perms_seq, fcodes_seq, lead, True, collect)


cdef i64 _cost_from_code(int player, i64 code, int n, int m, int width,
                         i64* dist, int* perm, int* rank, i64* weight) noexcept nogil:
    cdef int b = <int> ((code // weight[player]) % m)
    cdef int cur = player * width
    cdef i64 acc = 0
    cdef int base = b * n
    cdef int pos, q
    for pos in range(rank[base + player] + 1, n):
        q = perm[base + pos]
        if (code // weight[q]) % m == b:
            acc += dist[cur + q]
            cur = q * width
    return acc + dist[cur + n]


cdef int _spe_rec(int stage, int n, int m, int width, i64* dist, int* perm,
                  int* rank, i64* weight, int* order, int* sigma,
                  i64 node_cap, vector[i64]& out) except -1:
    cdef int i, a, mover, i1
    cdef i64 code, m1, m2, threshold, cost
    cdef size_t idx
    if stage == n:
        code = 0
        for i in range(n):
            code += sigma[i] * weight[i]
        out.push_back(code)
        return 0
    mover = order[stage]
    cdef vector[vector[i64]] kid = vector[vector[i64]](m)
    cdef vector[vector[i64]] kidcost = vector[vector[i64]](m)
    cdef vector[i64] maxes = vector[i64](m)
    for a in range(m):
        sigma[mover] = a
        _spe_rec(stage + 1, n, m, width, dist, perm, rank, weight, order, sigma, node_cap, kid[a])
        kidcost[a].reserve(kid[a].size())
        for idx in range(kid[a].size()):
            kidcost[a].push_back(_cost_from_code(mover, kid[a][idx], n, m, width, dist, perm, rank, weight))
        maxes[a] = kidcost[a][0]
        for idx in range(1, kidcost[a].size()):
            if kidcost[a][idx] > maxes[a]:
                maxes[a] = kidcost[a][idx]
    i1 = 0
    for a in range(1, m):
        if maxes[a] < maxes[i1]:
            i1 = a
    m1 = maxes[i1]
    m2 = 0
    cdef bint m2_set = False
    for a in range(m):
        if a == i1:
            continue
        if not m2_set or maxes[a] < m2:
            m2 = maxes[a]
            m2_set = True
    for a in range(m):
        threshold = m2 if a == i1 else m1
        for idx in range(kid[a].size()):
            if kidcost[a][idx] <= threshold:
                out.push_back(kid[a][idx])
    if <i64> out.size() > node_cap:
        raise SetOverflowError(f"result set of size {out.size()} exceeds the per-node cap {node_cap}")
    return 0


def spe_codes(int n, int m, dist_seq, perms_seq, order_seq, node_cap):
    """All outcomes realizable by subgame-perfect play, as sorted codes."""
    cdef vector[i64] dist
    cdef vector[int] perm
    cdef vector[int] order
    _fill_i64(dist, dist_seq)
    _fill_int(perm, perms_seq)
    _fill_int(order, order_seq)
    cdef int width = n + 1
    cdef vector[int] rank = vector[int](m * n)
    _build_ranks(n, m, &perm[0], &rank[0])
    cdef vector[i64] weight = vector[i64](n)
    cdef int i
    weight[n - 1] = 1
    for i in range(n - 2, -1, -1):
        weight[i] = weight[i + 1] * m
    cdef vector[int] sigma = vector[int](n)
    cdef vector[i64] out
    cdef i64 cap = node_cap
    _spe_rec(0, n, m, width, &dist[0], &perm[0], &rank[0], &weight[0], &order[0], &sigma[0], cap, out)
    cpp_sort(out.begin(), out.end())
    return [out[i2] for i2 in range(<int> out.size())]


cdef i64 _zermelo_rec(int stage, int n, int m, int width, i64* dist, int* perm,
                      int* rank, i64* weight, int* order, int* sigma) noexcept nogil:
    cdef int i, a, mover
    cdef i64 code, cost, best, best_cost
    if stage == n:
        code = 0
        for i in range(n):
            code += sigma[i] * weight[i]
        return code
    mover = order[stage]
    best = -1
    best_cost = 0
    for a in range(m):
        sigma[mover] = a
        code = _zermelo_rec(stage + 1, n, m, width, dist, perm, rank, weight, order, sigma)
        cost = _cost_from_code(mover, code, n, m, width, dist, perm, rank, weight)
        if best < 0 or cost < best_cost:
            best = code
            best_cost = cost
    return best


def zermelo_code(int n, int m, dist_seq, perms_seq, order_seq):
    """Deterministic backward induction; ties break toward the lowest bus index."""
    cdef vector[i64] dist
    cdef vector[int] perm
    cdef vector[int] order
    _fill_i64(dist, dist_seq)
    _fill_int(perm, perms_seq)
    _fill_int(order, order_seq)
    cdef int width = n + 1
    cdef vector[int] rank = vector[int](m * n)
    _build_ranks(n, m, &perm[0], &rank[0])
    cdef vector[i64] weight = vector[i64](n)
    cdef int i
    weight[n - 1] = 1
    for i in range(n - 2, -1, -1):
        weight[i] = weight[i + 1] * m
    cdef vector[int] sigma = vector[int](n)
    return _zermelo_rec(0, n, m, width, &dist[0], &perm[0], &rank[0], &weight[0], &order[0], &sigma[0])
