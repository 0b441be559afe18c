"""Independent reference implementations used as test oracles.

Deliberately written with plain loops and different enumeration mechanics
than the package code so the two sides cannot share a bug: insertion search
by brute-force interleaving, the static optimum by full assignment
enumeration, divergence and layer forwards by direct formula evaluation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dpdplab.instance import DEPOT, MINUTES_PER_DAY, Instance
from dpdplab.policy import FEATURE_SCALE
from dpdplab.routing import PICKUP, Route


def walk_length(seq, start, network, capacity):
    """Length of a (node, [(kind, order)...]) sequence, or None if infeasible."""
    t = float(start)
    load = 0
    stack = []
    length = 0.0
    prev = seq[0][0]
    for idx, (node, acts) in enumerate(seq):
        if idx > 0:
            d = float(network.dist[prev, node])
            length += d
            t += d / network.speed
            prev = node
        for kind, o in acts:
            if kind == PICKUP:
                t = max(t, float(o.created_at)) + network.service_time
                load += o.quantity
                if load > capacity:
                    return None
                stack.append(o.id)
            else:
                if not stack or stack[-1] != o.id:
                    return None
                t += network.service_time
                if t > o.latest_delivery + 1e-9:
                    return None
                stack.pop()
                load -= o.quantity
    if stack:
        return None
    return length


def _sequence(stops):
    """A route's stops as the (node, [(kind, order)...]) sequence ``walk_length`` reads."""
    return [(s.node, [(a.kind, a.order) for a in s.actions]) for s in stops]


def route_walk_length(route: Route, network, capacity):
    """``walk_length`` of a planned route's stops from its first departure."""
    return walk_length(_sequence(route.stops), route.walk[0].departure, network, capacity)


def brute_force_best_insertion(route: Route, order, now, network, fleet):
    """Minimum feasible length over every interleaving of the new pickup and
    delivery with the unfrozen existing stops (relative order preserved,
    pickup before delivery, final depot return kept last)."""
    # A never-dispatched route is its depot stop alone, and it leaves now.
    start = route.walk[0].departure if len(route.stops) > 1 else float(now)
    if len(route.stops) == 1:
        frozen = 0
    else:
        frozen = next(
            (i for i, w in enumerate(route.walk) if w.departure > now), len(route.stops) - 1
        )
    base = _sequence(route.stops)
    if frozen == len(base) - 1:
        base.append((route.stops[0].node, []))
    prefix = base[: frozen + 1]
    middle = base[frozen + 1 : len(base) - 1]
    tail = [base[-1]]
    m = len(middle)
    new_pick = (order.pickup, [(PICKUP, order)])
    new_drop = (order.delivery, [("deliver", order)])
    best = None
    for pp, pd in itertools.combinations(range(m + 2), 2):
        seq = []
        mi = 0
        for slot in range(m + 2):
            if slot == pp:
                seq.append(new_pick)
            elif slot == pd:
                seq.append(new_drop)
            else:
                seq.append(middle[mi])
                mi += 1
        length = walk_length(prefix + seq + tail, start, network, fleet.capacity)
        if length is not None and (best is None or length < best):
            best = length
    return best


def frozen_index_reference(route: Route, now):
    """Index of the first walk state left after ``now`` by a linear scan,
    or the last stop when there is none."""
    for idx, state in enumerate(route.walk):
        if state.departure > now:
            return idx
    return len(route.stops) - 1


def vehicle_position_reference(route: Route, network, now):
    """Position at ``now`` by a linear scan over the walk's legs: at a stop
    while the vehicle waits or serves there, interpolated along a leg while
    it drives (at the leg's end for a leg of no duration)."""
    walk = route.walk
    if now <= walk[0].departure:
        return network.coords(route.stops[0].node)
    for prev, cur in zip(walk, walk[1:]):
        if now < cur.arrival:
            travel = cur.arrival - prev.departure
            frac = (now - prev.departure) / travel if travel > 0 else 1.0
            x0, y0 = network.coords(prev.node)
            x1, y1 = network.coords(cur.node)
            return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))
        if now < cur.departure:
            return network.coords(cur.node)
    return network.coords(walk[-1].node)


def route_cells_reference(route: Route, network, intervals):
    """(stop index, factory, arrival interval) of each non-depot stop, one
    stop at a time; intervals clamp to the day."""
    width = MINUTES_PER_DAY / intervals
    return [
        (idx, stop.node, min(max(int(state.arrival // width), 0), intervals - 1))
        for idx, (stop, state) in enumerate(zip(route.stops, route.walk, strict=True))
        if network.nodes[stop.node].role != DEPOT
    ]


def capacity_profile_reference(route: Route, cells, capacity):
    """Residual capacity on arrival at each reference cell."""
    return np.array(
        [float(capacity - (route.walk[idx - 1].load if idx > 0 else 0)) for idx, _, _ in cells], dtype=float
    )


def demand_profile_reference(cells, grid):
    """Forecast demand at each reference cell."""
    return np.array([grid[f, j] for _, f, j in cells], dtype=float)


def brute_force_route_optimum(depot, orders, instance: Instance):
    """Cheapest feasible action sequence serving all ``orders`` from ``depot``
    (vehicle leaves at minute 0), by unpruned recursive enumeration."""
    net = instance.network
    capacity = instance.fleet.capacity
    best = [None]

    def rec(node, t, load, stack, remaining, length):
        if not remaining and not stack:
            total = length + float(net.dist[node, depot])
            if best[0] is None or total < best[0]:
                best[0] = total
            return
        for o in remaining:
            if load + o.quantity > capacity:
                continue
            d = float(net.dist[node, o.pickup])
            t2 = max(t + d / net.speed, float(o.created_at)) + net.service_time
            rec(
                o.pickup,
                t2,
                load + o.quantity,
                stack + [o],
                [x for x in remaining if x is not o],
                length + d,
            )
        if stack:
            o = stack[-1]
            d = float(net.dist[node, o.delivery])
            t2 = t + d / net.speed + net.service_time
            if t2 <= o.latest_delivery + 1e-9:
                rec(o.delivery, t2, load - o.quantity, stack[:-1], remaining, length + d)

    rec(depot, 0.0, 0, [], list(orders), 0.0)
    return best[0]


def exhaustive_optimum(instance: Instance):
    """(tc, nuv) of the static problem by enumerating every assignment."""
    orders = instance.orders
    vehicles = instance.fleet.vehicles
    fleet = instance.fleet
    best = None
    for assign in itertools.product(range(len(vehicles)), repeat=len(orders)):
        used = 0
        total_len = 0.0
        ok = True
        for k, vehicle in enumerate(vehicles):
            mine = [o for o, a in zip(orders, assign) if a == k]
            if not mine:
                continue
            length = brute_force_route_optimum(vehicle.depot, mine, instance)
            if length is None:
                ok = False
                break
            used += 1
            total_len += length
        if not ok:
            continue
        tc = fleet.fixed_cost * used + fleet.unit_cost * total_len
        if best is None or tc < best[0]:
            best = (tc, used)
    return best


def js_reference(p, q):
    """Base-2 Jensen-Shannon divergence of two finite distributions."""
    m = [(a + b) / 2 for a, b in zip(p, q)]

    def kl(a, b):
        return sum(x * math.log2(x / y) for x, y in zip(a, b) if x > 0)

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def mlp_reference(layers, x):
    """Loop evaluation of affine+ReLU layers with a linear output layer.

    ``layers``: list of (W, b) with W as nested lists [d_in][d_out].
    """
    h = [float(v) for v in x]
    for li, (W, b) in enumerate(layers):
        out = []
        for j in range(len(b)):
            s = float(b[j])
            for i, hi in enumerate(h):
                s += hi * float(W[i][j])
            out.append(s)
        if li < len(layers) - 1:
            out = [v if v > 0 else 0.0 for v in out]
        h = out
    return h


def attention_reference(x_rows, WQ, WK, WV, W, b, heads, d_head):
    """Loop evaluation of one attention block (query = first row)."""

    def project(Wmat, v, c0, c1):
        return [sum(v[i] * float(Wmat[i][c]) for i in range(len(v))) for c in range(c0, c1)]

    q_in = [float(v) for v in x_rows[0]]
    ctx = []
    for h in range(heads):
        c0, c1 = h * d_head, (h + 1) * d_head
        qh = project(WQ, q_in, c0, c1)
        ks = [project(WK, [float(v) for v in row], c0, c1) for row in x_rows]
        vs = [project(WV, [float(v) for v in row], c0, c1) for row in x_rows]
        scores = [sum(a * k for a, k in zip(qh, kk)) / math.sqrt(d_head) for kk in ks]
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        z = sum(exps)
        weights = [e / z for e in exps]
        for d in range(d_head):
            ctx.append(sum(weights[m] * vs[m][d] for m in range(len(x_rows))))
    cat = q_in + ctx
    out = []
    for j in range(len(b)):
        s = float(b[j]) + sum(cat[i] * float(W[i][j]) for i in range(len(cat)))
        out.append(s if s > 0 else 0.0)
    return out


def relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def neighbor_reference(positions, n_neighbors):
    """Neighbour groups by sorting each row: self first, then the nearest
    ``n_neighbors`` others ordered by (squared distance, index)."""
    n = len(positions)
    ne = min(n_neighbors, n - 1)
    groups = []
    for i in range(n):
        others = sorted(
            (sum((a - b) ** 2 for a, b in zip(positions[i], positions[j])), j)
            for j in range(n)
            if j != i
        )
        groups.append([i] + [j for _, j in others[:ne]])
    return groups


def q_reference(net, state):
    """Q per vehicle of one joint state by composing the loop references:
    the initial MLP per feasible row, each attention level once per row over
    the row's ``neighbor_reference`` group, the final MLP on the three
    concatenated embeddings.  An infeasible vehicle has no Q value; its
    entry is NaN, so a comparison that reads it fails."""
    cfg = net.config

    def layers(mlp):
        return [(l.params["W"].tolist(), l.params["b"].tolist()) for l in mlp.layers]

    def attend(block, rows, groups):
        p = block.params
        args = [p[k].tolist() for k in ("WQ", "WK", "WV", "W", "b")]
        return [
            attention_reference([rows[j] for j in group], *args, heads=block.n_heads, d_head=block.d_head)
            for group in groups
        ]

    feasible = [k for k in range(state.n_vehicles) if state.feasible[k]]
    h0 = []
    for k in feasible:
        x = [float(v) for v in state.features[k]]
        if not cfg.use_score_feature:
            x[2] = 0.0
        h0.append(mlp_reference(layers(net.init_mlp), [v * float(s) for v, s in zip(x, FEATURE_SCALE)]))
    cat = h0
    if net.attn1 is not None and feasible:
        groups = neighbor_reference([state.positions[k].tolist() for k in feasible], cfg.neighbors)
        h1 = attend(net.attn1, h0, groups)
        h2 = attend(net.attn2, h1, groups)
        cat = [a + b + c for a, b, c in zip(h0, h1, h2)]
    q = [float("nan")] * state.n_vehicles
    for k, row in zip(feasible, cat):
        q[k] = mlp_reference(layers(net.final_mlp), row)[0]
    return q
