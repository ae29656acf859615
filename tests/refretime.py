"""Reference min-period retimer for tests: the dense Leiserson–Saxe method.

It shares no code with `cslowsim.retime`: it takes only the data classes
from `cslowsim.netlist`, builds the all-pairs W (fewest registers on a
path) and D (most delay among those paths) tables by Floyd–Warshall over
nested lists, and tries every distinct D value from the smallest up.  A
period c is feasible when the difference constraints

    r(u) - r(v) <= w(e)         for every wire e: u -> v
    r(u) - r(v) <= W(u, v) - 1  for every pair with D(u, v) > c
    r(h) == r(h0)               for every io node h

have a solution.  Synchronous relaxation from all zeros finds the greatest
solution r <= 0 or, still changing after |V| + 1 passes, proves there is
none.  The lags returned are that solution shifted so io nodes read 0.
"""

from cslowsim.netlist import Netlist, NodeKind


def _w_and_d(names, delay, edges):
    """(W, D) as dicts of dicts over reachable pairs."""
    best = {u: {u: (0, -delay[u])} for u in names}  # (registers, -delay)
    for e in edges:
        cand = (e.weight, -delay[e.src] - delay[e.dst])
        if e.dst not in best[e.src] or cand < best[e.src][e.dst]:
            best[e.src][e.dst] = cand
    for k in names:
        via_k = best[k]
        for u in names:
            if k not in best[u] or u == k:
                continue
            wk, dk = best[u][k]
            row = best[u]
            for v, (wv, dv) in via_k.items():
                cand = (wk + wv, dk + dv + delay[k])  # k counted once
                if v not in row or cand < row[v]:
                    row[v] = cand
    return best


def _relax(names, constraints):
    r = {u: 0 for u in names}
    for _ in range(len(names) + 2):
        new = dict(r)
        for u, v, b in constraints:
            if r[v] + b < new[u]:
                new[u] = r[v] + b
        if new == r:
            return r
        r = new
    return None


def min_period_retime(netlist: Netlist):
    """(period, lag dict without zero entries) of the canonical optimum."""
    names = list(netlist.nodes)
    if not names:
        return 0, {}
    delay = {u: netlist.nodes[u].delay for u in names}
    best = _w_and_d(names, delay, netlist.edges)
    hosts = [u for u in names
             if netlist.nodes[u].kind in (NodeKind.INPUT, NodeKind.OUTPUT)]
    fixed = [(e.src, e.dst, e.weight) for e in netlist.edges]
    fixed += [(h, hosts[0], 0) for h in hosts[1:]]
    fixed += [(hosts[0], h, 0) for h in hosts[1:]]
    for c in sorted({-d for row in best.values() for _, d in row.values()}):
        period = [(u, v, w - 1) for u, row in best.items()
                  for v, (w, d) in row.items() if -d > c]
        r = _relax(names, fixed + period)
        if r is not None:
            base = r[hosts[0]] if hosts else 0
            return c, {u: r[u] - base for u in names if r[u] != base}
    raise AssertionError("no candidate period is feasible")
