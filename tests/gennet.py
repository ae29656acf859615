"""Random netlists and an exhaustive retiming oracle.

Structure is generated first (arities, wires, weights), then gate kinds are
assigned.  Any gate that can reach a feedback cycle gets a zero-preserving
kind (AND/OR/XOR/BUF): with all registers starting at 0, moving a register
across a gate with g(0,...,0) != 0 that feeds a loop seeds the loop with a
state the original never held, and the difference can recirculate forever.
Downstream of every loop (and in fully feed-forward netlists) inverting
kinds are fair game; their start-up mismatch drains out within the flush
warm-up.

The oracle enumerates every lag vector in [-B, B]^gates (io nodes pinned at
lag 0, matching the package's convention), keeps the legal ones, and
measures each result's period with its own little longest-path routine.  It
never calls into cslowsim.retime, so it can referee min_period_retime.
"""

import itertools
import random

from cslowsim.netlist import Edge, Netlist, Node, NodeKind

_SAFE2 = [NodeKind.AND, NodeKind.OR, NodeKind.XOR]
_ANY2 = _SAFE2 + [NodeKind.NAND, NodeKind.NOR]
_SAFE1 = [NodeKind.BUF]
_ANY1 = [NodeKind.NOT, NodeKind.BUF]


def _reaches_cycle(n_gates, gate_edges):
    """Gate indices with a path (of any weight) to some directed cycle."""
    adj = [[] for _ in range(n_gates)]
    radj = [[] for _ in range(n_gates)]
    for src, dst in gate_edges:
        adj[src].append(dst)
        radj[dst].append(src)

    # A gate lies on a cycle iff it survives repeated source-stripping.
    indeg = [0] * n_gates
    for src, dst in gate_edges:
        indeg[dst] += 1
    ready = [g for g in range(n_gates) if indeg[g] == 0]
    stripped = set()
    while ready:
        g = ready.pop()
        stripped.add(g)
        for succ in adj[g]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    on_cycle = [g for g in range(n_gates) if g not in stripped]

    reach = set(on_cycle)
    stack = list(on_cycle)
    while stack:
        g = stack.pop()
        for pred in radj[g]:
            if pred not in reach:
                reach.add(pred)
                stack.append(pred)
    return reach


def random_netlist(rng: random.Random, max_gates=3, n_inputs=None,
                   max_weight=2, max_delay=3, p_zero_weight=0.6,
                   p_feedback=0.3, safe_loops=True) -> Netlist:
    """A valid netlist: forward wires may be register-free, feedback wires
    always carry at least one register, so no combinational cycles arise.
    `safe_loops=False` lets inverting kinds into loops too."""
    n_in = n_inputs if n_inputs is not None else rng.randint(1, 2)
    n_gates = rng.randint(1, max_gates)
    arity = [2 if rng.random() < 0.7 else 1 for _ in range(n_gates)]

    def forward_weight():
        return 0 if rng.random() < p_zero_weight else rng.randint(1, max_weight)

    wires = []       # (src name, dst gate index, pin, weight)
    gate_edges = []  # (src gate, dst gate) pairs for cycle analysis
    for g in range(n_gates):
        for pin in range(arity[g]):
            if rng.random() < p_feedback:
                src = rng.randrange(g, n_gates)
                wires.append(("g%d" % src, g, pin, rng.randint(1, max_weight)))
                gate_edges.append((src, g))
            else:
                pick = rng.randrange(n_in + g)
                if pick < n_in:
                    wires.append(("in%d" % pick, g, pin, forward_weight()))
                else:
                    src = pick - n_in
                    wires.append(("g%d" % src, g, pin, forward_weight()))
                    gate_edges.append((src, g))

    constrained = _reaches_cycle(n_gates, gate_edges) if safe_loops else ()
    nodes = [Node("in%d" % i, NodeKind.INPUT) for i in range(n_in)]
    for g in range(n_gates):
        if arity[g] == 2:
            kind = rng.choice(_SAFE2 if g in constrained else _ANY2)
        else:
            kind = rng.choice(_SAFE1 if g in constrained else _ANY1)
        nodes.append(Node("g%d" % g, kind, rng.randint(0, max_delay)))

    edges = [Edge(src, "g%d" % dst, pin, w) for src, dst, pin, w in wires]
    for o in range(rng.randint(1, 2)):
        nodes.append(Node("out%d" % o, NodeKind.OUTPUT))
        edges.append(Edge("g%d" % rng.randrange(n_gates), "out%d" % o, 0,
                          forward_weight()))
    return Netlist(nodes, edges)


def _period(node_delay, edges, weights):
    """Longest total delay over register-free paths; independent of
    cslowsim.netlist.critical_path (memoised DFS instead of a Kahn sweep)."""
    fanin = {name: [] for name in node_delay}
    for (src, dst), w in zip(edges, weights):
        if w == 0:
            fanin[dst].append(src)
    arrival = {}

    def visit(name):
        if name not in arrival:
            arrival[name] = node_delay[name] + max(
                (visit(src) for src in fanin[name]), default=0)
        return arrival[name]

    return max((visit(name) for name in node_delay), default=0)


def brute_force_min_period(netlist: Netlist) -> int:
    """Exhaustive minimum over all lag vectors with |lag| <= total registers
    plus node count (io lags fixed at 0)."""
    bound = netlist.total_registers + len(netlist.nodes)
    gate_names = [n.name for n in netlist.nodes.values()
                  if n.kind not in (NodeKind.INPUT, NodeKind.OUTPUT)]
    node_delay = {n.name: n.delay for n in netlist.nodes.values()}
    edge_ends = [(e.src, e.dst) for e in netlist.edges]
    base_weights = [e.weight for e in netlist.edges]

    best = _period(node_delay, edge_ends, base_weights)
    span = range(-bound, bound + 1)
    for lags in itertools.product(span, repeat=len(gate_names)):
        r = dict(zip(gate_names, lags))
        weights = []
        legal = True
        for (src, dst), w in zip(edge_ends, base_weights):
            wr = w + r.get(dst, 0) - r.get(src, 0)
            if wr < 0:
                legal = False
                break
            weights.append(wr)
        if not legal:
            continue
        period = _period(node_delay, edge_ends, weights)
        if period < best:
            best = period
    return best
