"""Reference maximum cycle ratio of a netlist, for the retiming bound.

lambda is the largest total gate delay over total registers along any
directed cycle (0 when there is none).  Retiming keeps every cycle's
register count, so no retiming of a netlist runs faster than lambda, and
C-slow multiplies every register count by C.  Both methods here read only
the netlist's public `nodes` and `edges` and compute in exact Fractions;
neither calls into cslowsim.retime.
"""

from fractions import Fraction


def _arcs(netlist):
    """(tail, head, head's delay, registers) per wire; a cycle's delay is
    the sum of its heads' delays."""
    delay = {name: node.delay for name, node in netlist.nodes.items()}
    return [(e.src, e.dst, delay[e.dst], e.weight) for e in netlist.edges]


def _positive_cycle(names, arcs, ratio):
    """A cycle whose delay exceeds `ratio` times its registers, as a list of
    arcs, or None: Bellman-Ford for longest paths from a virtual source
    joined to every node, on arc lengths delay - ratio * registers (scaled
    by the ratio's denominator, so every length is an exact integer)."""
    if not arcs:
        return None
    p, q = ratio.numerator, ratio.denominator
    dist = dict.fromkeys(names, 0)
    via = dict.fromkeys(names)
    for _ in range(len(names)):
        changed = None
        for arc in arcs:
            tail, head, delay, registers = arc
            length = dist[tail] + q * delay - p * registers
            if length > dist[head]:
                dist[head], via[head], changed = length, arc, head
        if changed is None:
            return None
    # Still relaxing after |V| passes: walking back |V| arcs from the last
    # node relaxed lands on a positive cycle.
    node = changed
    for _ in range(len(names)):
        node = via[node][0]
    cycle, at = [], node
    while True:
        arc = via[at]
        cycle.append(arc)
        at = arc[0]
        if at == node:
            return cycle


def max_cycle_ratio(netlist) -> Fraction:
    """lambda by Dinkelbach iteration: while some cycle beats the current
    ratio, take that cycle's own ratio, which is strictly larger."""
    names, arcs = list(netlist.nodes), _arcs(netlist)
    ratio = Fraction(0)
    while True:
        cycle = _positive_cycle(names, arcs, ratio)
        if cycle is None:
            return ratio
        ratio = Fraction(sum(a[2] for a in cycle), sum(a[3] for a in cycle))


def max_cycle_ratio_enumerated(netlist) -> Fraction:
    """lambda over every simple cycle, each found once from its first node
    in declaration order; exponential, for small netlists."""
    names = list(netlist.nodes)
    rank = {name: i for i, name in enumerate(names)}
    out = {name: [] for name in names}
    for arc in _arcs(netlist):
        out[arc[0]].append(arc)
    best = Fraction(0)

    def walk(start, at, seen, delay, registers):
        nonlocal best
        for _, head, d, w in out[at]:
            if head == start:
                best = max(best, Fraction(delay + d, registers + w))
            elif head not in seen and rank[head] > rank[start]:
                walk(start, head, seen | {head}, delay + d, registers + w)

    for start in names:
        walk(start, start, {start}, 0, 0)
    return best
