"""Register-motion transformations over synchronous netlists.

Three transformations, all preserving the gate graph:

  * C-slow: multiply every edge weight by C.  The result interleaves C
    independent computation streams; with all registers starting at 0 the
    de-interleaved behaviour is bit-exact from cycle 0.
  * Pipelining: push k fresh registers in from the inputs of a feed-forward
    netlist, then rebalance.  Adds exactly k cycles of latency.
  * Min-period retiming: integer lag r(v) per node, new edge weights
    w_r(e) = w(e) + r(head) - r(tail), all of which must stay >= 0.  Input
    and output nodes keep lag 0, so external latency is preserved.

Min-period retiming is FEAS (Leiserson & Saxe, "Retiming synchronous
circuitry", Algorithmica 1991) on the reversed graph, in O(V + E) memory.
It works on s = -r and probes one period c at a time:

  * Each pass raises s(v) by 1 wherever the longest register-free path
    leaving v takes more than c.  The raise is forced: that path u ~> v
    has the fewest registers W(u, v) of any, so the Leiserson-Saxe
    constraint s(u) >= s(v) + 1 - W(u, v) applies.
  * Host tie: io nodes stand for one host vertex, so if one is raised all
    are, and so is every node with a register-free wire into a raised one.
  * From below the answer, forced raises alone stop at the least s >= 0
    with io nodes equal: the canonical lags, i.e. the greatest r <= 0
    (the dense W/D relaxation from zero returns it too), shifted so io
    lags read 0.
  * Infeasibility: each raised node points at the end of the path that
    forced it; one raised by the tie takes its puller's pointer.  A
    pointer stands for constraints that were tight when it was set, over
    values that only grow since, so a cycle of pointers is a positive
    constraint cycle (as in Bellman-Ford's parent-graph check).  Since
    the least s is below |V|, `max(s) >= |V|` is only a backstop.

The search is binary over integer periods from the largest gate delay up;
each feasible probe's s starts the smaller ones, whose least s is larger.
`min_period_retime` returns the lags as a dict {node name: lag} of the
nonzero ones, the period, and the retimed netlist, checked to meet it.

Equivalence is checked by one bit-parallel simulation of each circuit
(`check_equivalence`), on `cycles` random values per input drawn on b's
clock.  With a slow-down `factor`, a is the circuit before C-slow: b's
cycles j, j + factor, ... are a's slot j, and a runs all slots side by
side, slot j in lanes j * trials onwards.  b at cycle t must match a at
t - `shift` (pipelining latency), from cycle `warmup + shift` on.  C-slow
is exact from cycle 0, since every register starts at 0, so a retimed
C-slowed netlist is checked against the original itself.  Retiming moves
registers across logic and may disagree with its source during a start-up
transient, so the check waits out `flush_warmup` of the C-slowed and the
retimed circuit.  `check_cslow_equivalence` checks C-slow alone, from
cycle 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import and_, lshift, or_, rshift

from .netlist import Netlist, NodeKind, critical_path, simulate, topological_order


class BadC(Exception):
    pass


class IllegalRetiming(Exception):
    pass


class NotFeedForward(Exception):
    pass


class InterfaceMismatch(Exception):
    pass


def cslow_transform(netlist: Netlist, c: int) -> Netlist:
    """Replace every register with c registers (edge weights scaled by c)."""
    if c < 1:
        raise BadC("slowdown factor must be >= 1, got %r" % c)
    if c == 1:
        return netlist  # netlists are immutable by convention: no copy
    return netlist.with_weights([e.weight * c for e in netlist.edges])


def _host_names(netlist):
    return [n.name for n in netlist.nodes.values()
            if n.kind in (NodeKind.INPUT, NodeKind.OUTPUT)]


def retimed_weights(netlist: Netlist, lag: dict) -> list:
    """w_r for every edge, raising IllegalRetiming on any violation."""
    for host in _host_names(netlist):
        if lag.get(host, 0) != 0:
            raise IllegalRetiming("io node '%s' must keep lag 0" % host)
    weights = []
    for e in netlist.edges:
        w = e.weight + lag.get(e.dst, 0) - lag.get(e.src, 0)
        if w < 0:
            raise IllegalRetiming(
                "edge %s->%s pin %d would get weight %d" % (e.src, e.dst, e.pin, w))
        weights.append(w)
    return weights


def apply_retiming(netlist: Netlist, lag: dict) -> Netlist:
    return netlist.with_weights(retimed_weights(netlist, lag))


@dataclass
class RetimeResult:
    lag: dict  # node name -> nonzero lag
    period: int
    netlist: Netlist  # the input with the lags applied; meets `period`


def _feas(delay, edges, hosts, c, start):
    """Least s >= start meeting period c with io nodes equal, or None
    when c is infeasible; see the module docstring."""
    m = len(delay)
    s = list(start)
    parent = [-1] * m
    while True:
        into = [[] for _ in range(m)]  # register-free wires, by head
        fanout = [0] * m
        for u, v, w in edges:
            if w + s[u] == s[v]:
                into[v].append(u)
                fanout[u] += 1
        tail = [0] * m  # longest register-free delay after leaving the node
        end = list(range(m))
        order = [u for u in range(m) if not fanout[u]]
        raised = []
        for v in order:  # reverse topological; `order` grows as we go
            depart = delay[v] + tail[v]
            if depart > c:
                raised.append(v)
            for u in into[v]:
                if depart > tail[u]:
                    tail[u], end[u] = depart, end[v]
                fanout[u] -= 1
                if not fanout[u]:
                    order.append(u)
        if not raised:
            return s
        is_raised = [False] * m
        for v in raised:
            is_raised[v] = True
            parent[v] = end[v]
        tied = next((h for h in hosts if is_raised[h]), None)
        if tied is not None:
            pulled = [h for h in hosts if not is_raised[h]]
            for v in pulled:  # before the walk, so no host is queued twice
                is_raised[v] = True
            for v in pulled:  # `pulled` grows as we go
                parent[v] = parent[tied]
                raised.append(v)
                for u in into[v]:
                    if not is_raised[u]:
                        is_raised[u] = True
                        pulled.append(u)
        for v in raised:
            s[v] += 1
        if _has_cycle_from(parent) or max(s) >= m:
            return None


def _has_cycle_from(parent):
    """Whether following `parent` links (-1 ends a chain) ever loops."""
    walk = [0] * len(parent)
    for start in range(len(parent)):
        v = start
        while v >= 0 and not walk[v]:
            walk[v] = start + 1
            v = parent[v]
        if v >= 0 and walk[v] == start + 1:
            return True
    return False


def min_period_retime(netlist: Netlist) -> RetimeResult:
    """A legal retiming of minimum clock period (io lags pinned to 0)."""
    index = list(netlist.nodes)
    if not index:
        return RetimeResult({}, 0, netlist)
    pos = {name: i for i, name in enumerate(index)}
    delay = [netlist.nodes[name].delay for name in index]
    edges = [(pos[e.src], pos[e.dst], e.weight) for e in netlist.edges]
    hosts = [pos[h] for h in _host_names(netlist)]

    # The identity retiming meets the current period.
    period = critical_path(netlist).period
    s = [0] * len(index)
    lo, hi = max(delay), period - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        sol = _feas(delay, edges, hosts, mid, s)
        if sol is None:
            lo = mid + 1
        else:
            period, s, hi = mid, sol, mid - 1

    base = s[hosts[0]] if hosts else 0
    lag = {name: base - s[pos[name]] for name in index if s[pos[name]] != base}
    retimed = apply_retiming(netlist, lag)
    achieved = critical_path(retimed).period
    if achieved != period:
        raise AssertionError("retiming achieved period %d, expected %d"
                             % (achieved, period))
    return RetimeResult(lag, period, retimed)


def pipeline(netlist: Netlist, k: int) -> Netlist:
    """Insert k register ranks from the inputs of a feed-forward netlist
    and rebalance; every input-to-output path gains exactly k registers.

    Feedback circuits are rejected: extra registers in a loop change its
    function, which is exactly the case that calls for C-slow instead.
    """
    if k < 0:
        raise ValueError("pipeline depth must be >= 0, got %r" % k)
    arcs = [(e.src, e.dst) for e in netlist.edges]
    if len(topological_order(netlist.nodes, arcs)) < len(netlist.nodes):
        raise NotFeedForward("netlist has a feedback path; use cslow_transform")
    input_names = set(netlist.inputs())
    staged = netlist.with_weights(
        [e.weight + k if e.src in input_names else e.weight for e in netlist.edges])
    return min_period_retime(staged).netlist


@dataclass
class EquivalenceReport:
    passed: bool
    warmup: int
    trials: int
    cycles: int
    shift: int = 0
    mismatch: tuple | None = None  # (output name, cycle)

    @property
    def verdict(self):
        return "PASS" if self.passed else "FAIL"


def flush_warmup(a: Netlist, b: Netlist) -> int:
    """Conservative start-up transient bound: every register plus every
    node of the larger circuit has been flushed after this many cycles."""
    return (max(a.total_registers, b.total_registers)
            + max(len(a.nodes), len(b.nodes)))


def _check_interfaces(a, b):
    if a.inputs() != b.inputs() or set(a.outputs()) != set(b.outputs()):
        raise InterfaceMismatch(
            "io mismatch: %s/%s vs %s/%s"
            % (a.inputs(), a.outputs(), b.inputs(), b.outputs()))


def check_equivalence(a: Netlist, b: Netlist, trials: int = 100,
                      cycles: int | None = None, warmup: int | None = None,
                      shift: int = 0, seed: int = 0,
                      factor: int = 1) -> EquivalenceReport:
    """Drive both netlists with the same random streams and compare their
    outputs; see the module docstring.  `cycles`, `warmup` and `shift` all
    count b's cycles; a runs ceil(cycles / factor) steps.  `cycles`
    defaults to 256 compared cycles past `warmup + shift`; `warmup`
    defaults to `flush_warmup`.  A run too short to compare any cycle is
    refused rather than passed.

    Trials run bit-parallel: trial k occupies bit k of every stream value.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if factor < 1:
        raise BadC("slowdown factor must be >= 1, got %r" % factor)
    _check_interfaces(a, b)
    if warmup is None:
        warmup = flush_warmup(a, b)
    start = warmup + shift
    if cycles is None:
        cycles = start + 256
    if cycles < 1:
        raise ValueError("need at least one cycle")
    if start >= cycles:
        raise ValueError("need more than %d cycles to compare past warm-up %d "
                         "and shift %d" % (start, warmup, shift))
    getrandbits = random.Random(seed).getrandbits
    streams = {name: list(map(getrandbits, repeat(trials, cycles)))
               for name in a.inputs()}
    # a sees slot j = b's cycles j, j+factor, ... in lanes j*trials onwards.
    steps = -(-cycles // factor)
    pad = [0] * (steps * factor - cycles)
    packed = {}
    for name, stream in streams.items():
        stream = stream + pad
        column = stream[::factor]
        for j in range(1, factor):
            column = list(map(or_, column,
                              map(lshift, stream[j::factor], repeat(j * trials))))
        packed[name] = column
    outs_a = simulate(a, packed, steps, lanes=factor * trials)
    outs_b = simulate(b, streams, cycles, lanes=trials)
    mask = repeat((1 << trials) - 1)
    for name in a.outputs():
        column = outs_a[name]
        want = [0] * (steps * factor)  # a's outputs on b's clock
        for j in range(factor):
            want[j::factor] = map(and_, map(rshift, column, repeat(j * trials)), mask)
        want = want[warmup:cycles - shift]
        got = outs_b[name][start:]
        if got != want:
            t = start + next(t for t, (g, w) in enumerate(zip(got, want)) if g != w)
            return EquivalenceReport(False, warmup, trials, cycles, shift,
                                     mismatch=(name, t))
    return EquivalenceReport(True, warmup, trials, cycles, shift)


def check_cslow_equivalence(a: Netlist, b: Netlist, factor: int,
                            trials: int = 100, cycles: int = 256,
                            seed: int = 0) -> EquivalenceReport:
    """b, `factor`-slowed, against a from cycle 0 (all registers start at
    0), over `cycles` cycles of each slot."""
    return check_equivalence(a, b, trials, factor * cycles, warmup=0, seed=seed,
                             factor=factor)


# Published synthesis measurement for a 3-slow build of the microprogrammed
# core: slice registers grew 2107 -> 4270 (about 2.03x, not 3x, thanks to
# synthesis-level register optimisations).  Reported alongside the model's
# exact C-times scaling for reference only; never fed back into the model.
REFERENCE_SLICE_REGISTERS = {
    "slice_registers_before": 2107,
    "slice_registers_after": 4270,
    "ratio": round(4270 / 2107, 2),
    "note": "measured FPGA synthesis datum for a 3-slow build; "
            "synthesis effects are outside this model",
}


@dataclass
class AreaModel:
    registers_before: int
    registers_after: int
    gates: int  # gate count; identical before and after for every transform here
    ratio: Fraction | None  # None when the original has no registers

    def to_json(self) -> dict:
        return {
            "registers_before": self.registers_before,
            "registers_after": self.registers_after,
            "gates": self.gates,
            "ratio": None if self.ratio is None else float(self.ratio),
            "fpga_reference": dict(REFERENCE_SLICE_REGISTERS),
        }


def area_report(before: Netlist, after: Netlist) -> AreaModel:
    rb = before.total_registers
    ra = after.total_registers
    return AreaModel(
        registers_before=rb,
        registers_after=ra,
        gates=len(after.gates()),
        ratio=Fraction(ra, rb) if rb else None,
    )
