"""Synchronous gate-level netlists: parsing, validation, critical path,
bit-true simulation.

Registers live on edges as integer weights (an edge of weight k is a k-deep
register pipeline, every register initialised to 0).  Gate delays are
non-negative integers; the clock period of a netlist is the largest total
delay along any register-free path.  Every directed cycle must carry at
least one register.

File format (line-based, `#` comments):
    input <name>
    output <name>
    gate <name> <kind> <delay>
    wire <from> <to> <pin> <weight>

Simulation is compiled: the first `simulate` call on a netlist turns it
into one Python function whose loop body is straight-line code for a cycle,
nodes in register-free topological order, and keeps that function on the
netlist for later calls.  A register pipeline is not stored per register:
each node that drives registers keeps its own last d values, d being the
largest weight on its outgoing wires, and a wire of weight k reads the
value from k cycles back.  Up to `LOCAL_DEPTH` values are locals that
shift by plain assignments each cycle; a deeper history is a bounded
deque that takes one append.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class NetlistError(Exception):
    """Structural or syntax violations; collects all of them."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NodeKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    XOR = "XOR"
    NAND = "NAND"
    NOR = "NOR"
    BUF = "BUF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"


GATE_KINDS = frozenset(k for k in NodeKind
                       if k not in (NodeKind.INPUT, NodeKind.OUTPUT))

ARITY = {
    NodeKind.INPUT: 0,
    NodeKind.OUTPUT: 1,
    NodeKind.AND: 2,
    NodeKind.OR: 2,
    NodeKind.XOR: 2,
    NodeKind.NAND: 2,
    NodeKind.NOR: 2,
    NodeKind.NOT: 1,
    NodeKind.BUF: 1,
    NodeKind.CONST0: 0,
    NodeKind.CONST1: 0,
}


@dataclass(frozen=True)
class Node:
    name: str
    kind: NodeKind
    delay: int = 0


# A named tuple: `with_weights` builds every edge anew, and a frozen
# dataclass would set each field through `object.__setattr__`.
class Edge(NamedTuple):
    src: str
    dst: str
    pin: int
    weight: int


class Netlist:
    """Immutable-by-convention gate graph; construction validates."""

    def __init__(self, nodes, edges):
        self.nodes = {n.name: n for n in nodes}
        self._set_edges(edges, validate)

    def _set_edges(self, edges, check):
        self.edges = tuple(edges)
        # Node names in register-free topological order, for the walks of
        # `critical_path` and the compiled simulator.
        violations, self.order = check(self.nodes, self.edges)
        if violations:
            raise NetlistError(violations)
        self._simulator = None  # `simulate`'s compiled function, built once

    def inputs(self):
        return [n.name for n in self.nodes.values() if n.kind is NodeKind.INPUT]

    def outputs(self):
        return [n.name for n in self.nodes.values() if n.kind is NodeKind.OUTPUT]

    def gates(self):
        return [n.name for n in self.nodes.values() if n.kind in GATE_KINDS]

    @property
    def total_registers(self):
        return sum(e.weight for e in self.edges)

    def with_weights(self, weights) -> "Netlist":
        """Same structure with edge weights replaced (one per edge, in order).

        Only the weights change, so only what depends on them is checked
        again: no weight may be negative, and no register-free loop may
        close."""
        new = object.__new__(Netlist)
        new.nodes = self.nodes
        new._set_edges([Edge(e.src, e.dst, e.pin, w)
                        for e, w in zip(self.edges, weights, strict=True)], _reweighted)
        return new

    def __eq__(self, other):
        return (isinstance(other, Netlist)
                and self.nodes == other.nodes and self.edges == other.edges)

    def __repr__(self):
        return "Netlist(%d nodes, %d edges, %d registers)" % (
            len(self.nodes), len(self.edges), self.total_registers)


def validate(nodes, edges):
    """All structural violations (empty when the netlist is well formed) and
    the node names in register-free topological order."""
    violations = []
    for e in edges:
        for end in (e.src, e.dst):
            if end not in nodes:
                violations.append("wire references unknown node '%s'" % end)
        if e.weight < 0:
            violations.append("wire %s->%s has negative weight" % (e.src, e.dst))
    if violations:
        return violations, []

    drivers = {}
    for e in edges:
        dst = nodes[e.dst]
        arity = ARITY[dst.kind]
        if not 0 <= e.pin < max(arity, 1) or arity == 0:
            violations.append("node '%s' (%s) has no pin %d for wire from '%s'"
                              % (e.dst, dst.kind.value, e.pin, e.src))
            continue
        key = (e.dst, e.pin)
        if key in drivers:
            violations.append("pin %d of '%s' driven twice" % (e.pin, e.dst))
        drivers[key] = e

    for n in nodes.values():
        if n.delay < 0:
            violations.append("node '%s' has negative delay" % n.name)
        if n.kind in (NodeKind.INPUT, NodeKind.OUTPUT) and n.delay != 0:
            violations.append("io node '%s' must have delay 0" % n.name)
        for pin in range(ARITY[n.kind]):
            if (n.name, pin) not in drivers:
                violations.append("pin %d of '%s' is undriven" % (pin, n.name))

    cycle, order = _register_free_order(nodes, edges)
    return violations + cycle, order


def _reweighted(nodes, edges):
    """`validate` for the edges of a valid netlist with new weights."""
    violations = ["wire %s->%s has negative weight" % (e.src, e.dst)
                  for e in edges if e.weight < 0]
    if violations:
        return violations, []
    return _register_free_order(nodes, edges)


def _register_free_order(nodes, edges):
    """A combinational-cycle violation, if any, and the node names in
    register-free topological order."""
    arcs = [(e.src, e.dst) for e in edges if e.weight == 0]
    order = topological_order(nodes, arcs)
    if len(order) == len(nodes):
        return [], order
    # Each node the order left out has a register-free predecessor among
    # them, so walking back from one closes a cycle.
    left = set(nodes).difference(order)
    pred = {dst: src for src, dst in arcs if src in left}
    path, at = [], {}
    name = next(n for n in nodes if n in left)
    while name not in at:
        at[name] = len(path)
        path.append(name)
        name = pred[name]
    cycle = path[at[name]:] + [name]
    return ["combinational cycle: %s" % " -> ".join(reversed(cycle))], order


def topological_order(names, arcs) -> list:
    """`names` in an order where every (src, dst) pair of `arcs` has src
    first (Kahn's algorithm).  It is short when the arcs close a cycle:
    nodes on a cycle, or after one, are left out."""
    indeg = dict.fromkeys(names, 0)
    succ = {name: [] for name in names}
    for src, dst in arcs:
        indeg[dst] += 1
        succ[src].append(dst)
    ready = [name for name, d in indeg.items() if d == 0]
    order = []
    while ready:
        name = ready.pop()
        order.append(name)
        for nxt in succ[name]:
            indeg[nxt] -= 1
            if not indeg[nxt]:
                ready.append(nxt)
    return order


def parse(text: str) -> Netlist:
    """Parse the netlist file format; raises NetlistError listing every
    syntax and structural violation found."""
    nodes = []
    edges = []
    errors = []
    seen = set()

    def add_node(name, kind, delay, lineno):
        if name in seen:
            errors.append("line %d: duplicate node '%s'" % (lineno, name))
        else:
            seen.add(name)
            nodes.append(Node(name, kind, delay))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        word = fields[0]
        try:
            if word == "input" and len(fields) == 2:
                add_node(fields[1], NodeKind.INPUT, 0, lineno)
            elif word == "output" and len(fields) == 2:
                add_node(fields[1], NodeKind.OUTPUT, 0, lineno)
            elif word == "gate" and len(fields) == 4:
                kind = NodeKind(fields[2])
                if kind not in GATE_KINDS:
                    raise ValueError(fields[2])
                add_node(fields[1], kind, int(fields[3]), lineno)
            elif word == "wire" and len(fields) == 5:
                edges.append(Edge(fields[1], fields[2], int(fields[3]), int(fields[4])))
            else:
                errors.append("line %d: cannot parse %r" % (lineno, raw.strip()))
        except ValueError:
            errors.append("line %d: cannot parse %r" % (lineno, raw.strip()))

    if errors:
        raise NetlistError(errors)
    return Netlist(nodes, edges)


def to_text(netlist: Netlist) -> str:
    lines = []
    for n in netlist.nodes.values():
        if n.kind is NodeKind.INPUT:
            lines.append("input %s" % n.name)
        elif n.kind is NodeKind.OUTPUT:
            lines.append("output %s" % n.name)
        else:
            lines.append("gate %s %s %d" % (n.name, n.kind.value, n.delay))
    for e in netlist.edges:
        lines.append("wire %s %s %d %d" % (e.src, e.dst, e.pin, e.weight))
    return "\n".join(lines) + "\n"


@dataclass
class CriticalPath:
    period: int
    path: list  # node names along one maximising register-free path


def critical_path(netlist: Netlist) -> CriticalPath:
    """Longest total delay along any register-free path (the clock period)."""
    arrival = {}
    pred = {}
    fanin = {name: [] for name in netlist.nodes}
    for e in netlist.edges:
        if e.weight == 0:
            fanin[e.dst].append(e.src)
    best_name = None
    for name in netlist.order:
        node = netlist.nodes[name]
        incoming = 0
        via = None
        for src in fanin[name]:
            if arrival[src] > incoming:
                incoming = arrival[src]
                via = src
        arrival[name] = node.delay + incoming
        pred[name] = via
        if best_name is None or arrival[name] > arrival[best_name]:
            best_name = name
    if best_name is None or arrival[best_name] == 0:
        return CriticalPath(0, [])
    path = []
    node = best_name
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    return CriticalPath(arrival[best_name], path)


# The gates that map all-zero inputs to 1.  Each XORs with its own live
# mask, a local that is `mask` except where `simulate` is given one.
INVERTING = frozenset({NodeKind.NOT, NodeKind.NAND, NodeKind.NOR, NodeKind.CONST1})

# One expression per node kind.  Every value stays inside `mask`, so the
# inverting gates are an XOR with their live mask, the last operand.
# INPUT's operand is its own stream.
_EXPR = {
    NodeKind.INPUT: "%s[t] & mask",
    NodeKind.OUTPUT: "%s",
    NodeKind.BUF: "%s",
    NodeKind.AND: "%s & %s",
    NodeKind.OR: "%s | %s",
    NodeKind.XOR: "%s ^ %s",
    NodeKind.NAND: "(%s & %s) ^ %s",
    NodeKind.NOR: "(%s | %s) ^ %s",
    NodeKind.NOT: "%s ^ %s",
    NodeKind.CONST0: "0",
    NodeKind.CONST1: "%s",
}


# A driving node whose deepest outgoing wire holds at most this many
# registers keeps its recent values in locals; a deeper one, in a deque.
# Locals cost an assignment per value and cycle, a deque an append per
# cycle and an index per wire read: on CPython 3.11 the two break even
# near depth 8, 11 and 15 for a node read by one, two and three wires.
LOCAL_DEPTH = 12


def _compile(netlist):
    """Source of `run(cycles, mask, n, live, *input streams)`, which simulates
    `netlist` and returns one output stream per `netlist.outputs()` name,
    in that order; also the input names in parameter order, and the
    inverting gates' names in the order of the tuples `live` yields.

    Node i (in zero-weight topological order) is the local `v<i>`, and its
    stream `s<i>` if it is an input or an output; an output appends through
    the bound method `a<i>`.  A node whose deepest outgoing wire holds d
    registers keeps its last d values in `r<i>_1`..`r<i>_d`, shifted each
    cycle, when d is at most `LOCAL_DEPTH`, and in the bounded deque `q<i>`
    otherwise.  The `r<i>_k` are keyword-only parameters that start at 0:
    a default costs less to compile than a statement per local.  An
    inverting gate XORs with its live mask `m<i>`, which starts as `mask`;
    in each of the cycles 0..n the next tuple from the iterator `live`
    replaces them all, and past those the loop body is what it would be
    without them but for one comparison.
    No netlist string reaches the source: identifiers are built from
    indices alone.
    """
    order = netlist.order
    index = {name: i for i, name in enumerate(order)}
    depth = {}  # register source index -> deepest wire it drives
    for e in netlist.edges:
        if e.weight:
            i = index[e.src]
            depth[i] = max(depth.get(i, 0), e.weight)

    def read(e):
        i = index[e.src]
        if not e.weight:
            return "v%d" % i
        if depth[i] <= LOCAL_DEPTH:
            return "r%d_%d" % (i, e.weight)
        return "q%d[-%d]" % (i, e.weight)

    fanin = {(e.dst, e.pin): read(e) for e in netlist.edges}
    inputs = [name for name in order if netlist.nodes[name].kind is NodeKind.INPUT]
    outputs = [index[name] for name in netlist.outputs()]

    start, step, zeros, gated = [], [], [], []
    for i, name in enumerate(order):
        kind = netlist.nodes[name].kind
        args = (("s%d" % i,) if kind is NodeKind.INPUT else
                tuple(fanin[(name, p)] for p in range(ARITY[kind])))
        if kind in INVERTING:
            args += ("m%d" % i,)
            gated.append(i)
        step.append("v%d = %s" % (i, _EXPR[kind] % args))
    if gated:
        masks = ["m%d" % i for i in gated]
        start.append("%s = mask" % " = ".join(masks))
        step.insert(0, "if t <= n: %s, = next(live)" % ", ".join(masks))
    step += ["a%d(v%d)" % (i, i) for i in outputs]
    for i, d in depth.items():
        if d <= LOCAL_DEPTH:
            zeros += ["r%d_%d=0" % (i, k) for k in range(1, d + 1)]
            step += ["r%d_%d = r%d_%d" % (i, k, i, k - 1) for k in range(d, 1, -1)]
            step.append("r%d_1 = v%d" % (i, i))
        else:
            start.append("q%d = deque([0] * %d, %d)" % (i, d, d))
            step.append("q%d.append(v%d)" % (i, i))
    for i in outputs:
        start += ["s%d = []" % i, "a%d = s%d.append" % (i, i)]

    params = ["cycles", "mask", "n", "live"] + ["s%d" % index[name] for name in inputs]
    if zeros:  # keyword-only, so every call leaves them at their default
        params += ["*"] + zeros
    lines = ["def run(%s):" % ", ".join(params)]
    lines += ["    " + line for line in start]
    lines.append("    for t in range(cycles):")
    lines += ["        " + line for line in step or ["pass"]]
    lines.append("    return [%s]" % ", ".join("s%d" % i for i in outputs))
    return "\n".join(lines) + "\n", inputs, [order[i] for i in gated]


def simulate(netlist: Netlist, inputs: dict, cycles: int, lanes: int = 1,
             live: tuple | None = None) -> dict:
    """Clocked simulation for `cycles` cycles; returns output streams.

    `inputs` maps every input name to a sequence of at least `cycles`
    values.  With lanes=1 values are bits; larger `lanes` runs that many
    independent bit-parallel simulations at once (each value is an integer
    whose bit k belongs to lane k), which all gate functions respect.
    Registers start at 0; outputs are sampled after combinational settling
    each cycle, then every register pipeline shifts.

    `live`, if given, is a pair (n, masks): `masks` maps every NOT, NAND,
    NOR and CONST1 node to an iterable of at least n lane masks, its live
    lanes in each of the first n cycles.  In those cycles such a gate XORs
    with its live mask where it otherwise XORs with all lanes (CONST1 is
    its mask), so in a lane outside the mask whose inputs are 0 the gate
    reads 0, as though it had not started yet.  From cycle n on every lane
    is live.  The masks are read a cycle at a time, so lazy iterables keep
    memory to one mask per gate however long the start-up.

    The first call on a netlist compiles it into one Python function whose
    loop body is straight-line code for a cycle (see `_compile`): one
    assignment per node, one bitwise expression per gate.  The function is
    kept on the netlist, which is immutable by convention, so later calls
    on it compile nothing.  Registers are kept per driving node, not per
    register: up to `LOCAL_DEPTH` deep as locals that shift by plain
    assignments, deeper as a bounded deque that takes one append a cycle,
    so neither the source nor a cycle's work grows with a wire's depth
    past that bound.
    """
    missing = [name for name in netlist.inputs() if name not in inputs]
    if missing:
        raise ValueError("missing input streams: %s" % ", ".join(missing))
    for name in netlist.inputs():
        if len(inputs[name]) < cycles:
            raise ValueError("input stream '%s' shorter than %d cycles" % (name, cycles))

    if netlist._simulator is None:
        source, order, gated = _compile(netlist)
        namespace = {"deque": deque}
        exec(compile(source, "<netlist>", "exec"), namespace)
        # Popped, not read: the function keeps `namespace` as its globals,
        # and leaving it there too would be a reference cycle only the GC
        # frees.
        netlist._simulator = namespace.pop("run"), order, gated
    run, order, gated = netlist._simulator
    mask = (1 << lanes) - 1
    n, rows = -1, None
    if live:  # n tuples of masks, then one that sets them all back to `mask`
        n, masks = live
        rows = chain(islice(zip(*(masks[name] for name in gated)), n), [(mask,) * len(gated)])
    streams = run(cycles, mask, n, rows, *(inputs[name] for name in order))
    return dict(zip(netlist.outputs(), streams))
