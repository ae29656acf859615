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

A netlist is indexed once, when `parse` or the constructor builds it: an
`Index` holds node i (the i-th declared) as its name, kind, delay and arity
in lists, and wire e as the integers src[e], dst[e] and pin[e]; the weights
are the netlist's own list.  `with_weights` (C-slow, retiming) shares the
index and replaces the weights alone.  Validation, the register-free order,
`critical_path`, the compiled simulator and the retimer walk these arrays,
and compare kinds by identity; `nodes` and `edges` are views by name, built
on first use.

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
from itertools import accumulate, chain, compress, islice
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter, not_
from typing import NamedTuple


class NetlistError(Exception):
    """Structural or syntax violations; collects all of them."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NodeKind(Enum):
    """A node's kind: `arity` input pins, and `expr`, its value in the
    compiled simulator's loop (see `_compile`).  Every value stays inside
    `mask`, so an `inverting` gate, one that maps all-zero inputs to 1, is
    an XOR with its live mask, its last operand: a local that is `mask`
    except where `simulate` is given one.  INPUT's operand is its value
    this cycle, which the loop draws from its stream."""

    INPUT = "input", 0, "%s & mask"
    OUTPUT = "output", 1, "%s"
    AND = "AND", 2, "%s & %s"
    OR = "OR", 2, "%s | %s"
    NOT = "NOT", 1, "%s ^ %s", True
    XOR = "XOR", 2, "%s ^ %s"
    NAND = "NAND", 2, "(%s & %s) ^ %s", True
    NOR = "NOR", 2, "(%s | %s) ^ %s", True
    BUF = "BUF", 1, "%s"
    CONST0 = "CONST0", 0, "0"
    CONST1 = "CONST1", 0, "%s", True

    def __new__(cls, value, arity, expr, inverting=False):
        kind = object.__new__(cls)
        kind._value_, kind.arity, kind.expr, kind.inverting = value, arity, expr, inverting
        return kind


INPUT, OUTPUT = NodeKind.INPUT, NodeKind.OUTPUT
GATE_KINDS = frozenset(k for k in NodeKind if k not in (INPUT, OUTPUT))
INVERTING = frozenset(k for k in NodeKind if k.inverting)
ARITY = {kind: kind.arity for kind in NodeKind}
_GATE_WORDS = {kind.value: kind for kind in GATE_KINDS}


@dataclass(frozen=True)
class Node:
    name: str
    kind: NodeKind
    delay: int = 0


class Edge(NamedTuple):
    src: str
    dst: str
    pin: int
    weight: int


class Index:
    """A netlist's structure as integer arrays, shared by every
    `with_weights` copy.  Node i has names[i], kinds[i], delays[i] and
    arity[i]; wire e runs from node src[e] to pin pin[e] of node dst[e].
    into[v] and out[v] are the wires into and out of node v, in wire order;
    io, inputs and outputs are node indices in node order."""

    __slots__ = ("names", "kinds", "delays", "arity", "src", "dst", "pin",
                 "into", "out", "io", "inputs", "outputs", "nodes")

    def __eq__(self, other):  # the same nodes and wires, in the same order
        return self is other or (isinstance(other, Index) and all(
            getattr(self, f) == getattr(other, f) for f in Index.__slots__[:7]))


def _build(names, kinds, delays, wires, lines=None, errors=None):
    """The index of a netlist, its weights, and its structural violations
    but negative weights and a combinational cycle (`Netlist._set` adds
    those).  Raises NetlistError at once on duplicate nodes and `parse`'s
    syntax errors (`errors`, (line, text) pairs; `lines`, each node's line),
    in line order, then on wires to unknown nodes."""
    pos = {name: i for i, name in enumerate(names)}
    if errors or len(pos) < len(names):
        errors, seen = errors or [], set()
        for i, name in enumerate(names):
            if name in seen:
                at = lines[i] if lines else 0
                errors.append((at, ("line %d: " % at if at else "") + "duplicate node '%s'" % name))
            seen.add(name)
        raise NetlistError(text for _, text in sorted(errors, key=itemgetter(0)))

    srcs, dsts, pins, weights = map(list, list(zip(*wires)) or [(), (), (), ()])
    src, dst = list(map(pos.get, srcs)), list(map(pos.get, dsts))
    if None in src or None in dst:  # reported wire by wire, with negative weights
        violations = []
        for s, d, w in zip(srcs, dsts, weights):
            violations += ["wire references unknown node '%s'" % end
                           for end in (s, d) if end not in pos]
            if w < 0:
                violations.append("wire %s->%s has negative weight" % (s, d))
        raise NetlistError(violations)

    ix = object.__new__(Index)
    ix.names, ix.kinds, ix.delays, ix.src, ix.dst, ix.pin = names, kinds, delays, src, dst, pins
    ix.arity = arity = [k.arity for k in kinds]
    ix.into, ix.out = [[] for _ in names], [[] for _ in names]
    for e, (s, d) in enumerate(zip(src, dst)):
        ix.out[s].append(e)
        ix.into[d].append(e)
    ix.inputs = [i for i, k in enumerate(kinds) if k is INPUT]
    ix.outputs = [i for i, k in enumerate(kinds) if k is OUTPUT]
    ix.io = [i for i, k in enumerate(kinds) if k is INPUT or k is OUTPUT]
    ix.nodes = None

    # Pin p of node v is slot base[v] + p; fed_by[slot] is the wire into it.
    violations = []
    base = list(accumulate(arity, initial=0))
    fed_by = [-1] * base[-1]
    for e, (d, p) in enumerate(zip(dst, pins)):
        if not 0 <= p < arity[d]:
            violations.append("node '%s' (%s) has no pin %d for wire from '%s'"
                              % (names[d], kinds[d].value, p, names[src[e]]))
            continue
        if fed_by[base[d] + p] >= 0:
            violations.append("pin %d of '%s' driven twice" % (p, names[d]))
        fed_by[base[d] + p] = e
    if min(delays, default=0) < 0 or -1 in fed_by or any(delays[i] for i in ix.io):
        for i, name in enumerate(names):
            if delays[i] < 0:
                violations.append("node '%s' has negative delay" % name)
            if (kinds[i] is INPUT or kinds[i] is OUTPUT) and delays[i] != 0:
                violations.append("io node '%s' must have delay 0" % name)
            violations += ["pin %d of '%s' is undriven" % (p, name)
                           for p in range(arity[i]) if fed_by[base[i] + p] < 0]
    return ix, weights, violations


class Netlist:
    """Immutable-by-convention gate graph; construction validates."""

    def __init__(self, nodes, edges):
        nodes = list(nodes)
        self._set(*_build([n.name for n in nodes], [n.kind for n in nodes],
                          [n.delay for n in nodes], edges))

    def _set(self, index, weights, violations=(), parent=None):
        if min(weights, default=0) < 0:
            raise NetlistError("wire %s->%s has negative weight"
                               % (index.names[s], index.names[d])
                               for s, d, w in zip(index.src, index.dst, weights) if w < 0)
        if parent is not None and list(map(not_, weights)) == list(map(not_, parent.weights)):
            order = parent._order  # the same register-free wires
        else:
            order = register_free_order(index, weights)
            if len(order) < len(index.names):
                violations = [*violations, _cycle(index, weights, order)]
        if violations:
            raise NetlistError(violations)
        self.index, self.weights = index, weights
        self._order = order  # node indices in register-free topological order
        self._edges = None
        self._simulator = None  # `simulate`'s compiled function, built once

    @property
    def nodes(self):
        """{name: Node} in node order, shared with every `with_weights` copy."""
        ix = self.index
        if ix.nodes is None:
            ix.nodes = dict(zip(ix.names, map(Node, ix.names, ix.kinds, ix.delays)))
        return ix.nodes

    @property
    def edges(self):
        if self._edges is None:
            ix = self.index
            self._edges = tuple(map(Edge, map(ix.names.__getitem__, ix.src),
                                    map(ix.names.__getitem__, ix.dst), ix.pin, self.weights))
        return self._edges

    @property
    def order(self):
        """Node names in register-free topological order."""
        return list(map(self.index.names.__getitem__, self._order))

    def inputs(self):
        return list(map(self.index.names.__getitem__, self.index.inputs))

    def outputs(self):
        return list(map(self.index.names.__getitem__, self.index.outputs))

    def gates(self):
        ix = self.index
        return [name for name, k in zip(ix.names, ix.kinds) if k is not INPUT and k is not OUTPUT]

    @property
    def total_registers(self):
        return sum(self.weights)

    def with_weights(self, weights) -> "Netlist":
        """Same structure with edge weights replaced (one per edge, in order).

        The copy shares this netlist's index; only what depends on the
        weights is checked again: no weight may be negative, and no
        register-free loop may close.  When every wire keeps or lacks
        registers as here, the register-free order is this one's."""
        weights = list(weights)
        if len(weights) != len(self.weights):
            raise ValueError("%d weights for %d wires" % (len(weights), len(self.weights)))
        new = object.__new__(Netlist)
        new._set(self.index, weights, parent=self)
        return new

    def __eq__(self, other):
        return (isinstance(other, Netlist)
                and self.index == other.index and self.weights == other.weights)

    def __repr__(self):
        return "Netlist(%d nodes, %d edges, %d registers)" % (
            len(self.index.names), len(self.weights), self.total_registers)


def register_free_order(index, weights) -> list:
    """Node indices in an order where every wire of weight 0 has its source
    first (Kahn's algorithm).  It is short when those wires close a cycle:
    nodes on a cycle, or after one, are left out."""
    dst, out = index.dst, index.out
    indeg = [0] * len(index.names)
    for d in compress(dst, map(not_, weights)):
        indeg[d] += 1
    ready = [v for v, d in enumerate(indeg) if not d]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for e in out[u]:
            if not weights[e]:
                v = dst[e]
                indeg[v] -= 1
                if not indeg[v]:
                    ready.append(v)
    return order


def _cycle(index, weights, order):
    """The violation naming a register-free cycle among the nodes `order`
    left out: each has a register-free predecessor among them, so walking
    back from one closes a cycle."""
    left = set(range(len(index.names))).difference(order)
    pred = {d: s for s, d, w in zip(index.src, index.dst, weights) if not w and s in left}
    path, at, v = [], {}, min(left)
    while v not in at:
        at[v] = len(path)
        path.append(v)
        v = pred[v]
    cycle = reversed(path[at[v]:] + [v])
    return "combinational cycle: %s" % " -> ".join(map(index.names.__getitem__, cycle))


def parse(text: str) -> Netlist:
    """Parse the netlist file format; raises NetlistError listing every
    syntax and structural violation found."""
    nodes, wires, errors = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        word, count = fields[0], len(fields)
        try:
            if word == "wire" and count == 5:
                wires.append((fields[1], fields[2], int(fields[3]), int(fields[4])))
                continue
            if word == "gate" and count == 4 and fields[2] in _GATE_WORDS:
                kind, delay = _GATE_WORDS[fields[2]], int(fields[3])
            elif word in ("input", "output") and count == 2:
                kind, delay = (INPUT if word == "input" else OUTPUT), 0
            else:
                raise ValueError(word)
        except ValueError:
            errors.append((lineno, "line %d: cannot parse %r" % (lineno, raw.strip())))
            continue
        nodes.append((fields[1], kind, delay, lineno))
    names, kinds, delays, lines = map(list, list(zip(*nodes)) or [(), (), (), ()])
    netlist = object.__new__(Netlist)
    netlist._set(*_build(names, kinds, delays, wires, lines, errors))
    return netlist


def to_text(netlist: Netlist) -> str:
    ix = netlist.index
    lines = ["%s %s" % (kind.value, name) if kind is INPUT or kind is OUTPUT
             else "gate %s %s %d" % (name, kind.value, delay)
             for name, kind, delay in zip(ix.names, ix.kinds, ix.delays)]
    lines += ["wire %s %s %d %d" % (ix.names[s], ix.names[d], p, w)
              for s, d, p, w in zip(ix.src, ix.dst, ix.pin, netlist.weights)]
    return "\n".join(lines) + "\n"


@dataclass
class CriticalPath:
    period: int
    path: list  # node names along one maximising register-free path


def critical_path(netlist: Netlist) -> CriticalPath:
    """Longest total delay along any register-free path (the clock period):
    one pass over the index in register-free order, reading each node's
    wires of weight 0."""
    ix, weights = netlist.index, netlist.weights
    src, into, delays = ix.src, ix.into, ix.delays
    arrival, pred, best = [0] * len(delays), [-1] * len(delays), -1
    for v in netlist._order:
        incoming = 0
        for e in into[v]:
            if not weights[e] and arrival[src[e]] > incoming:
                incoming = arrival[src[e]]
                pred[v] = src[e]
        arrival[v] = delays[v] + incoming
        if best < 0 or arrival[v] > arrival[best]:
            best = v
    if best < 0 or arrival[best] == 0:
        return CriticalPath(0, [])
    period, path = arrival[best], []
    while best >= 0:
        path.append(ix.names[best])
        best = pred[best]
    path.reverse()
    return CriticalPath(period, path)


# A driving node whose deepest outgoing wire holds at most this many
# registers keeps its recent values in locals; a deeper one, in a deque.
# Locals cost an assignment per value and cycle, a deque an append per
# cycle and an index per wire read: on CPython 3.11 the two break even
# near depth 8, 11 and 15 for a node read by one, two and three wires.
LOCAL_DEPTH = 12


def _compile(netlist):
    """Source of `run(cycles, mask, n, live, probe, hook, *input streams)`,
    which simulates `netlist` and returns one output stream per
    `netlist.outputs()` name, in that order; also the input names in
    parameter order, and the inverting gates' names in the order of the
    tuples `live` yields.

    Node i (the i-th declared) is the local `v<i>`, assigned in register-free
    topological order.  The loop draws one value a cycle from each input
    stream `s<i>` (zipped with the cycle count, so a stream may be a lazy
    iterator, read only up to the cycle the run ends in) into `x<i>`; an
    output appends to its list `s<i>` through the bound method `a<i>`.  A
    node whose deepest outgoing wire holds d registers keeps its last d
    values in `r<i>_1`..`r<i>_d`, shifted each cycle, when d is at most
    `LOCAL_DEPTH`, and in the bounded deque `q<i>` otherwise.  The `r<i>_k`
    are keyword-only parameters that start at 0: a default costs less to
    compile than a statement per local.  An inverting gate XORs with its
    live mask `m<i>`, which starts as `mask`; in each of the cycles 0..n
    the next tuple from the iterator `live` replaces them all, and past
    those the loop body is what it would be without them but for one
    comparison.
    At the start of cycle `probe`, before any node is evaluated, the loop
    calls `hook(t, histories, outputs)`: every register history value
    (each `r<i>_k`, then each deque's values) in one tuple, and the output
    lists so far.  The hook returns the next cycle to probe, or None to end
    the run there.  With a probe of -1 it is never called.
    No netlist string reaches the source: identifiers are built from
    indices alone.
    """
    ix, weights = netlist.index, netlist.weights
    depth = {}  # register source index -> deepest wire it drives
    for i, w in zip(ix.src, weights):
        if w and w > depth.get(i, 0):
            depth[i] = w

    def read(e):
        i, w = ix.src[e], weights[e]
        if not w:
            return "v%d" % i
        if depth[i] <= LOCAL_DEPTH:
            return "r%d_%d" % (i, w)
        return "q%d[-%d]" % (i, w)

    fanin = {(d, p): read(e) for e, (d, p) in enumerate(zip(ix.dst, ix.pin))}
    start, step, zeros, gated = [], [], [], []
    for i in netlist._order:
        kind = ix.kinds[i]
        args = (("x%d" % i,) if kind is INPUT else
                tuple(fanin[i, p] for p in range(ix.arity[i])))
        if kind.inverting:
            args += ("m%d" % i,)
            gated.append(i)
        step.append("v%d = %s" % (i, kind.expr % args))
    if gated:
        masks = ["m%d" % i for i in gated]
        start.append("%s = mask" % " = ".join(masks))
        step.insert(0, "if t <= n: %s, = next(live)" % ", ".join(masks))
    step += ["a%d(v%d)" % (i, i) for i in ix.outputs]
    held = []  # the histories, as the probe hands them over
    for i, d in depth.items():
        if d <= LOCAL_DEPTH:
            zeros += ["r%d_%d=0" % (i, k) for k in range(1, d + 1)]
            step += ["r%d_%d = r%d_%d" % (i, k, i, k - 1) for k in range(d, 1, -1)]
            step.append("r%d_1 = v%d" % (i, i))
            held += ["r%d_%d" % (i, k) for k in range(1, d + 1)]
        else:
            start.append("q%d = deque([0] * %d, %d)" % (i, d, d))
            step.append("q%d.append(v%d)" % (i, i))
            held.append("*q%d" % i)
    for i in ix.outputs:
        start += ["s%d = []" % i, "a%d = s%d.append" % (i, i)]
    outs = "".join("s%d, " % i for i in ix.outputs)
    step[:0] = ["if t == probe:",
                "    probe = hook(t, (%s), (%s))" % ("".join(h + ", " for h in held), outs),
                "    if probe is None: break"]

    params = ["cycles", "mask", "n", "live", "probe", "hook"] + ["s%d" % i for i in ix.inputs]
    if zeros:  # keyword-only, so every call leaves them at their default
        params += ["*"] + zeros
    lines = ["def run(%s):" % ", ".join(params)]
    lines += ["    " + line for line in start]
    lines.append("    for t, %sin zip(range(cycles), %s):"
                 % ("".join("x%d, " % i for i in ix.inputs),
                    ", ".join("s%d" % i for i in ix.inputs)))
    lines += ["        " + line for line in step]
    lines.append("    return [%s]" % outs)
    return "\n".join(lines) + "\n", netlist.inputs(), [ix.names[i] for i in gated]


def simulate(netlist: Netlist, inputs: dict, cycles: int, lanes: int = 1,
             live: tuple | None = None, probe: tuple | None = None) -> dict:
    """Clocked simulation for `cycles` cycles; returns output streams.

    `inputs` maps every input name to a sequence of at least `cycles`
    values, or to an iterator of them: the run draws one value a cycle, so
    a lazy stream is computed only up to the cycle the run ends in.  With
    lanes=1 values are bits; larger `lanes` runs that many independent
    bit-parallel simulations at once (each value is an integer whose bit k
    belongs to lane k), which all gate functions respect.  Registers start
    at 0; outputs are sampled after combinational settling each cycle, then
    every register pipeline shifts.

    `live`, if given, is a pair (n, masks): `masks` maps every NOT, NAND,
    NOR and CONST1 node to an iterable of at least n lane masks, its live
    lanes in each of the first n cycles.  In those cycles such a gate XORs
    with its live mask where it otherwise XORs with all lanes (CONST1 is
    its mask), so in a lane outside the mask whose inputs are 0 the gate
    reads 0, as though it had not started yet.  From cycle n on every lane
    is live.  The masks are read a cycle at a time, so lazy iterables keep
    memory to one mask per gate however long the start-up.

    `probe`, if given, is a pair (t, hook): at the start of cycle t, and
    then of each cycle the hook names, `hook(t, histories, outputs)` sees
    every register's value (in no promised order, one tuple) and the
    output lists, in `netlist.outputs()` order, of the cycles before t.  It
    returns the next cycle to probe, or None to stop there; the output
    streams then hold t values.

    The first call on a netlist compiles it (see the module docstring and
    `_compile`: one assignment per node, one bitwise expression per gate)
    and keeps the function on the netlist, which is immutable by
    convention, so later calls on it compile nothing.
    """
    missing = [name for name in netlist.inputs() if name not in inputs]
    if missing:
        raise ValueError("missing input streams: %s" % ", ".join(missing))
    for name in netlist.inputs():
        if hasattr(inputs[name], "__len__") and len(inputs[name]) < cycles:
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
    streams = run(cycles, mask, n, rows, *(probe or (-1, None)),
                  *(inputs[name] for name in order))
    if probe is None and streams and len(streams[0]) < cycles:
        raise ValueError("input streams shorter than %d cycles" % cycles)
    return dict(zip(netlist.outputs(), streams))
