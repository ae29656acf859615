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

The search probes the largest gate delay first, a bound C-slowed netlists
often meet, then is binary over the integer periods above it; each
feasible probe's s starts the smaller ones, whose least s is larger.
`min_period_retime` returns the lags as a dict {node name: lag} of the
nonzero ones, the period, and the retimed netlist, checked to meet it.

Equivalence (`check_equivalence`) is checked on `cycles` random values per
input, drawn on b's clock.  With a slow-down `factor`, a is the circuit
before C-slow: b's cycles j, j + factor, ... are a's slot j, and a runs all
slots side by side, slot j in lanes j * trials onwards.  b at cycle t must
match a at t - `shift` (pipelining latency), from cycle `warmup + shift`
on.  C-slow is exact from cycle 0, since every register starts at 0, so a
retimed C-slowed netlist is checked against the original itself; retiming
may disagree with its source during a start-up transient, which the CLI
waits out (`flush_warmup`).  `check_cslow_equivalence` checks C-slow alone.

Without a shift, a b that is apply_retiming(cslow_transform(a, factor), r)
is never compiled: `recover_lags` finds r (0 on io nodes) from the wire
weights, and b runs inside a's simulation (`simulate_lag_shifted`).
Retiming only shifts each node's phase: b's node v at cycle t is
Z_v(t + start(v)), start = -r, where Z follows the C-slowed a's recurrence
except that Z_v(tau) is 0 for tau < start(v), the cycles before b started,
which its zero registers stand for.  Slot time T * factor + j is lane
block j of a's step T, so b's threads take lanes [W, 2W), W = factor *
trials, beside a's own in [0, W).  A legal retiming has start(u) + factor
* w >= start(v) on every wire, so before its start a node reads only nodes
that have not started; only the gates that map zeros to 1 (NOT, NAND,
NOR, CONST1) must be held at 0 there, and `simulate`'s live masks do that.
The run starts at the step of the earliest such start (at most 0) with
zero inputs, a's half with start 0 everywhere.  From step
ceil(max start / factor) on every mask is `mask`.  The lanes are b's
values exactly, so every verdict and mismatch is the direct run's; any
other b is simulated on its own.

A b whose lags leave every inverting gate at 0 (`keeps_inverting_gates`)
is certified before any input is drawn or compiled: the report is a PASS
with no step simulated.  This is exact, since such a b equals the C-slowed
a from cycle 0.  No mask holds any lane, so b's half runs a's recurrence
from step 0, from the same zero registers: the lag-shifted run reaches the
same report by (a) below at step 0.  Directly: before its start a node
reads only nodes that have not started, the inverting ones among them only
at negative times, where registers hold 0, and the zero-preserving gates
keep that 0, so a's values before each start are Z's zeros.

The lag-shifted check stops as soon as its report is decided, which one
of two events settles.  (a) Once every mask is `mask`, both halves run a's
recurrence on the same inputs, so if every register history then holds
equal halves, no later step differs and the steps so far give the report.
(b) The report is output-major, so once a's first output differs in the
compared window, the report names it and its first differing cycle
whatever comes later.  The check probes for both at the first step where
either can hold, then at gaps growing to `PROBE_GAP` steps; the input
columns are packed as the simulation reads them, so the preparation stops
with it.  `EquivalenceReport.simulated` counts the steps run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import and_, lshift, mul, or_, rshift, xor

from .netlist import INPUT, Netlist, critical_path, register_free_order, simulate


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
    return netlist.with_weights([w * c for w in netlist.weights])


def retimed_weights(netlist: Netlist, lag: dict) -> list:
    """w_r for every edge, raising IllegalRetiming on any violation."""
    ix = netlist.index
    r = list(map(lag.get, ix.names, repeat(0)))
    for i in ix.io:
        if r[i] != 0:
            raise IllegalRetiming("io node '%s' must keep lag 0" % ix.names[i])
    weights = [w + r[d] - r[s] for w, s, d in zip(netlist.weights, ix.src, ix.dst)]
    if min(weights, default=0) < 0:
        e = next(e for e, w in enumerate(weights) if w < 0)
        raise IllegalRetiming("edge %s->%s pin %d would get weight %d" % (
            ix.names[ix.src[e]], ix.names[ix.dst[e]], ix.pin[e], weights[e]))
    return weights


def apply_retiming(netlist: Netlist, lag: dict) -> Netlist:
    return netlist.with_weights(retimed_weights(netlist, lag))


@dataclass
class RetimeResult:
    lag: dict  # node name -> nonzero lag
    period: int
    netlist: Netlist  # the input with the lags applied; meets `period`
    period_before: int  # the input's own period, the identity retiming's


def _feas(delay, edges, hosts, c, start):
    """Least s >= start meeting period c with io nodes equal, or None
    when c is infeasible; see the module docstring."""
    m = len(delay)
    s = list(start)
    parent = [-1] * m
    walk = [0] * (m + 1)  # for `_closes_cycle`
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
        # Only the raised nodes' pointers and values moved, and the last
        # pass left no cycle, so a new one runs through a raised node.
        if _closes_cycle(parent, raised, walk) or max(map(s.__getitem__, raised)) >= m:
            return None


def _closes_cycle(parent, starts, walk):
    """Whether following `parent` links (-1 ends a chain) from a node of
    `starts` ever loops.  `walk` holds each node's last walk number and
    walk[-1] the last number used; a node numbered by an earlier call
    counts as unvisited, so nothing is reset between calls."""
    base = number = walk[-1]
    for v in starts:
        number += 1
        while v >= 0 and walk[v] <= base:
            walk[v] = number
            v = parent[v]
        if v >= 0 and walk[v] == number:
            return True
    walk[-1] = number
    return False


def min_period_retime(netlist: Netlist) -> RetimeResult:
    """A legal retiming of minimum clock period (io lags pinned to 0).

    FEAS runs on the netlist's index and weights; only the result's lags
    are keyed by name."""
    ix = netlist.index
    if not ix.names:
        return RetimeResult({}, 0, netlist, 0)
    delay, hosts = ix.delays, ix.io
    edges = list(zip(ix.src, ix.dst, netlist.weights))

    # The identity retiming meets the current period.
    period = before = critical_path(netlist).period
    s = [0] * len(delay)
    lo, hi = max(delay), period - 1
    mid = lo  # the lower bound first: a C-slowed netlist often meets it
    while lo <= hi:
        sol = _feas(delay, edges, hosts, mid, s)
        if sol is None:
            lo = mid + 1
        else:
            period, s, hi = mid, sol, mid - 1
        mid = (lo + hi) // 2

    base = s[hosts[0]] if hosts else 0
    lag = {name: base - x for name, x in zip(ix.names, s) if x != base}
    retimed = apply_retiming(netlist, lag)
    achieved = critical_path(retimed).period
    if achieved != period:
        raise AssertionError("retiming achieved period %d, expected %d"
                             % (achieved, period))
    return RetimeResult(lag, period, retimed, before)


def pipeline(netlist: Netlist, k: int) -> Netlist:
    """Insert k register ranks from the inputs of a feed-forward netlist
    and rebalance; every input-to-output path gains exactly k registers.

    Feedback circuits are rejected: extra registers in a loop change its
    function, which is exactly the case that calls for C-slow instead.
    """
    if k < 0:
        raise ValueError("pipeline depth must be >= 0, got %r" % k)
    ix = netlist.index
    if len(register_free_order(ix, [0] * len(ix.src))) < len(ix.names):
        raise NotFeedForward("netlist has a feedback path; use cslow_transform")
    staged = netlist.with_weights(
        [w + k if ix.kinds[s] is INPUT else w for w, s in zip(netlist.weights, ix.src)])
    return min_period_retime(staged).netlist


@dataclass
class EquivalenceReport:
    passed: bool
    warmup: int
    trials: int
    cycles: int
    shift: int = 0
    mismatch: tuple | None = None  # (output name, cycle)
    # Steps simulated, summed over the check's simulations: what the check
    # cost, not what it found, so two reports compare equal without it.
    simulated: int = field(default=0, compare=False)

    @property
    def verdict(self):
        return "PASS" if self.passed else "FAIL"


def flush_warmup(a: Netlist, b: Netlist) -> int:
    """Conservative start-up transient bound: every register plus every
    node of the larger circuit has been flushed after this many cycles."""
    return (max(a.total_registers, b.total_registers)
            + max(len(a.index.names), len(b.index.names)))


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
    refused rather than passed.  A retiming of the C-slowed a that moves
    no inverting gate is certified, not simulated: it equals a from cycle
    0, so it passes whatever the window, with `simulated` 0.

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
    lag = None if shift else recover_lags(a, b, factor)
    if lag is not None and keeps_inverting_gates(a, lag):
        return EquivalenceReport(True, warmup, trials, cycles, shift)  # certified
    getrandbits = random.Random(seed).getrandbits
    streams = {name: list(map(getrandbits, repeat(trials, cycles)))
               for name in a.inputs()}
    steps = -(-cycles // factor)
    slots = {name: _slots(stream, factor, trials, steps)
             for name, stream in streams.items()}
    if lag is None:
        outs = simulate(a, slots, steps, lanes=factor * trials)
        outs_b = simulate(b, streams, cycles, lanes=trials)
        pairs = {name: (outs[name], list(_slots(outs_b[name][shift:], factor, trials, steps)))
                 for name in a.outputs()}
        simulated = steps + cycles
    else:  # b's threads are each column's lanes past a's slots
        outs, simulated = _lag_shifted(a, lag, factor, trials, slots, steps,
                                       (warmup, cycles))
        pairs = {name: (column, list(map(rshift, column, repeat(factor * trials))))
                 for name, column in outs.items()}
    for name in a.outputs():
        t = _first_difference(*pairs[name], warmup, cycles - shift, factor, trials)
        if t is not None:
            return EquivalenceReport(False, warmup, trials, cycles, shift,
                                     mismatch=(name, t + shift), simulated=simulated)
    return EquivalenceReport(True, warmup, trials, cycles, shift, simulated=simulated)


def _slots(stream, factor, trials, steps):
    """An iterator over `stream`'s values j, j + factor, ... (zeros past
    its end) in lanes j * trials onwards: `steps` values, one a step, each
    packed when it is read."""
    stream = stream + [0] * (steps * factor - len(stream))
    column = islice(stream, 0, None, factor)
    for j in range(1, factor):
        column = map(or_, column, map(lshift, islice(stream, j, None, factor),
                                      repeat(j * trials)))
    return column


def _first_difference(want, got, lo, hi, factor, trials):
    """The first time in [lo, hi) whose lanes differ between the slot
    columns `want` and `got` (lanes past factor * trials ignored), or None.
    Steps past the end of the shorter column count as equal."""
    first, last = lo // factor, (hi - 1) // factor
    diff = list(map(and_, map(xor, want[first:last + 1], got[first:last + 1]),
                    repeat((1 << factor * trials) - 1)))
    if not diff:
        return None
    diff[0] &= -1 << (lo - first * factor) * trials
    if first + len(diff) > last:  # the last step is there: cut it at hi
        diff[-1] &= (1 << (hi - last * factor) * trials) - 1
    for step, d in enumerate(diff, first):
        if d:
            return step * factor + ((d & -d).bit_length() - 1) // trials
    return None


def recover_lags(a: Netlist, b: Netlist, factor: int) -> dict | None:
    """The lags r with b == apply_retiming(cslow_transform(a, factor), r),
    io lags 0, or None when b is no such retiming of a."""
    ix = a.index
    if ix != b.index:
        return None
    d = [wb - factor * wa for wa, wb in zip(a.weights, b.weights)]  # r(dst) - r(src)
    lag = [None] * len(ix.names)
    for root in chain(ix.io, range(len(lag))):  # one walk per undirected component
        if lag[root] is not None:
            continue
        lag[root] = 0
        todo = [root]
        while todo:
            u = todo.pop()
            for v, want in chain(((ix.dst[e], lag[u] + d[e]) for e in ix.out[u]),
                                 ((ix.src[e], lag[u] - d[e]) for e in ix.into[u])):
                if lag[v] is None:
                    lag[v] = want
                    todo.append(v)
                elif lag[v] != want:
                    return None
    return None if any(lag[h] for h in ix.io) else dict(zip(ix.names, lag))


def keeps_inverting_gates(a: Netlist, lag: dict) -> bool:
    """Whether `lag` (from `recover_lags`) leaves every inverting gate of
    a (NOT, NAND, NOR, CONST1) at lag 0: the certificate that the retiming
    equals the C-slowed a from cycle 0; see the module docstring."""
    ix = a.index
    return not any(lag[name] for name, kind in zip(ix.names, ix.kinds) if kind.inverting)


def simulate_lag_shifted(a: Netlist, lag: dict, factor: int, trials: int,
                         slots: dict, steps: int) -> dict:
    """a's output slot columns, `steps` values each, from one simulation of
    a in lanes [0, W), W = factor * trials, with those of b =
    apply_retiming(cslow_transform(a, factor), lag) in lanes [W, 2W) as b's
    lag-shifted threads; see the module docstring.  `slots` holds a's input
    columns (see `_slots`), lists or iterators.
    """
    return _lag_shifted(a, lag, factor, trials, slots, steps)[0]


# A check probes soon after its masks end and its window starts, then ever
# less often, up to once in this many steps: a probe costs about a step.
PROBE_GAP = 16


def _lag_shifted(a, lag, factor, trials, slots, steps, window=None):
    """`simulate_lag_shifted`'s columns and the number of steps simulated.

    With a `window` (lo, hi) of slot times, the run stops at the first
    probe where the report over that window is decided: either every
    register's two halves hold equal lanes while every lane is live, so the
    halves run the same recurrence on the same inputs from then on and
    differ at no later step (a), or a's first output already differs in the
    window (b).  The columns then end there; `_first_difference` counts
    their missing steps as equal, which (a) makes exact and (b) makes moot.
    """
    width = factor * trials
    half = (1 << width) - 1
    # Lanes of the blocks j >= k: block j of step T is slot time T*factor + j.
    tails = [half >> k * trials << k * trials for k in range(factor)]
    ix = a.index
    start = {name: -lag[name] for name, kind in zip(ix.names, ix.kinds) if kind.inverting}
    first = min([0, *start.values()]) // factor
    end = min(steps, max([0, *(-(-s // factor) for s in start.values())]))
    # a's half starts at step 0, b's at each gate's own start s: its blocks
    # are dead before step s // factor, live after it, and in it from block
    # s % factor on.  Lazy, so memory does not grow with the start-up.
    live = {name: map(or_, chain(repeat(0, -first), repeat(half)),
                      chain(repeat(0, s // factor - first), [tails[s % factor] << width],
                            repeat(half << width)))
            for name, s in start.items()}
    both = 1 + (1 << width)  # a's input column in both halves, packed as read
    inputs = {name: chain(repeat(0, -first), map(mul, column, repeat(both)))
              for name, column in slots.items()}
    full = end - first  # from this step on, every lane is live
    ran = steps - first
    probe = None
    if window is not None:
        lo, hi = window
        gap, done = 1, lo  # slot times below `done` are compared, for (b)

        def decided(t, held, outs):
            nonlocal gap, done, ran
            if t >= full and not any(map(and_, map(xor, held, map(rshift, held, repeat(width))),
                                         repeat(half))):
                ran = t
                return None  # (a)
            upto = min(hi, (t + first) * factor)
            if outs and upto > done:
                base = done // factor
                column = outs[0][base - first:(upto - 1) // factor + 1 - first]
                if _first_difference(column, list(map(rshift, column, repeat(width))),
                                     done - base * factor, upto - base * factor,
                                     factor, trials) is not None:
                    ran = t
                    return None  # (b)
                done = upto
            gap = min(2 * gap, PROBE_GAP)
            return t + gap if t >= compared else min(t + gap, compared)

        compared = lo // factor + 1 - first  # the first step past lo
        probe = min(full, compared), decided
    outs = simulate(a, inputs, steps - first, lanes=2 * width, live=(full, live),
                    probe=probe)
    return {name: column[-first:] for name, column in outs.items()}, ran


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
