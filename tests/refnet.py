"""Reference one-lane netlist simulator for tests.

It shares no code with `cslowsim.netlist.simulate`: it takes only the data
classes from that module, settles each cycle by memoised recursion over
dicts, writes the gate functions arithmetically on single bits, and keeps
one explicit FIFO list per wire, as long as the wire's weight.
"""

from cslowsim.netlist import Netlist, NodeKind

_GATE = {
    NodeKind.OUTPUT: lambda a: a,
    NodeKind.BUF: lambda a: a,
    NodeKind.NOT: lambda a: 1 - a,
    NodeKind.AND: lambda a, b: min(a, b),
    NodeKind.OR: lambda a, b: max(a, b),
    NodeKind.XOR: lambda a, b: (a + b) % 2,
    NodeKind.NAND: lambda a, b: 1 - min(a, b),
    NodeKind.NOR: lambda a, b: 1 - max(a, b),
    NodeKind.CONST0: lambda: 0,
    NodeKind.CONST1: lambda: 1,
}


def simulate_lane(netlist: Netlist, inputs: dict, cycles: int) -> dict:
    """Output bit streams for `cycles` cycles of one lane of `netlist`.

    `inputs` maps each input name to a sequence of 0/1 values.  Every
    register starts at 0; a wire of weight k delivers its source's value
    from k cycles earlier.
    """
    fanin = {name: [] for name in netlist.nodes}
    for e in sorted(netlist.edges, key=lambda e: e.pin):
        fanin[e.dst].append(e)
    fifo = {e: [0] * e.weight for e in netlist.edges}
    outs = {name: [] for name in netlist.outputs()}

    for t in range(cycles):
        value = {}

        def settle(name):
            if name not in value:
                node = netlist.nodes[name]
                if node.kind is NodeKind.INPUT:
                    value[name] = inputs[name][t]
                else:
                    args = [fifo[e][0] if e.weight else settle(e.src)
                            for e in fanin[name]]
                    value[name] = _GATE[node.kind](*args)
            return value[name]

        for name in netlist.nodes:  # every node settles before any shift
            settle(name)
        for name in outs:
            outs[name].append(value[name])
        for e, queue in fifo.items():
            if e.weight:
                queue.append(value[e.src])
                queue.pop(0)
    return outs
