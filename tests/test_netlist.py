import random

import pytest
from hypothesis import example, given, settings, strategies as st

import gennet
import refnet
from cslowsim import cli, netlist
from cslowsim.netlist import (
    ARITY,
    GATE_KINDS,
    LOCAL_DEPTH,
    Edge,
    Netlist,
    NetlistError,
    Node,
    NodeKind,
    critical_path,
    parse,
    simulate,
    to_text,
)
from cslowsim.retime import cslow_transform, min_period_retime


def test_parse_chain_fixture(chain_net_text):
    net = parse(chain_net_text)
    assert len(net.nodes) == 6
    assert net.inputs() == ["in"]
    assert net.outputs() == ["out"]
    assert all(e.weight == 0 for e in net.edges)
    assert net.total_registers == 0


def test_parse_empty_is_valid():
    net = parse("")
    assert len(net.nodes) == 0
    assert critical_path(net).period == 0


def test_parse_collects_violations():
    # Syntax problems are reported together, with line numbers.
    with pytest.raises(NetlistError) as exc:
        parse("input a\nbogus line\ngate g1 AND\nwire a g1 0 0\n")
    text_all = "\n".join(exc.value.violations)
    assert "line 2" in text_all and "line 3" in text_all
    # Structural problems are also collected, not reported one at a time.
    with pytest.raises(NetlistError) as exc:
        parse("input a\ngate g1 AND 1\nwire a g1 0 0\nwire a nosuch 0 0\n")
    assert any("unknown node 'nosuch'" in v for v in exc.value.violations)
    with pytest.raises(NetlistError, match="pin 1 of 'g1' is undriven"):
        parse("input a\ngate g1 AND 1\nwire a g1 0 0\n")


def test_parse_rejects_combinational_cycle():
    text = ("gate g1 BUF 1\n"
            "gate g2 BUF 1\n"
            "wire g1 g2 0 0\n"
            "wire g2 g1 0 0\n")
    with pytest.raises(NetlistError, match="combinational cycle"):
        parse(text)
    # one register on the loop makes it legal
    ok = parse(text.replace("wire g2 g1 0 0", "wire g2 g1 0 1"))
    assert ok.total_registers == 1


@pytest.mark.parametrize("text", [
    # a loop fed by a gate outside it and feeding one declared before it,
    # so the walk back starts off the loop
    "input i\ngate e BUF 1\ngate a XOR 1\ngate b BUF 1\ngate c BUF 1\n"
    "gate d BUF 1\nwire i d 0 0\nwire d a 0 0\nwire c a 1 0\nwire a b 0 0\n"
    "wire b c 0 0\nwire c e 0 0\n",
    # two disjoint loops, one of them also carrying a register-bearing wire
    "gate a BUF 1\ngate b BUF 1\ngate c XOR 1\ngate d BUF 1\n"
    "wire a b 0 0\nwire b a 0 0\nwire d c 0 0\nwire c d 0 0\nwire c c 1 2\n"])
def test_combinational_cycle_message_names_a_closed_loop(text):
    with pytest.raises(NetlistError) as exc:
        parse(text)
    [message] = [v for v in exc.value.violations if "combinational cycle" in v]
    path = message.split(": ", 1)[1].split(" -> ")
    assert len(path) > 2 and path[0] == path[-1]
    free = {(line.split()[1], line.split()[2]) for line in text.splitlines()
            if line.startswith("wire") and line.split()[4] == "0"}
    assert all(pair in free for pair in zip(path, path[1:]))


def test_parse_arity_checks():
    with pytest.raises(NetlistError, match="no pin 1"):
        parse("input a\ninput b\ngate g NOT 1\nwire a g 0 0\nwire b g 1 0\n")
    with pytest.raises(NetlistError, match="driven twice"):
        parse("input a\ngate g NOT 1\nwire a g 0 0\nwire a g 0 0\n")
    with pytest.raises(NetlistError, match="undriven"):
        parse("output o\n")


def test_critical_path_examples(chain_net_text):
    chain = parse(chain_net_text)
    cp = critical_path(chain)
    assert cp.period == 4
    # witness is one maximising register-free path
    assert sum(chain.nodes[n].delay for n in cp.path) == 4
    assert cp.path == ["g1", "g2", "g3", "g4"]

    # one register mid-chain halves the combinational span
    halved = chain.with_weights(
        [1 if (e.src, e.dst) == ("g2", "g3") else 0 for e in chain.edges])
    assert critical_path(halved).period == 2

    single = parse("gate k CONST0 0\noutput o\nwire k o 0 0\n")
    assert critical_path(single).period == 0


def test_critical_path_ring_fixture(ring_net_text):
    ring = parse(ring_net_text)
    cp = critical_path(ring)
    assert cp.period == 4
    # the maximising path crosses the feedback wire g4 -> g1
    assert sum(ring.nodes[n].delay for n in cp.path) == 4
    assert ("g4", "g1") in list(zip(cp.path, cp.path[1:]))


def test_simulate_buf_chain_identity(chain_net_text):
    net = parse(chain_net_text)
    rng = random.Random(0)
    stream = [rng.randint(0, 1) for _ in range(20)]
    outs = simulate(net, {"in": stream}, 20)
    assert outs["out"] == stream


def test_simulate_single_register_delays_one_cycle():
    net = parse("input a\ngate b BUF 0\noutput o\nwire a b 0 1\nwire b o 0 0\n")
    stream = [1, 0, 1, 1, 0, 0, 1]
    outs = simulate(net, {"a": stream}, 7)
    assert outs["o"] == [0] + stream[:-1]


def test_simulate_toggle_ring(toggle_net_text):
    net = parse(toggle_net_text)
    outs = simulate(net, {"in": [1] * 6}, 6)
    assert outs["out"] == [0, 1, 0, 1, 0, 1]
    outs = simulate(net, {"in": [1, 0, 0, 1, 0, 0]}, 6)
    assert outs["out"] == [0, 1, 1, 1, 0, 0]


def test_simulate_gate_truth_tables():
    lines = ["input a", "input b"]
    for kind in ("AND", "OR", "XOR", "NAND", "NOR"):
        lines += ["gate %s %s 1" % (kind.lower(), kind),
                  "wire a %s 0 0" % kind.lower(),
                  "wire b %s 1 0" % kind.lower(),
                  "output o_%s" % kind.lower(),
                  "wire %s o_%s 0 0" % (kind.lower(), kind.lower())]
    lines += ["gate inv NOT 1", "wire a inv 0 0", "output o_not",
              "wire inv o_not 0 0",
              "gate one CONST1 0", "output o_one", "wire one o_one 0 0",
              "gate zero CONST0 0", "output o_zero", "wire zero o_zero 0 0"]
    net = parse("\n".join(lines))
    a = [0, 0, 1, 1]
    b = [0, 1, 0, 1]
    outs = simulate(net, {"a": a, "b": b}, 4)
    assert outs["o_and"] == [0, 0, 0, 1]
    assert outs["o_or"] == [0, 1, 1, 1]
    assert outs["o_xor"] == [0, 1, 1, 0]
    assert outs["o_nand"] == [1, 1, 1, 0]
    assert outs["o_nor"] == [1, 0, 0, 0]
    assert outs["o_not"] == [1, 1, 0, 0]
    assert outs["o_one"] == [1, 1, 1, 1]
    assert outs["o_zero"] == [0, 0, 0, 0]


def test_simulate_missing_or_short_input():
    net = parse("input a\noutput o\ngate g BUF 1\nwire a g 0 0\nwire g o 0 0\n")
    with pytest.raises(ValueError, match="missing input"):
        simulate(net, {}, 4)
    with pytest.raises(ValueError, match="shorter"):
        simulate(net, {"a": [1, 0]}, 4)
    with pytest.raises(ValueError, match="shorter"):
        simulate(net, {"a": iter([1, 0])}, 4)


def test_simulate_probe_sees_histories_and_stops():
    # g keeps two values in locals, h a deque of LOCAL_DEPTH + 1.  The hook
    # sees both histories and the outputs so far, and stopping at cycle 4
    # leaves four values per output and the input read one value past them.
    deep = LOCAL_DEPTH + 1
    net = parse("input a\noutput o\noutput p\ngate g BUF 1\ngate h BUF 1\n"
                "wire a g 0 0\nwire a h 0 0\nwire g o 0 2\nwire h p 0 %d\n" % deep)
    a = [1, 0, 1, 1, 0, 1, 1, 1]
    seen = []

    def hook(t, held, outs):
        seen.append((t, sorted(held), [list(o) for o in outs]))
        return None if t == 4 else t + 2

    stream = iter(a)
    outs = simulate(net, {"a": stream}, len(a), probe=(0, hook))
    assert outs == {"o": [0, 0, 1, 0], "p": [0] * 4}
    assert next(stream) == a[5]
    assert [t for t, _, _ in seen] == [0, 2, 4]
    for t, held, got in seen:
        past = a[max(0, t - 2):t] + a[max(0, t - deep):t]
        assert held == sorted(past + [0] * (2 + deep - len(past)))
        assert got == [([0, 0] + a)[:t], [0] * t]
    # Without a probe the same run goes to the end.
    assert simulate(net, {"a": iter(a)}, len(a)) == {"o": [0, 0] + a[:6], "p": [0] * 8}


def test_weight_k_edge_equals_k_chained_unit_stages():
    rng = random.Random(2)
    deep = parse("input a\noutput o\ngate g BUF 1\nwire a g 0 0\nwire g o 0 3\n")
    chained = parse(
        "input a\noutput o\n"
        "gate g BUF 1\ngate s1 BUF 0\ngate s2 BUF 0\n"
        "wire a g 0 0\nwire g s1 0 1\nwire s1 s2 0 1\nwire s2 o 0 1\n")
    stream = [rng.randint(0, 1) for _ in range(30)]
    a = simulate(deep, {"a": stream}, 30)
    b = simulate(chained, {"a": stream}, 30)
    assert a["o"] == b["o"]


def test_simulate_lanes_match_lane_by_lane_runs():
    rng = random.Random(9)
    net = gennet.random_netlist(rng, max_gates=6)
    cycles, lanes = 24, 8
    packed = {name: [rng.getrandbits(lanes) for _ in range(cycles)]
              for name in net.inputs()}
    wide = simulate(net, packed, cycles, lanes=lanes)
    for lane in range(lanes):
        single = {name: [(v >> lane) & 1 for v in packed[name]]
                  for name in net.inputs()}
        narrow = simulate(net, single, cycles)
        for out in net.outputs():
            assert [(v >> lane) & 1 for v in wide[out]] == narrow[out]


@st.composite
def netlists(draw):
    """Any gate kind anywhere, loops included: a wire to a gate at or after
    its own place in the draw order carries 1-5 registers, a forward wire
    0-5, and one wire may get 4096."""
    kinds = draw(st.lists(st.sampled_from(sorted(GATE_KINDS, key=lambda k: k.value)),
                          min_size=1, max_size=10))
    n_inputs = draw(st.integers(1, 3))
    names = (["i%d" % k for k in range(n_inputs)]
             + ["g%d" % k for k in range(len(kinds))])
    nodes = [Node(name, NodeKind.INPUT) for name in names[:n_inputs]]
    nodes += [Node(name, kind, 1) for name, kind in zip(names[n_inputs:], kinds)]
    edges = []
    for g, kind in enumerate(kinds):
        for pin in range(ARITY[kind]):
            src = draw(st.integers(0, len(names) - 1))
            low = 1 if src >= n_inputs + g else 0
            edges.append(Edge(names[src], names[n_inputs + g], pin,
                              draw(st.integers(low, 5))))
    for o in range(draw(st.integers(1, 3))):
        nodes.append(Node("o%d" % o, NodeKind.OUTPUT))
        edges.append(Edge(draw(st.sampled_from(names)), "o%d" % o, 0,
                          draw(st.integers(0, 5))))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(edges) - 1))
        e = edges[k]
        edges[k] = Edge(e.src, e.dst, e.pin, 4096)
    return Netlist(nodes, edges)


# Inverting gates in loops, fed by CONST1, and a 4096-deep wire.
_INVERTING_LOOPS = parse(
    "input a\ngate one CONST1 0\ngate n NOT 1\ngate na NAND 1\ngate no NOR 1\n"
    "output o\noutput deep\n"
    "wire na n 0 1\nwire n na 0 0\nwire one na 1 0\n"
    "wire na no 0 2\nwire a no 1 0\nwire no o 0 0\nwire n deep 0 4096\n")


# Node x's deepest wire holds exactly LOCAL_DEPTH registers and y's one
# more, so x keeps its history in locals and y in a deque; each also
# drives a shallower wire.
_AT_THE_BOUND = parse(
    "input a\ngate x XOR 1\ngate y NAND 1\noutput o\noutput p\n"
    "wire a x 0 0\nwire y x 1 %d\nwire x y 0 %d\nwire a y 1 0\n"
    "wire x o 0 1\nwire y p 0 2\n" % (LOCAL_DEPTH + 1, LOCAL_DEPTH))


def assert_matches_reference(net, lanes, cycles, seed):
    rng = random.Random(seed)
    # Streams run past `cycles` and carry bits above the top lane.
    streams = {name: [rng.getrandbits(lanes + 2) for _ in range(cycles + 2)]
               for name in net.inputs()}
    outs = simulate(net, streams, cycles, lanes=lanes)
    assert list(outs) == net.outputs()
    for lane in range(lanes):
        lane_in = {name: [(v >> lane) & 1 for v in s] for name, s in streams.items()}
        ref = refnet.simulate_lane(net, lane_in, cycles)
        for name in net.outputs():
            assert [(v >> lane) & 1 for v in outs[name]] == ref[name], (name, lane)
    assert all(v >> lanes == 0 for s in outs.values() for v in s)


@settings(max_examples=50, deadline=None)
@given(net=netlists(), lanes=st.sampled_from([1, 3, 100]),
       cycles=st.integers(0, 40), seed=st.integers(0, 2**32))
@example(net=_INVERTING_LOOPS, lanes=3, cycles=40, seed=7)
@example(net=_AT_THE_BOUND, lanes=3, cycles=40, seed=5)
def test_simulate_matches_reference_lane_by_lane(net, lanes, cycles, seed):
    assert_matches_reference(net, lanes, cycles, seed)


@settings(max_examples=30, deadline=None)
@given(net=netlists(), lanes=st.sampled_from([1, 3, 100]),
       cycles=st.integers(0, 40), seed=st.integers(0, 2**32))
def test_simulate_cslowed_matches_reference_lane_by_lane(net, lanes, cycles, seed):
    # The source netlist is simulated first: the 3-slowed one, derived from
    # it by `with_weights`, must not run its compiled function.
    simulate(net, {name: [0] * cycles for name in net.inputs()}, cycles)
    assert_matches_reference(cslow_transform(net, 3), lanes, cycles, seed)


def test_simulate_compiles_each_netlist_once(monkeypatch):
    rng = random.Random(9)
    text = to_text(gennet.random_netlist(rng, max_gates=8, max_weight=LOCAL_DEPTH + 3,
                                         safe_loops=False))
    net = parse(text)
    source = netlist._compile(net)[0]
    assert "_1 = v" in source and "deque" in source  # both kinds of history
    compiled = []
    def counted(net, _real=netlist._compile):
        compiled.append(net)
        return _real(net)
    monkeypatch.setattr(netlist, "_compile", counted)
    for cycles, lanes in ((30, 1), (7, 100), (0, 3), (50, 64)):
        streams = {name: [rng.getrandbits(lanes) for _ in range(cycles)]
                   for name in net.inputs()}
        assert simulate(net, streams, cycles, lanes) == simulate(
            parse(text), streams, cycles, lanes)
    # Once for `net`, once for each fresh copy.
    assert [c is net for c in compiled] == [True] + [False] * 4


def test_compiled_source_does_not_grow_past_the_bound():
    def source(depth):
        return netlist._compile(parse(
            "input a\noutput o\ngate g BUF 1\nwire a g 0 0\nwire g o 0 %d\n"
            % depth))[0]
    past = LOCAL_DEPTH + 1
    for depth in (past + 1, 4096, 200_000):
        assert source(depth) == source(past).replace(str(past), str(depth))
    assert len(source(LOCAL_DEPTH)) > len(source(past))


def test_simulate_node_names_that_are_not_identifiers():
    net = parse(
        "input for\ninput __builtins__\ngate a.b NAND 1\ngate x'y NOT 1\n"
        "output 1x\n"
        "wire for a.b 0 0\nwire __builtins__ a.b 1 0\nwire a.b x'y 0 1\n"
        "wire x'y 1x 0 1\n")
    rng = random.Random(3)
    streams = {name: [rng.randint(0, 1) for _ in range(12)] for name in net.inputs()}
    outs = simulate(net, streams, 12)
    assert outs == refnet.simulate_lane(net, streams, 12)
    both = [f & b for f, b in zip(streams["for"], streams["__builtins__"])]
    assert outs["1x"] == [0, 1] + both[:10]  # NOT of the reset 0, then AND


def test_to_text_roundtrip(ring_net_text):
    ring = parse(ring_net_text)
    again = parse(to_text(ring))
    assert again == ring


def test_random_netlists_validate_and_simulate():
    rng = random.Random(11)
    for _ in range(30):
        net = gennet.random_netlist(rng, max_gates=8)
        streams = {name: [rng.randint(0, 1) for _ in range(16)]
                   for name in net.inputs()}
        outs = simulate(net, streams, 16)
        assert all(len(v) == 16 for v in outs.values())
        again = simulate(net, streams, 16)
        assert outs == again


def test_netlist_constructor_validates():
    with pytest.raises(NetlistError):
        Netlist([Node("o", NodeKind.OUTPUT)], [])
    with pytest.raises(NetlistError):
        Netlist([Node("g", NodeKind.BUF, 1)], [Edge("g", "g", 0, 0)])
    # Two nodes of one name are refused, as `parse` refuses them, rather
    # than the later one replacing the earlier.
    with pytest.raises(NetlistError) as exc:
        Netlist([Node("a", NodeKind.INPUT), Node("a", NodeKind.OUTPUT)], [])
    assert exc.value.violations == ["duplicate node 'a'"]


def test_with_weights_refuses_negative_weights_and_register_free_loops(ring_net_text):
    ring = parse(ring_net_text)
    weights = [e.weight for e in ring.edges]
    with pytest.raises(NetlistError, match="wire in->g1 has negative weight"):
        ring.with_weights([-1] + weights[1:])
    with pytest.raises(NetlistError, match="combinational cycle: g1 -> g2"):
        ring.with_weights([0] * len(weights))
    moved = ring.with_weights([1 if e.src == "g3" else 0 for e in ring.edges])
    assert moved.order.index("g4") < moved.order.index("g1") < moved.order.index("g3")
    assert ring.with_weights(weights) == ring
    with pytest.raises(ValueError):
        ring.with_weights(weights[1:])


def test_with_weights_shares_the_index(monkeypatch, ring_net_text):
    ring = parse(ring_net_text)
    simulate(ring, {"in": [1] * 4}, 4)
    ordered = []
    real_order = netlist.register_free_order
    monkeypatch.setattr(netlist, "register_free_order",
                        lambda *args: ordered.append(args) or real_order(*args))
    slowed = cslow_transform(ring, 3)
    # Every wire keeps or lacks registers as before: no new order.
    assert slowed.index is ring.index and slowed._order is ring._order and not ordered
    assert slowed._simulator is None and slowed._edges is None
    loop = [(e.src, e.dst) == ("g1", "g2") for e in ring.edges]  # its one register
    with pytest.raises(NetlistError, match="combinational cycle: "):
        ring.with_weights([0 if on else e.weight for e, on in zip(ring.edges, loop)])
    with pytest.raises(NetlistError, match="wire g1->g2 has negative weight"):
        ring.with_weights([-1 if on else e.weight for e, on in zip(ring.edges, loop)])


@pytest.mark.parametrize("safe_loops", [True, False])
def test_with_weights_matches_a_parse_of_its_text(safe_loops):
    rng = random.Random(7)
    for _ in range(20):
        net = parse(to_text(gennet.random_netlist(rng, max_gates=8, safe_loops=safe_loops)))
        slowed = cslow_transform(net, 3)
        retimed = min_period_retime(slowed).netlist
        # A retiming run builds no `Edge` or `Node` of its derived netlists.
        assert slowed._edges is None and retimed._edges is None and net.index.nodes is None
        for derived in (slowed, retimed):
            again = parse(to_text(derived))
            assert derived == again and derived.index is not again.index
            assert derived.edges == again.edges and derived.order == again.order
            assert derived.total_registers == again.total_registers
            assert derived.nodes == again.nodes and derived._simulator is None


# Every message `parse` and the constructor's validation can give, word for
# word and in order: stderr for an invalid netlist is this text.
MALFORMED = [
    ("input a\ninput a\n", ["line 2: duplicate node 'a'"]),
    ("input a\nbogus line  # note\ngate g input 0\n",
     ["line 2: cannot parse 'bogus line  # note'", "line 3: cannot parse 'gate g input 0'"]),
    ("input a\nwire a nosuch 0 0\n", ["wire references unknown node 'nosuch'"]),
    ("input a\noutput o\nwire a o 0 -1\n", ["wire a->o has negative weight"]),
    ("input a\ninput b\ngate g NOT 1\nwire a g 0 0\nwire b g 1 0\n",
     ["node 'g' (NOT) has no pin 1 for wire from 'b'"]),
    ("input a\ngate g NOT 1\nwire a g 0 0\nwire a g 0 0\n", ["pin 0 of 'g' driven twice"]),
    ("input a\ngate g BUF -2\nwire a g 0 0\n", ["node 'g' has negative delay"]),
    ("output o\n", ["pin 0 of 'o' is undriven"]),
    ("gate g1 BUF 1\ngate g2 BUF 1\nwire g1 g2 0 0\nwire g2 g1 0 0\n",
     ["combinational cycle: g1 -> g2 -> g1"]),
    # Several at once.  Syntax errors and duplicates come in line order and
    # stop the check; unknown ends and negative weights come wire by wire
    # and stop it too.
    ("input a\ninput a\nfoo\ngate g AND x\noutput a\n",
     ["line 2: duplicate node 'a'", "line 3: cannot parse 'foo'",
      "line 4: cannot parse 'gate g AND x'", "line 5: duplicate node 'a'"]),
    ("input a\nwire a x 0 -1\nwire y a 0 0\nwire a a 0 -2\n",
     ["wire references unknown node 'x'", "wire a->x has negative weight",
      "wire references unknown node 'y'", "wire a->a has negative weight"]),
    ("input a\ngate g NOT -1\ngate h AND 1\ngate k BUF 1\noutput o\n"
     "wire a g 1 0\nwire a h 0 0\nwire a h 0 0\nwire k k 0 0\nwire h o 0 0\nwire k o 1 0\n",
     ["node 'g' (NOT) has no pin 1 for wire from 'a'", "pin 0 of 'h' driven twice",
      "node 'o' (output) has no pin 1 for wire from 'k'", "node 'g' has negative delay",
      "pin 0 of 'g' is undriven", "pin 1 of 'h' is undriven",
      "combinational cycle: k -> k"]),
]


@pytest.mark.parametrize("text, violations", MALFORMED, ids=[
    v[0] if len(v) == 1 else "%d violations" % len(v) for _, v in MALFORMED])
def test_parse_error_text(text, violations):
    with pytest.raises(NetlistError) as exc:
        parse(text)
    assert exc.value.violations == violations
    assert str(exc.value) == "; ".join(violations)


def test_constructor_error_text():
    with pytest.raises(NetlistError) as exc:
        Netlist([Node("a", NodeKind.INPUT, 2), Node("o", NodeKind.OUTPUT)],
                [Edge("a", "o", 0, 0)])
    assert exc.value.violations == ["io node 'a' must have delay 0"]


@pytest.mark.parametrize("case", [0, len(MALFORMED) - 1])
def test_cli_reports_netlist_errors(tmp_path, capsys, case):
    path = tmp_path / "bad.net"
    text, violations = MALFORMED[case]
    path.write_text(text)
    assert cli.main(["retime", str(path), "--cslow", "3", "--check", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % "; ".join(violations)
