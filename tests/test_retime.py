import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gennet
import refnet
import refretime
from cslowsim.netlist import (Edge, Netlist, Node, NodeKind, critical_path, parse,
                              simulate)
from cslowsim.retime import (
    REFERENCE_SLICE_REGISTERS,
    BadC,
    IllegalRetiming,
    InterfaceMismatch,
    NotFeedForward,
    apply_retiming,
    area_report,
    check_cslow_equivalence,
    check_equivalence,
    cslow_transform,
    flush_warmup,
    min_period_retime,
    pipeline,
    retimed_weights,
)


def test_cslow_transform_scales_weights(ring_net_text):
    ring = parse(ring_net_text)
    doubled = cslow_transform(ring, 2)
    assert [e.weight for e in doubled.edges] == \
        [2 * e.weight for e in ring.edges]
    assert doubled.nodes == ring.nodes
    assert cslow_transform(ring, 1) is ring  # no copy at C = 1
    with pytest.raises(BadC):
        cslow_transform(ring, 0)


def test_cslow_transform_arbitrary_weights():
    net = parse("input a\ngate g BUF 1\ngate h BUF 1\noutput o\n"
                "wire a g 0 0\nwire g h 0 1\nwire h o 0 3\n")
    tripled = cslow_transform(net, 3)
    assert [e.weight for e in tripled.edges] == [0, 3, 9]


def test_apply_retiming_identity_and_shift(ring_net_text):
    ring = parse(ring_net_text)
    assert apply_retiming(ring, {}) == ring
    # move the loop register one gate forward: lag(g2) = -1
    shifted = apply_retiming(ring, {"g2": -1})
    weights = {(e.src, e.dst): e.weight for e in shifted.edges}
    assert weights[("g1", "g2")] == 0
    assert weights[("g2", "g3")] == 1
    assert shifted.total_registers == ring.total_registers


def test_apply_retiming_rejects_illegal(ring_net_text):
    ring = parse(ring_net_text)
    with pytest.raises(IllegalRetiming, match="g2->g3"):
        apply_retiming(ring, {"g2": 1})
    with pytest.raises(IllegalRetiming, match="lag 0"):
        apply_retiming(ring, {"in": 1})
    with pytest.raises(IllegalRetiming):
        retimed_weights(ring, {"g1": -5})


def test_min_period_retime_ring_cannot_improve(ring_net_text):
    ring = parse(ring_net_text)
    result = min_period_retime(ring)
    assert result.period == 4  # cycle delay 4 over 1 register


def test_min_period_retime_after_cslow(ring_net_text):
    ring = parse(ring_net_text)
    for c in (2, 3):
        slowed = cslow_transform(ring, c)
        result = min_period_retime(slowed)
        assert result.period == 2  # ceil(4/c) with 4 unit gates
        assert result.netlist == apply_retiming(slowed, result.lag)
        assert critical_path(result.netlist).period == 2


def test_min_period_retime_balanced_chain_unchanged(chain_net_text):
    chain = parse(chain_net_text)
    mid = chain.with_weights(
        [1 if (e.src, e.dst) == ("g2", "g3") else 0 for e in chain.edges])
    result = min_period_retime(mid)
    assert result.period == critical_path(mid).period == 2


def test_min_period_retime_lags_preserve_io():
    net = parse("input a\ngate g BUF 2\ngate h BUF 2\noutput o\n"
                "wire a g 0 2\nwire g h 0 0\nwire h o 0 0\n")
    result = min_period_retime(net)
    assert result.period == 2
    assert result.lag.get("a", 0) == 0
    assert result.lag.get("o", 0) == 0


def test_pipeline_examples(chain_net_text):
    chain = parse(chain_net_text)
    assert critical_path(pipeline(chain, 1)).period == 2
    assert critical_path(pipeline(chain, 0)).period == 4
    deep = pipeline(chain, 3)
    assert critical_path(deep).period == 1
    # every input->output path gains exactly k registers
    assert deep.total_registers == 3


def test_pipeline_latency_shift(chain_net_text):
    chain = parse(chain_net_text)
    for k in (1, 2, 3):
        piped = pipeline(chain, k)
        rng = random.Random(4)
        stream = [rng.randint(0, 1) for _ in range(40)]
        base = simulate(chain, {"in": stream}, 40)
        out = simulate(piped, {"in": stream}, 40)
        assert out["out"][k:] == base["out"][:-k]


def test_pipeline_rejects_feedback(ring_net_text):
    ring = parse(ring_net_text)
    with pytest.raises(NotFeedForward):
        pipeline(ring, 1)
    with pytest.raises(ValueError):
        pipeline(parse("input a\noutput o\nwire a o 0 0\n"), -1)


def test_check_equivalence_reflexive(ring_net_text):
    ring = parse(ring_net_text)
    report = check_equivalence(ring, ring, trials=16, cycles=64)
    assert report.passed and report.verdict == "PASS"


def test_check_equivalence_retimed_pair(ring_net_text):
    ring2 = cslow_transform(parse(ring_net_text), 2)
    retimed = min_period_retime(ring2).netlist
    report = check_equivalence(ring2, retimed, trials=64, cycles=128)
    assert report.passed
    assert report.warmup == flush_warmup(ring2, retimed)


def test_check_equivalence_detects_difference(chain_net_text):
    chain = parse(chain_net_text)
    broken = parse(chain_net_text.replace("gate g2 BUF 1", "gate g2 NOT 1"))
    report = check_equivalence(chain, broken, trials=8, cycles=32, warmup=8)
    assert not report.passed and report.verdict == "FAIL"
    # The inverted output differs on the first compared cycle, counted on
    # b's clock: warm-up 8 plus the shift.
    assert report.mismatch == ("out", 8)
    report = check_equivalence(chain, broken, trials=8, cycles=32, warmup=8, shift=2)
    assert report.mismatch == ("out", 10)


def test_check_equivalence_interface_mismatch(chain_net_text):
    chain = parse(chain_net_text)
    other = parse("input x\noutput out\nwire x out 0 0\n")
    with pytest.raises(InterfaceMismatch):
        check_equivalence(chain, other)


def test_cslow_deinterleave_exact_from_cycle_zero(ring_net_text):
    ring = parse(ring_net_text)
    for c in (2, 3):
        slowed = cslow_transform(ring, c)
        report = check_cslow_equivalence(ring, slowed, c, trials=32, cycles=64)
        assert report.passed
        assert report.warmup == 0


def test_area_report(ring_net_text):
    ring = parse(ring_net_text)
    tripled = cslow_transform(ring, 3)
    model = area_report(ring, tripled)
    assert model.registers_before == 1
    assert model.registers_after == 3
    assert model.ratio == Fraction(3)
    assert model.gates == len(ring.gates())
    identity = area_report(ring, ring)
    assert identity.ratio == Fraction(1)
    doc = model.to_json()
    assert doc["fpga_reference"]["slice_registers_before"] == 2107
    assert doc["fpga_reference"]["slice_registers_after"] == 4270
    assert doc["ratio"] == 3.0
    assert REFERENCE_SLICE_REGISTERS["ratio"] == pytest.approx(2.03, abs=0.005)


def test_area_report_no_registers(chain_net_text):
    chain = parse(chain_net_text)
    model = area_report(chain, chain)
    assert model.ratio is None


def test_cslow_check_fails_on_changed_gate(ring_net_text):
    # The 3-slowed ring with its XOR turned into an OR differs only when the
    # input and the fed-back value are both 1.  The expected mismatches pin
    # the order of comparison: output by output, then cycle by cycle on the
    # slowed circuit's clock, whose cycle t is slot t mod 3; the three cases
    # first differ in slots 0, 1 and 2.
    ring = parse(ring_net_text)
    slowed = cslow_transform(ring, 3)
    broken = Netlist([Node(n.name, NodeKind.OR, n.delay) if n.name == "g1" else n
                      for n in slowed.nodes.values()], slowed.edges)
    for trials, cycles, seed, mismatch in ((32, 64, 1, ("out", 6)),   # slot 0
                                           (1, 4, 9, ("out", 10)),    # slot 1
                                           (1, 4, 17, ("out", 11))):  # slot 2
        report = check_cslow_equivalence(ring, broken, 3, trials=trials,
                                         cycles=cycles, seed=seed)
        assert report.verdict == "FAIL"
        assert report.mismatch == mismatch


def _inverting_ring():
    """XOR -> NOT -> BUF -> BUF in a loop, two registers on the feedback
    wire and one on each io wire: retiming moves a register across the NOT,
    and the all-zero start then seeds the loop with a state the original
    never held."""
    return parse("input in\noutput out\ngate g1 XOR 1\ngate g2 NOT 1\n"
                 "gate g3 BUF 1\ngate g4 BUF 1\nwire in g1 0 1\nwire g4 g1 1 2\n"
                 "wire g1 g2 0 0\nwire g2 g3 0 0\nwire g3 g4 0 0\nwire g4 out 0 1\n")


def _check_cases():
    from conftest import CORPUS
    cases = [parse(path.read_text())
             for path in sorted((CORPUS / "circuits").glob("*.net"))]
    cases.append(_inverting_ring())
    rng = random.Random(24)
    cases += [gennet.random_netlist(rng, max_gates=8, safe_loops=False)
              for _ in range(60)]
    return cases


def test_one_check_matches_two_step_check():
    # The C-slowed netlist equals the original, slot by slot, from cycle 0,
    # so checking the final netlist against the original on the final's
    # clock must give the verdict and mismatch of the two-step check
    # (original against slowed, then slowed against final).
    failed = 0
    for i, net in enumerate(_check_cases()):
        for c in (1, 2, 3):
            slowed = cslow_transform(net, c)
            final = min_period_retime(slowed).netlist
            warmup = flush_warmup(slowed, final)
            one = check_equivalence(net, final, trials=16, warmup=warmup, seed=i,
                                    factor=c)
            assert check_cslow_equivalence(net, slowed, c, trials=16, seed=i).passed
            two = check_equivalence(slowed, final, trials=16, warmup=warmup, seed=i)
            assert (one.passed, one.mismatch) == (two.passed, two.mismatch), (i, c)
            assert (one.warmup, one.cycles) == (two.warmup, two.cycles)
            failed += not one.passed
    assert failed  # inverting gates in loops: the comparison is not vacuous


def test_one_check_matches_reference_simulator():
    # One lane, simulated by the reference simulator: b on the drawn streams,
    # and a once per slot on every factor-th value of them.
    for i, net in enumerate(_check_cases()):
        for c in (1, 2, 3):
            final = min_period_retime(cslow_transform(net, c)).netlist
            warmup, cycles = 3, 40
            report = check_equivalence(net, final, trials=1, cycles=cycles,
                                       warmup=warmup, seed=i, factor=c)
            getrandbits = random.Random(i).getrandbits
            streams = {name: [getrandbits(1) for _ in range(cycles)]
                       for name in net.inputs()}
            got = refnet.simulate_lane(final, streams, cycles)
            slots = [refnet.simulate_lane(
                net, {name: s[j::c] for name, s in streams.items()},
                len(range(j, cycles, c))) for j in range(c)]
            mismatch = next(((name, t) for name in net.outputs()
                             for t in range(warmup, cycles)
                             if got[name][t] != slots[t % c][name][t // c]), None)
            assert report.mismatch == mismatch, (i, c)
            assert report.passed == (mismatch is None)


def _shuffled(net, rng, extra_wire):
    """`net` (with an extra register-free input -> output wire if asked) as
    declared, and with its nodes and wires declared in a random order."""
    nodes, edges = list(net.nodes.values()), list(net.edges)
    if extra_wire:
        nodes.append(Node("outx", NodeKind.OUTPUT))
        edges.append(Edge(rng.choice(net.inputs()), "outx", 0, 0))
    declared = Netlist(nodes, edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return declared, Netlist(nodes, edges)


def test_lags_do_not_depend_on_declaration_order():
    # The host tie once raised an input twice in one pass when an output
    # that reads it through a register-free wire came first, and the
    # retiming then moved the input's lag.
    for seed in range(600):
        rng = random.Random(seed)
        net = gennet.random_netlist(rng, max_gates=10, safe_loops=False)
        declared, shuffled = _shuffled(net, rng, seed % 2)
        c = 1 + seed % 3
        want = min_period_retime(cslow_transform(declared, c))
        got = min_period_retime(cslow_transform(shuffled, c))
        assert (got.period, got.lag) == (want.period, want.lag), seed


def test_optimality_small_graphs_against_brute_force():
    rng = random.Random(100)
    for _ in range(25):
        net = gennet.random_netlist(rng, max_gates=3, n_inputs=1, max_weight=1)
        result = min_period_retime(net)
        assert result.period == gennet.brute_force_min_period(net)


def test_period_monotone_in_c(ring_net_text):
    ring = parse(ring_net_text)
    periods = [min_period_retime(cslow_transform(ring, c)).period
               for c in range(1, 6)]
    assert periods == sorted(periods, reverse=True)
    assert periods[0] == 4 and periods[3] == 1


def test_cycle_ratio_lower_bound():
    rng = random.Random(42)
    for _ in range(20):
        net = gennet.random_netlist(rng, max_gates=6, p_feedback=0.5)
        result = min_period_retime(net)
        max_delay = max((n.delay for n in net.nodes.values()), default=0)
        assert result.period >= max_delay
        bound = _max_cycle_bound(net)
        assert result.period >= bound


def _max_cycle_bound(net):
    """max over simple directed cycles of ceil(delay sum / register sum)."""
    names = list(net.nodes)
    adj = {}
    for e in net.edges:
        adj.setdefault(e.src, []).append((e.dst, e.weight))
    best = 0
    start_stack = []

    def dfs(node, start, seen, dsum, wsum):
        nonlocal best
        for succ, w in adj.get(node, ()):  # enumerate simple cycles
            if succ == start:
                best = max(best, math.ceil((dsum) / (wsum + w)))
            elif succ not in seen and names.index(succ) > names.index(start):
                dfs(succ, start, seen | {succ}, dsum + net.nodes[succ].delay,
                    wsum + w)

    for start in names:
        dfs(start, start, {start}, net.nodes[start].delay, 0)
    return best


def _unit_ring(n, k):
    """n unit-delay gates in a loop with k registers on the feedback wire
    and k on each io wire."""
    nodes = [Node("in", NodeKind.INPUT), Node("g0", NodeKind.XOR, 1)]
    nodes += [Node("g%d" % i, NodeKind.BUF, 1) for i in range(1, n)]
    nodes.append(Node("out", NodeKind.OUTPUT))
    edges = [Edge("in", "g0", 0, k), Edge("g%d" % (n - 1), "g0", 1, k)]
    edges += [Edge("g%d" % i, "g%d" % (i + 1), 0, 0) for i in range(n - 1)]
    edges.append(Edge("g%d" % (n - 1), "out", 0, k))
    return Netlist(nodes, edges)


def test_ring_meets_cycle_bound_with_equality(ring_net_text):
    ring = parse(ring_net_text)
    for c in range(1, 6):
        slowed = cslow_transform(ring, c)
        assert min_period_retime(slowed).period == math.ceil(4 / c)
    # Every probe below ceil(n/k) is infeasible and must be refuted early.
    for n, k in ((600, 7), (601, 6), (9, 3)):
        assert min_period_retime(_unit_ring(n, k)).period == math.ceil(n / k)


def _oracle_matches(net):
    result = min_period_retime(net)
    assert (result.period, result.lag) == refretime.min_period_retime(net)
    return result


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32), c=st.integers(1, 3), safe_loops=st.booleans(),
       max_gates=st.integers(1, 10), p_feedback=st.sampled_from([0.1, 0.3, 0.6]),
       max_delay=st.integers(0, 4))
def test_min_period_retime_matches_dense_oracle(seed, c, safe_loops, max_gates,
                                                p_feedback, max_delay):
    net = gennet.random_netlist(random.Random(seed), max_gates=max_gates,
                                p_feedback=p_feedback, max_delay=max_delay,
                                safe_loops=safe_loops)
    slowed = cslow_transform(net, c)
    result = _oracle_matches(slowed)
    assert result.netlist == apply_retiming(slowed, result.lag)
    assert critical_path(result.netlist).period == result.period


def test_min_period_retime_matches_oracle_past_infeasible_probes(ring_net_text):
    # The search starts at the largest gate delay, so every case whose
    # period exceeds it refutes at least one probe on the way.
    from conftest import CORPUS
    ring = parse(ring_net_text)
    cases = [ring, cslow_transform(ring, 2), _unit_ring(9, 2),
             cslow_transform(_unit_ring(7, 1), 2),
             parse((CORPUS / "circuits" / "random136.net").read_text())]
    for net in cases:
        result = _oracle_matches(net)
        assert result.period > max(n.delay for n in net.nodes.values())
