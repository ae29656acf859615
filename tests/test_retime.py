import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gennet
import refnet
import refratio
import refretime
from cslowsim import retime
from cslowsim.netlist import (GATE_KINDS, INVERTING, LOCAL_DEPTH, Edge, Netlist, Node,
                              NodeKind, critical_path, parse, simulate)
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
    recover_lags,
    retimed_weights,
    simulate_lag_shifted,
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


def test_min_period_retime_of_empty_netlist():
    empty = parse("")
    assert min_period_retime(empty) == retime.RetimeResult({}, 0, empty, 0)


def test_min_period_retime_lags_preserve_io():
    net = parse("input a\ngate g BUF 2\ngate h BUF 2\noutput o\n"
                "wire a g 0 2\nwire g h 0 0\nwire h o 0 0\n")
    result = min_period_retime(net)
    assert result.period == 2
    assert result.lag.get("a", 0) == 0
    assert result.lag.get("o", 0) == 0


def test_pipeline_examples(chain_net_text):
    chain = parse(chain_net_text)
    assert critical_path(pipeline(chain, 1).netlist).period == 2
    assert critical_path(pipeline(chain, 0).netlist).period == 4
    result = pipeline(chain, 3)
    # The retimer's periods are the staged netlist's: the input's before.
    assert (result.period_before, result.period) == (4, 1)
    deep = result.netlist
    assert critical_path(deep).period == 1
    # every input->output path gains exactly k registers
    assert deep.total_registers == 3


def test_pipeline_latency_shift(chain_net_text):
    chain = parse(chain_net_text)
    for k in (1, 2, 3):
        piped = pipeline(chain, k).netlist
        rng = random.Random(4)
        stream = [rng.randint(0, 1) for _ in range(40)]
        base = simulate(chain, {"in": stream}, 40)
        out = simulate(piped, {"in": stream}, 40)
        assert out["out"][k:] == base["out"][:-k]


def test_pipeline_periods_are_the_netlists():
    # `retime --pipeline` reports the retimer's periods: the input's own
    # before, and the pipelined netlist's after.
    rng = random.Random(23)
    for _ in range(40):
        net = gennet.random_netlist(rng, max_gates=8, p_feedback=0)
        for k in range(4):
            result = pipeline(net, k)
            assert result.period_before == critical_path(net).period
            assert result.period == critical_path(result.netlist).period


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
    with pytest.raises(BadC, match="^slowdown factor must be >= 1, got 0$"):
        check_equivalence(ring, ring, trials=16, cycles=64, factor=0)


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
        assert result.period >= math.ceil(refratio.max_cycle_ratio_enumerated(net))


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
    # C-slow keeps the register-free wires, so `retime` reports the
    # slowed netlist's own period as the original's.
    before = critical_path(net).period
    assert result.period_before == before
    assert [critical_path(cslow_transform(net, k)).period for k in range(1, 5)] == [before] * 4


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


def test_recover_lags_only_of_a_retiming(ring_net_text, chain_net_text):
    ring = parse(ring_net_text)
    retimed = apply_retiming(cslow_transform(ring, 2), {"g2": -1})
    assert recover_lags(ring, retimed, 2) == dict.fromkeys(ring.nodes, 0) | {"g2": -1}
    # A register added to the loop is no retiming: the two netlists are
    # simulated apart, and differ.
    extra = ring.with_weights([e.weight + (e.src == "g1") for e in ring.edges])
    assert recover_lags(ring, extra, 1) is None
    assert not check_equivalence(ring, extra, trials=8, cycles=32, warmup=0).passed
    # A pipeline moves the io nodes' phase, which a retiming keeps.
    chain = parse(chain_net_text)
    assert recover_lags(chain, pipeline(chain, 1).netlist, 1) is None
    assert recover_lags(chain, chain, 1) == dict.fromkeys(chain.nodes, 0)


def _random_lags(net, c, rng, bound, pin_inverting):
    """Random legal lags of cslow_transform(net, c) in [-bound, bound], io
    lags 0 (and inverting gates' too if `pin_inverting`).  Each move keeps
    the gate inside the interval its neighbours' lags allow, so the lags
    stay legal throughout."""
    slowed = cslow_transform(net, c)
    movable = [n.name for n in net.nodes.values() if n.kind in GATE_KINDS
               and not (pin_inverting and n.kind in INVERTING)]
    lag = dict.fromkeys(net.nodes, 0)
    for _ in range(4):
        rng.shuffle(movable)
        for v in movable:
            lo, hi = -bound, bound
            for e in slowed.edges:
                if e.src != e.dst and e.dst == v:
                    lo = max(lo, lag[e.src] - e.weight)
                if e.src != e.dst and e.src == v:
                    hi = min(hi, lag[e.dst] + e.weight)
            lag[v] = rng.randint(lo, hi)
    return {name: r for name, r in lag.items() if r}


def _deepened(net, rng):
    """`net` with a wire past `LOCAL_DEPTH` from an input, deeper output
    wires, and CONST1 -> NAND -> output beside it, so lags can reach
    past 10 either way."""
    first_in = True
    edges = []
    for e in net.edges:
        w = e.weight
        if e.src in net.inputs() and first_in:
            w, first_in = LOCAL_DEPTH + rng.randint(1, 4), False
        elif net.nodes[e.dst].kind is NodeKind.OUTPUT:
            w += rng.randint(0, 12)
        edges.append(Edge(e.src, e.dst, e.pin, w))
    nodes = list(net.nodes.values()) + [
        Node("one", NodeKind.CONST1, 1), Node("k", NodeKind.NAND, 1),
        Node("outk", NodeKind.OUTPUT)]
    edges += [Edge("one", "k", 0, rng.randint(0, 3)),
              Edge(rng.choice(net.gates()), "k", 1, rng.randint(0, 3)),
              Edge("k", "outk", 0, rng.randint(0, 12))]
    return Netlist(nodes, edges)


def _lag_cases():
    """(a, c, b, cycles, pinned) over min-period retimings of `gennet`
    netlists and random legal lags; `pinned` when the lags leave every
    inverting gate at 0."""
    rng = random.Random(26)
    for i in range(120):
        c = 1 + i % 6
        net = gennet.random_netlist(rng, max_gates=6, safe_loops=bool(i % 2))
        b = min_period_retime(cslow_transform(net, c)).netlist
        yield net, c, b, rng.randint(1, 40), False
        deep = _deepened(net, rng)
        pin = i % 3 == 0
        lag = _random_lags(deep, c, rng, 15, pin)
        yield deep, c, apply_retiming(cslow_transform(deep, c), lag), rng.randint(1, 60), pin


def test_lag_shifted_lanes_are_the_retimed_netlist(monkeypatch):
    # b runs as lag-shifted threads in a's lanes: its lanes must equal b's own
    # simulation and the reference simulator cycle for cycle, and the check
    # must give the direct two-netlist check's verdict and mismatch.
    trials = 2
    failed = passed = short = moved = 0
    starts, const1 = set(), set()
    for i, (a, c, b, cycles, pinned) in enumerate(_lag_cases()):
        lag = recover_lags(a, b, c)
        assert apply_retiming(cslow_transform(a, c), lag) == b, i
        start = [-lag[n] for n, node in a.nodes.items() if node.kind in INVERTING]
        starts.update(start)
        const1.add(lag.get("one", 0))
        steps = -(-cycles // c)
        short += steps < -(-max([0, *start]) // c) - min([0, *start]) // c
        rng = random.Random(i)
        streams = {name: [rng.getrandbits(trials) for _ in range(cycles)]
                   for name in a.inputs()}
        slots = {name: [sum(s[t] << (t % c) * trials for t in range(T * c, min(T * c + c, cycles)))
                        for T in range(steps)] for name, s in streams.items()}
        cols = simulate_lag_shifted(a, lag, c, trials, slots, steps)
        outs_a = simulate(a, slots, steps, lanes=c * trials)
        outs_b = simulate(b, streams, cycles, lanes=trials)
        lane0 = {name: [v & 1 for v in s] for name, s in streams.items()}
        ref = refnet.simulate_lane(b, lane0, cycles)
        for name in a.outputs():
            col_a = [v & (1 << c * trials) - 1 for v in cols[name]]
            col_b = [v >> c * trials for v in cols[name]]
            assert col_a == outs_a[name], (i, name)
            got = [col_b[t // c] >> (t % c) * trials & (1 << trials) - 1
                   for t in range(cycles)]
            assert got == outs_b[name], (i, name)
            assert [v & 1 for v in got] == ref[name], (i, name)
            if pinned:  # only zero-preserving gates moved: equal from cycle 0
                assert col_b == col_a, (i, name)
        warmup = rng.randrange(cycles)
        report = check_equivalence(a, b, trials, cycles, warmup, seed=i, factor=c)
        with monkeypatch.context() as m:
            m.setattr(retime, "recover_lags", lambda *args: None)
            direct = check_equivalence(a, b, trials, cycles, warmup, seed=i, factor=c)
        assert (report.passed, report.mismatch) == (direct.passed, direct.mismatch), i
        assert report.passed or not pinned
        moved += pinned and any(lag.values())
        failed += not report.passed
        passed += report.passed
    assert failed and passed and short and moved  # no part of it vacuous
    assert min(starts) <= -10 and max(starts) >= 10  # inverting gates either way
    assert min(const1) < 0 < max(const1)


def test_decided_check_equals_full_and_direct_checks(monkeypatch):
    # The lag-shifted check stops once its report is decided: when the two
    # lane halves agree, or when the first output differs; a retiming that
    # moves no inverting gate is certified before anything runs.  Its
    # report must be the full run's (no certificate, no stop) and the
    # direct two-netlist check's.
    rng = random.Random(30)
    cases = [(a, c, b, cycles, rng.randrange(cycles))
             for a, c, b, cycles, _ in _lag_cases()]
    for net in _check_cases():
        for c in (1, 2, 3):
            slowed = cslow_transform(net, c)
            final = min_period_retime(slowed).netlist
            cases.append((net, c, final, None, flush_warmup(slowed, final)))
    at_start = agreed = differed = ran_out = 0
    for i, (a, c, b, cycles, warmup) in enumerate(cases):
        report = check_equivalence(a, b, 2, cycles, warmup, seed=i, factor=c)
        with monkeypatch.context() as m:  # no certificate and no probe, so no stop
            m.setattr(retime, "keeps_inverting_gates", lambda *args: False)
            m.setattr(retime, "simulate",
                      lambda *args, probe=None, **kwargs: simulate(*args, **kwargs))
            full = check_equivalence(a, b, 2, cycles, warmup, seed=i, factor=c)
            m.setattr(retime, "recover_lags", lambda *args: None)
            direct = check_equivalence(a, b, 2, cycles, warmup, seed=i, factor=c)
        assert report == full == direct, i
        steps = -(-report.cycles // c)
        assert direct.simulated == steps + report.cycles
        assert report.simulated <= full.simulated and full.simulated >= steps
        if report.simulated == full.simulated:
            ran_out += 1
        elif report.passed:
            at_start += not report.simulated  # certified: no inverting gate moves
            agreed += report.simulated > 0
        else:
            differed += report.mismatch[0] == a.outputs()[0]
    assert at_start and agreed and differed and ran_out  # each way of ending


def test_decided_check_waits_for_every_lane_to_be_live(monkeypatch):
    # CONST1 -> NAND, the NAND's other input `weight` registers behind `in`,
    # and the CONST1 given lag -start: b's NAND reads 1 until the CONST1
    # starts, where a's inverts `in`.  Only `in` holds registers, and its
    # history is the same in both halves from the start, so a check that
    # trusted agreeing histories while the CONST1 is still dead would PASS
    # these FAILs.  With start 4 the check probes at step 3, the last dead
    # one.
    failed = 0
    for weight, start in ((2, 5), (3, 4)):
        a = parse("input in\noutput o\ngate one CONST1 1\ngate k NAND 1\n"
                  "wire one k 0 0\nwire in k 1 %d\nwire k o 0 0\n" % weight)
        for c in (1, 2):
            b = apply_retiming(cslow_transform(a, c), {"one": -start})
            report = check_equivalence(a, b, trials=4, cycles=20, warmup=0, factor=c)
            with monkeypatch.context() as m:
                m.setattr(retime, "recover_lags", lambda *args: None)
                assert report == check_equivalence(a, b, trials=4, cycles=20, warmup=0,
                                                   factor=c)
            failed += not report.passed
    assert failed == 3


def test_decided_check_names_the_first_output():
    # The inverting ring with a second output, `early`, read straight off
    # the NOT: the retimed loop shows at `early` before it reaches `out`
    # through five registers.  The report is output-major, so it names
    # `out`, and the check stops once `out` differs, not once `early` does.
    text = ("input in\noutput out\noutput early\ngate g1 XOR 1\ngate g2 NOT 1\n"
            "gate g3 BUF 1\ngate g4 BUF 1\nwire in g1 0 1\nwire g4 g1 1 2\n"
            "wire g1 g2 0 0\nwire g2 g3 0 0\nwire g3 g4 0 0\nwire g4 out 0 5\n"
            "wire g2 early 0 0\n")
    swapped = text.replace("output out\noutput early", "output early\noutput out")
    for c in (1, 2, 3):
        net = parse(text)
        lag = min_period_retime(cslow_transform(net, c)).lag
        report = check_equivalence(net, apply_retiming(cslow_transform(net, c), lag),
                                   trials=4, cycles=60, warmup=0, factor=c)
        net = parse(swapped)
        other = check_equivalence(net, apply_retiming(cslow_transform(net, c), lag),
                                  trials=4, cycles=60, warmup=0, factor=c)
        assert report.mismatch[0] == "out" and other.mismatch[0] == "early"
        assert other.mismatch[1] < report.mismatch[1]
        assert report.simulated < -(-60 // c)


def test_certified_check_is_the_direct_check_and_the_reference(monkeypatch):
    # A retiming of the C-slowed original whose lags leave every inverting
    # gate at 0 is certified without simulating anything.  With inverting
    # gates in loops, each certified case must pass the direct two-netlist
    # check from cycle 0 and equal the C-slowed original in the reference
    # simulator from cycle 0.  A moved inverting gate, or one changed
    # weight (no retiming at all), must still be simulated.
    rng = random.Random(31)
    certified = moved = changed = 0
    for i in range(120):
        c = 1 + i % 3
        net = gennet.random_netlist(rng, max_gates=6, safe_loops=False)
        slowed = cslow_transform(net, c)
        b = apply_retiming(slowed, _random_lags(net, c, rng, 6, i % 2 == 0))
        if i % 5 == 4:
            e = rng.randrange(len(b.weights))
            b = b.with_weights([w + (j == e) for j, w in enumerate(b.weights)])
        cycles = rng.randint(1, 40)
        report = check_equivalence(net, b, 4, cycles, warmup=0, seed=i, factor=c)
        lag = recover_lags(net, b, c)
        if lag is None or any(lag[n] for n, node in net.nodes.items() if node.kind in INVERTING):
            assert report.simulated > 0, i
            moved += lag is not None
            changed += lag is None
            continue
        certified += 1
        assert report == retime.EquivalenceReport(True, 0, 4, cycles) and not report.simulated
        with monkeypatch.context() as m:
            m.setattr(retime, "recover_lags", lambda *args: None)
            direct = check_equivalence(net, b, 4, cycles, warmup=0, seed=i, factor=c)
        assert direct == report and direct.simulated, i
        lane = {name: [rng.getrandbits(1) for _ in range(cycles)] for name in net.inputs()}
        assert refnet.simulate_lane(b, lane, cycles) == refnet.simulate_lane(slowed, lane, cycles), i
    assert certified and moved and changed  # each branch taken


def _ratio_cases():
    """gennet netlists with loops, with and without inverting gates in them,
    and the corpus circuits."""
    from conftest import CORPUS
    rng = random.Random(29)
    nets = [gennet.random_netlist(rng, max_gates=10, max_weight=1, p_zero_weight=0.8,
                                  safe_loops=safe)
            for safe in (True, False) for _ in range(20)]
    return nets + [parse(path.read_text())
                   for path in sorted((CORPUS / "circuits").glob("*.net"))]


def test_cycle_ratio_methods_agree():
    cases = _ratio_cases()
    ratios = [refratio.max_cycle_ratio(net) for net in cases]
    assert any(r and r.denominator > 1 for r in ratios)  # not all whole, not all 0
    for net, ratio in zip(cases, ratios):
        if len(net.nodes) <= 20:
            assert ratio == refratio.max_cycle_ratio_enumerated(net)


def test_min_period_meets_cycle_ratio_bound():
    # Retiming keeps each cycle's registers and C-slow multiplies them by C,
    # so no period of a C-slowed netlist is below lambda / C.
    met = 0  # cases where the ratio bound is above d_max and met exactly
    for net in _ratio_cases():
        ratio = refratio.max_cycle_ratio(net)
        d_max = max((node.delay for node in net.nodes.values()), default=0)
        for c in range(1, 9):
            period = min_period_retime(cslow_transform(net, c)).period
            assert period >= max(d_max, math.ceil(ratio / c)), (net, c)
            met += period == math.ceil(ratio / c) > d_max
    assert met >= 5
