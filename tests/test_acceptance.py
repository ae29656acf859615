"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` to see the per-criterion
lines.  Everything here is exact (integer equality); nothing is tuned.
"""

import json
import math
import random

import pytest

import gennet
import genprog
import refmicro
from reftrace import format_trace, image_trace, instruction_cycle_cost
from test_microcode import observed_costs

from cslowsim import cli
from cslowsim.cslow import CslowConfig, CslowMachine, MemoryMode
from cslowsim.isa import Mnemonic, assemble
from cslowsim.microcode import run
from cslowsim.netlist import critical_path, parse
from cslowsim.retime import (
    area_report,
    check_cslow_equivalence,
    check_equivalence,
    cslow_transform,
    min_period_retime,
    pipeline,
)

pytestmark = pytest.mark.acceptance


def _report(number, text):
    print("\n[criterion %d] PASS - %s" % (number, text))


# --- shared suites -----------------------------------------------------------

@pytest.fixture(scope="module")
def random_programs():
    rng = random.Random(2024)
    programs = [genprog.random_halting_program(rng) for _ in range(200)]
    images = [assemble(p) for p in programs]
    # Per program: its cycles, final cells and trace text, row by row.
    baselines = []
    for img in images:
        _, state, mem, trace = image_trace(img)
        baselines.append((state.cycles, bytes(mem), format_trace(trace)))
    return images, baselines


@pytest.fixture(scope="module")
def small_netlists():
    rng = random.Random(501)
    return [gennet.random_netlist(rng, max_gates=3, n_inputs=1, max_weight=1)
            for _ in range(50)]


@pytest.fixture(scope="module")
def medium_netlists():
    rng = random.Random(502)
    nets = []
    while len(nets) < 50:
        net = gennet.random_netlist(rng, max_gates=rng.randint(8, 46),
                                    max_weight=2)
        if len(net.nodes) <= 50:
            nets.append(net)
    return nets


@pytest.fixture(scope="module")
def retimed_pairs(small_netlists, medium_netlists):
    pairs = []
    for net in small_netlists + medium_netlists:
        result = min_period_retime(net)
        pairs.append((net, result.netlist, result))
    return pairs


# --- criterion 1: sequential sum vs interleaved rounds, exactly --------------

def test_criterion_1_bench_sum_vs_max(tmp_path, corpus_programs, capsys):
    base = [run(assemble(p.read_text())).cycles for p in corpus_programs]
    n1, n2, n3 = base
    assert n1 < n2 < n3, "corpus must be ordered shortest to longest"

    report_path = tmp_path / "bench.json"
    code = cli.main(["bench", *map(str, corpus_programs),
                     "--c-values", "1,2,3", "--json", str(report_path)])
    capsys.readouterr()
    assert code == 0
    rows = json.loads(report_path.read_text())["rows"]
    assert [r["sequential_sum"] for r in rows] == [n1, n1 + n2, n1 + n2 + n3]
    assert [r["cslow_rounds"] for r in rows] == [n1, n2, n3]
    assert [r["n_threads"] for r in rows] == [1, 2, 3]
    _report(1, "bench reproduces sum {%d,%d,%d} vs rounds {%d,%d,%d}"
            % (n1, n1 + n2, n1 + n2 + n3, n1, n2, n3))


# --- criterion 2: cycle costs against the independent row-walking oracle -----

def test_criterion_2_cycle_oracle():
    expected = refmicro.EXPECTED_COSTS
    for name, cost in expected.items():
        m = Mnemonic(name)
        outcomes = (True, False) if name in ("JOZ", "JOC") else (None,)
        for taken in outcomes:
            walk = refmicro.walk_cost(name, taken=bool(taken))
            assert walk == cost, "frozen table disagrees with oracle for %s" % name
            assert instruction_cycle_cost(m, taken) == walk

    # observed per-instruction costs in a live run, both branch outcomes
    src = ("LOAD X\nADD Y\nSTO Z\nSUB Y\nCMA\nINCA\nDCRA\nAND M\n"
           "JOZ N1\nN1: JOC N2\n"            # not-taken JOZ, taken JOC (carry set)
           "N2: LOAD X\nSUB X\nJOZ N3\n"     # taken JOZ
           "N3: LOAD X\nADD X\nJOC N4\n"     # not-taken JOC (no carry)
           "N4: HALT\n"
           "X: .word 3\nY: .word 200\nZ: .word 0\nM: .word 0xFF")
    trace = image_trace(assemble(src))[3]
    seen = set()
    for name, taken, cycles in observed_costs(trace):
        assert cycles == refmicro.walk_cost(name, taken=bool(taken))
        assert cycles == expected[name]
        seen.add(name)
    assert seen == set(expected), "run must exercise all 11 mnemonics"
    _report(2, "11 mnemonic costs match the row-walking oracle "
               "(CMA=6 INCA=7 DCRA=8 HALT=7 LOAD=11 STO=10 ADD=12 SUB=12 "
               "AND=12 JOZ=11 JOC=12), in-table and observed")


# --- criterion 3: thread isolation across C and sharing modes ----------------

def test_criterion_3_thread_isolation(random_programs, tmp_path):
    images, baselines = random_programs
    paths = [tmp_path / ("t%d.trc" % t) for t in range(8)]
    checked = 0
    for c in (1, 2, 3, 4, 8):
        for mode in (MemoryMode.PRIVATE, MemoryMode.TAGGED):
            for lo in range(0, len(images), c):
                group = list(range(lo, min(lo + c, len(images))))
                while len(group) < c:   # pad the tail group
                    group.append(group[-1] % c)
                machine = CslowMachine(
                    CslowConfig(c, mode, 10_000_000),
                    [images[i] for i in group])
                result = machine.run_all(paths[:c])
                for slot, prog in enumerate(group):
                    cycles, memory, text = baselines[prog]
                    assert result.per_thread_cycles[slot] == cycles
                    got = paths[slot].read_text()
                    assert got.startswith(text)
                    assert all(line.split()[1] == "52"
                               for line in got[len(text):].splitlines())
                    assert bytes(result.memories[slot]) == memory
                    checked += 1
    _report(3, "%d thread runs bit-identical to their baselines "
               "(200 programs x C in {1,2,3,4,8} x {private, tagged})" % checked)


# --- criterion 4: fixture critical paths -------------------------------------

def test_criterion_4_fixture_periods(chain_net_text, ring_net_text):
    chain = parse(chain_net_text)
    assert critical_path(chain).period == 4
    assert critical_path(pipeline(chain, 1).netlist).period == 2

    ring = parse(ring_net_text)
    assert critical_path(ring).period == 4
    two = cslow_transform(ring, 2)
    assert min_period_retime(two).period == 2
    three = cslow_transform(ring, 3)
    result = min_period_retime(three)
    assert result.period == math.ceil(4 / 3) == 2
    assert result.netlist.total_registers == 3
    _report(4, "chain 4 -> pipelined 2; ring 4 -> 2-slow 2 -> 3-slow 2 "
               "with 3 registers")


# --- criterion 5: retiming optimality vs brute force, legality at scale ------

def test_criterion_5_retiming_optimality(small_netlists, medium_netlists,
                                         retimed_pairs):
    for net in small_netlists:
        got = min_period_retime(net).period
        want = gennet.brute_force_min_period(net)
        assert got == want, "suboptimal retiming on %r" % net

    for net, retimed, result in retimed_pairs[len(small_netlists):]:
        assert all(e.weight >= 0 for e in retimed.edges)
        assert result.period <= critical_path(net).period
        assert critical_path(retimed).period == result.period
    _report(5, "50 small netlists match exhaustive lag search; 50 netlists "
               "up to 50 nodes stay legal with period <= original")


# --- criterion 6: functional preservation ------------------------------------

def test_criterion_6_functional_preservation(retimed_pairs, ring_net_text,
                                             chain_net_text):
    for i, (net, retimed, _) in enumerate(retimed_pairs):
        report = check_equivalence(net, retimed, trials=100, cycles=256,
                                   seed=1000 + i)
        assert report.passed, "retimed pair %d diverged at %s" % (i, report.mismatch)

    rng = random.Random(777)
    cslow_bases = [parse(ring_net_text), parse(chain_net_text)]
    cslow_bases += [gennet.random_netlist(rng, max_gates=10) for _ in range(20)]
    checked = 0
    for i, net in enumerate(cslow_bases):
        for factor in (2, 3):
            slowed = cslow_transform(net, factor)
            report = check_cslow_equivalence(net, slowed, factor, trials=100,
                                             cycles=256, seed=2000 + i)
            assert report.passed and report.warmup == 0
            checked += 1
    _report(6, "100 retimed pairs equivalent over 100 trials x 256 cycles "
               "after warmup; %d interleaved pairs bit-exact from cycle 0"
            % checked)


# --- criterion 7: area model -------------------------------------------------

def test_criterion_7_area_model(chain_net_text, ring_net_text, toggle_net_text):
    fixtures = [parse(chain_net_text), parse(ring_net_text),
                parse(toggle_net_text)]
    for net in fixtures:
        for c in (1, 2, 3, 4):
            slowed = cslow_transform(net, c)
            model = area_report(net, slowed)
            assert model.registers_after == c * model.registers_before
            assert model.registers_before == net.total_registers
            assert model.gates == len(net.gates())
            if model.registers_before:
                assert model.ratio == c
    ring3 = area_report(fixtures[1], cslow_transform(fixtures[1], 3))
    doc = ring3.to_json()
    # the measured synthesis datum rides along as annotation, never as output
    assert doc["fpga_reference"] == {
        "slice_registers_before": 2107,
        "slice_registers_after": 4270,
        "ratio": 2.03,
        "note": doc["fpga_reference"]["note"],
    }
    assert doc["ratio"] == 3.0
    _report(7, "register count scales exactly C-fold on every fixture; "
               "2107->4270 datum is annotation only")


# --- criterion 8: C=1 degeneracy ---------------------------------------------

def test_criterion_8_degeneracy(tmp_path, corpus_programs, capsys):
    image = assemble(corpus_programs[0].read_text())
    baseline = run(image)
    machine = CslowMachine(CslowConfig(1, MemoryMode.PRIVATE), [image])
    trace_m = tmp_path / "m.trc"
    result = machine.run_all([trace_m])
    assert result.per_thread_cycles == (baseline.cycles,)
    assert result.fast_cycles_total == baseline.cycles
    assert trace_m.read_text() == format_trace(image_trace(image)[3])
    assert result.memories[0] == baseline.memory.cells
    assert result.states[0].snapshot() == baseline.state.snapshot()

    img_path = tmp_path / "p.hex"
    img_path.write_text(image.to_text())
    trace_a = tmp_path / "a.trc"
    trace_b = tmp_path / "b.trc"
    code = cli.main(["run", str(img_path), "--trace", str(trace_a)])
    out_run = capsys.readouterr().out
    assert code == 0
    code = cli.main(["run-cslow", str(img_path), "--c", "1",
                     "--trace", str(trace_b)])
    out_cslow = capsys.readouterr().out
    assert code == 0
    assert out_run == out_cslow
    assert trace_a.read_bytes() == trace_b.read_bytes() == trace_m.read_bytes()
    _report(8, "C=1 machine byte-identical to the baseline core, "
               "trace files included")
