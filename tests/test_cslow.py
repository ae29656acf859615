import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import genprog
from cslowsim import cslow, microcode
from cslowsim.cslow import (
    MAX_THREADS,
    BadThreadCount,
    CompareResult,
    CslowConfig,
    CslowMachine,
    ImageMismatch,
    MemoryMode,
    RunMetrics,
    compare,
    machine_report,
    read_bundle,
    sequential_baseline,
)
from cslowsim.isa import MEMORY_SIZE, MemoryImage, assemble, assemble_program
from cslowsim.microcode import (
    MICROPROGRAM,
    CoreState,
    CycleLimitExceeded,
    run,
)
from reftrace import format_trace, image_trace, step, write_bundle


def asm(text):
    return assemble(text)


def test_new_machine_validation():
    img = asm("HALT")
    with pytest.raises(BadThreadCount):
        CslowMachine(CslowConfig(0), [])
    with pytest.raises(BadThreadCount):
        CslowMachine(CslowConfig(9), [img] * 9)
    with pytest.raises(BadThreadCount):
        CslowMachine(CslowConfig(2, MemoryMode.PRIVATE), [img])
    other = asm("CMA\nHALT")
    with pytest.raises(ImageMismatch):
        CslowMachine(CslowConfig(2, MemoryMode.SHARED), [img, other])
    # one image, or C identical copies, both fine in shared mode
    CslowMachine(CslowConfig(2, MemoryMode.SHARED), [img])
    CslowMachine(CslowConfig(2, MemoryMode.SHARED), [img, img.copy()])
    m = CslowMachine(CslowConfig(3, MemoryMode.PRIVATE), [img, other, img])
    assert all(ctx.micro_pc == 0 for ctx in m.contexts)


def test_round_robin_schedule():
    imgs = [asm("L: INCA\nJOZ L\nHALT")] * 3
    ref = RoundRobin(CslowConfig(3), imgs, False)
    for tick in range(12):
        before = [ctx.cycles for ctx in ref.contexts]
        ref.tick()
        after = [ctx.cycles for ctx in ref.contexts]
        for t in range(3):
            assert after[t] - before[t] == (1 if t == tick % 3 else 0)
    assert ref.fast_cycles == 12
    machine = CslowMachine(CslowConfig(3, max_fast_cycles=12), imgs)
    with pytest.raises(CycleLimitExceeded):
        machine.run_all()
    assert_same_machine(machine, ref)
    with pytest.raises(ValueError):
        machine.run_all()  # a machine runs once


def test_halted_thread_burns_idle_slots():
    fast = asm("HALT")
    slow = asm("CMA\nCMA\nCMA\nHALT")
    machine = CslowMachine(CslowConfig(2), [fast, slow])
    machine.run_all()
    halted_at = machine.halt_cycle[0]
    assert halted_at == 8
    # thread 0 kept ticking on the halt row afterwards
    assert machine.contexts[0].cycles > halted_at
    assert machine.contexts[0].halted


def test_tagged_mode_partitions_address_space():
    writer = assemble_program("LOAD V\nSTO T\nHALT\nV: .word 0xAB\nT: .word 0")
    target = writer.symbols["T"]
    idle = asm("HALT")
    machine = CslowMachine(CslowConfig(2, MemoryMode.TAGGED), [idle, writer.image])
    machine.run_all()
    # thread 1's partition written, thread 0's untouched
    assert machine.thread_memory(1)[target] == 0xAB
    assert machine.thread_memory(0)[target] == 0


def test_private_isolation_and_metrics():
    sources = ["CMA\nHALT", "INCA\nINCA\nHALT", "DCRA\nHALT"]
    imgs = [asm(s) for s in sources]
    machine = CslowMachine(CslowConfig(3), imgs)
    metrics = machine.run_all()
    base = [run(i).cycles for i in imgs]
    assert metrics.per_thread_cycles == base
    assert metrics.rounds == max(base)
    assert 3 * (metrics.rounds - 1) < metrics.fast_cycles_total <= 3 * metrics.rounds
    assert metrics.occupancy + metrics.vertical_waste == 1
    assert metrics.vertical_waste == Fraction(
        metrics.fast_cycles_total - sum(base), metrics.fast_cycles_total)


def test_two_cma_threads_metrics():
    imgs = [asm("CMA\nHALT")] * 2
    metrics = CslowMachine(CslowConfig(2), imgs).run_all()
    assert metrics.per_thread_cycles == [14, 14]  # 1 reset + 6 + 7
    assert metrics.rounds == 14


def test_c1_degenerates_to_baseline(tmp_path):
    src = "LOAD X\nADD X\nSTO Y\nHALT\nX: .word 7\nY: .word 0"
    asmres = assemble_program(src)
    baseline = run(asmres.image)
    _, _, _, trace = image_trace(asmres.image)
    machine = CslowMachine(CslowConfig(1), [asmres.image])
    path = tmp_path / "t.trc"
    metrics = machine.run_all([path])
    assert metrics.rounds == metrics.fast_cycles_total == baseline.cycles
    assert path.read_text() == format_trace(trace)
    assert os.listdir(tmp_path) == ["t.trc"]
    assert machine.thread_memory(0) == baseline.memory
    assert machine.contexts[0].snapshot() == baseline.state.snapshot()


# A traced shared run of a nested loop, in a fresh interpreter: prints the
# run's cycles and the process's peak resident set (KB on Linux).
_PEAK_RSS = """
import os, resource, sys, tempfile
import genprog
from cslowsim.cslow import CslowConfig, CslowMachine, MemoryMode
from cslowsim.isa import assemble
image = assemble(genprog.nested_loop(int(sys.argv[1]), 240))
machine = CslowMachine(CslowConfig(2, MemoryMode.SHARED, 10**7), [image])
with tempfile.TemporaryDirectory() as d:
    machine.run_all([os.path.join(d, "t0"), os.path.join(d, "t1")])
print(machine.metrics().rounds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KB")
def test_traced_run_memory_does_not_grow_with_its_length():
    # About 10 k and 1 M cycles: a trace kept in memory would add tens of
    # MB at 1 M; a streamed one holds a chunk at a time.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")])))
    peaks = {}
    for outer in (1, 75):
        out = subprocess.run([sys.executable, "-c", _PEAK_RSS, str(outer)], env=env,
                             check=True, timeout=120, capture_output=True, text=True)
        cycles, peak_kb = map(int, out.stdout.split())
        peaks[cycles] = peak_kb
    assert sorted(peaks) == [13_501, 1_012_871]
    assert peaks[1_012_871] - peaks[13_501] < 4096, peaks


def test_sequential_baseline_sums():
    imgs = [asm("HALT"), asm("CMA\nHALT"), asm("INCA\nHALT")]
    totals = [run(i).cycles for i in imgs]
    assert sequential_baseline(imgs) == sum(totals)
    assert sequential_baseline(imgs[:1]) == totals[0]
    assert sequential_baseline([imgs[0]] * 3) == 3 * totals[0]


def test_compare_identical_threads_speedup_is_c():
    imgs = [asm("CMA\nINCA\nHALT")] * 3
    result = compare(imgs, 3)
    assert isinstance(result, CompareResult)
    assert result.speedup == 3
    assert result.sum == 3 * result.max_rounds
    assert compare(imgs[:1], 1).speedup == 1


def test_compare_unbalanced_threads():
    big = asm("L: LOAD X\nSUB ONE\nSTO X\nJOZ E\nJOC L\nE: HALT\n"
              "X: .word 20\nONE: .word 1")
    tiny = asm("HALT")
    result = compare([big, tiny, tiny], 3)
    n_big = run(big).cycles
    n_tiny = run(tiny).cycles
    assert result.max_rounds == n_big
    assert result.speedup == Fraction(n_big + 2 * n_tiny, n_big)
    assert 1 < result.speedup < 2


def test_schedule_invariance_under_permutation():
    rng = random.Random(5)
    imgs = [asm(genprog.random_halting_program(rng)) for _ in range(4)]
    base = CslowMachine(CslowConfig(4), imgs).run_all()
    order = [2, 0, 3, 1]
    permuted = CslowMachine(CslowConfig(4), [imgs[i] for i in order]).run_all()
    assert permuted.per_thread_cycles == [base.per_thread_cycles[i] for i in order]
    assert permuted.rounds == base.rounds


def test_shared_mode_deterministic_serialization():
    # Both threads hammer the same cell; round-robin order fixes the result.
    src = ("LOAD X\nINCA\nSTO X\nLOAD X\nINCA\nSTO X\nHALT\nX: .word 0")
    asmres = assemble_program(src)
    runs = []
    for _ in range(2):
        machine = CslowMachine(CslowConfig(2, MemoryMode.SHARED), [asmres.image])
        machine.run_all()
        runs.append(bytes(machine.thread_memory(0).cells))
    assert runs[0] == runs[1]
    # Lockstep lost update: both threads load X before either stores, so each
    # round-trip doubles up on the same value.  Racy, legal, deterministic.
    shared_x = runs[0][asmres.symbols["X"]]
    assert shared_x == 2


class RecordingMemory:
    """A 256-cell store that counts the reads and writes made to it."""

    def __init__(self, cells):
        self.cells = bytearray(cells)
        self.reads = self.writes = 0

    def __getitem__(self, addr):
        self.reads += 1
        return self.cells[addr]

    def __setitem__(self, addr, value):
        self.writes += 1
        self.cells[addr] = value


def test_no_row_reads_and_writes_memory():
    # Shared memory's lock-step copies rest on this rule (see `cslow`).
    rng = random.Random(11)
    seen = set()
    for upc in range(len(MICROPROGRAM.rows)):
        for _ in range(16):
            state = CoreState()
            state.pc, state.a, state.mar, state.ir, state.buffer = (
                rng.randrange(256) for _ in range(5))
            state.z, state.c = rng.randrange(2), rng.randrange(2)
            state.micro_pc = upc
            mem = RecordingMemory(rng.randbytes(MEMORY_SIZE))
            step(state, mem)
            assert not (mem.reads and mem.writes), upc
            seen.add((mem.reads > 0, mem.writes > 0))
    assert seen == {(False, False), (True, False), (False, True)}


def test_shared_c1_matches_baseline():
    asmres = assemble_program("LOAD X\nINCA\nSTO X\nHALT\nX: .word 1")
    machine = CslowMachine(CslowConfig(1, MemoryMode.SHARED), [asmres.image])
    machine.run_all()
    assert machine.thread_memory(0) == run(asmres.image).memory


def test_run_all_cycle_limit_names_threads():
    runaway = asm("L: LOAD X\nSUB Z\nJOC L\nHALT\nX: .word 1\nZ: .word 0")
    done = asm("HALT")
    machine = CslowMachine(CslowConfig(2, MemoryMode.PRIVATE,
                                       max_fast_cycles=2000), [done, runaway])
    with pytest.raises(CycleLimitExceeded) as exc:
        machine.run_all()
    assert exc.value.threads == [1]
    assert exc.value.state == [machine.contexts[1]]
    assert not exc.value.state[0].halted
    shared = CslowMachine(CslowConfig(2, MemoryMode.SHARED,
                                      max_fast_cycles=2000), [runaway])
    with pytest.raises(CycleLimitExceeded) as exc:
        shared.run_all()
    assert exc.value.threads == [0, 1]
    assert exc.value.state == shared.contexts


def test_machine_report_fields():
    imgs = [asm("CMA\nHALT"), asm("INCA\nHALT")]
    machine = CslowMachine(CslowConfig(2), imgs)
    machine.run_all()
    report = machine_report(machine, sequential_baseline(imgs))
    for key in ("c", "mode", "per_thread_cycles", "rounds", "fast_cycles_total",
                "occupancy", "vertical_waste", "sequential_sum", "speedup",
                "threads"):
        assert key in report
    assert report["c"] == 2
    assert report["occupancy"] + report["vertical_waste"] == pytest.approx(1.0)
    assert report["threads"][1]["registers"]["a"] == 1


def test_bundle_roundtrip(tmp_path):
    rng = random.Random(3)
    imgs = [MemoryImage(bytes(rng.randrange(256) for _ in range(256)))
            for _ in range(3)]
    path = tmp_path / "threads.bundle"
    write_bundle(path, imgs, MemoryMode.TAGGED)
    header = path.read_text().splitlines()[0]
    assert header == "cslow-bundle C=3 mode=tagged"
    c, mode, back = read_bundle(path)
    assert (c, mode) == (3, MemoryMode.TAGGED)
    assert back == imgs
    with pytest.raises(ValueError, match="not a cslow-bundle"):
        bad = tmp_path / "bad"
        bad.write_text("something else\n")
        read_bundle(bad)


def test_machine_does_not_mutate_caller_images():
    asmres = assemble_program("LOAD X\nINCA\nSTO X\nHALT\nX: .word 1")
    img = asmres.image
    before = bytes(img.cells)
    for mode in MemoryMode:
        CslowMachine(CslowConfig(1, mode), [img]).run_all()
        assert bytes(img.cells) == before


class RoundRobin:
    """The barrel without the machine: C CoreStates stepped round-robin, one
    row per fast cycle, thread t on stores[t].  Shared memory is one
    bytearray aliased C times; private and tagged memory, one per thread."""

    def __init__(self, config, images, trace):
        self.c = config.c
        if config.mode is MemoryMode.SHARED:
            self.stores = [bytearray(images[0].cells)] * self.c
        else:
            self.stores = [bytearray(img.cells) for img in images]
        self.fast_cycles = 0
        self.halt_cycle = [None] * self.c
        self.contexts = [CoreState() for _ in range(self.c)]
        self.traces = [[] for _ in range(self.c)] if trace else None

    def tick(self):
        t = self.fast_cycles % self.c
        ctx = self.contexts[t]
        if self.traces is not None:
            self.traces[t].append(ctx.snapshot())
        step(ctx, self.stores[t])
        if ctx.halted and self.halt_cycle[t] is None:
            self.halt_cycle[t] = ctx.cycles
        self.fast_cycles += 1

    def thread_memory(self, thread):
        return MemoryImage(self.stores[thread])

    def metrics(self):
        total = self.fast_cycles
        busy = sum(self.halt_cycle)
        return RunMetrics(list(self.halt_cycle), max(self.halt_cycle), total,
                          Fraction(busy, total), Fraction(total - busy, total))


def tick_oracle(config, images, trace):
    """Tick a RoundRobin until every thread halts or the limit is reached:
    (reference, threads left running)."""
    ref = RoundRobin(config, images, trace)
    while None in ref.halt_cycle:
        if ref.fast_cycles >= config.max_fast_cycles:
            return ref, [t for t, h in enumerate(ref.halt_cycle) if h is None]
        ref.tick()
    return ref, []


def outcome(call):
    """The call's result, or the threads named by its CycleLimitExceeded."""
    try:
        return call()
    except CycleLimitExceeded as exc:
        return exc.threads


def machine_compare(images, c, mode, max_cycles=cslow.DEFAULT_MAX_FAST_CYCLES):
    """`compare` as the machine has it: its run's rounds and fast cycles
    against the images' sequential sum, or the threads its
    CycleLimitExceeded names."""
    machine = CslowMachine(CslowConfig(c, mode, max_cycles), images)
    metrics = outcome(machine.run_all)
    if isinstance(metrics, list):
        return metrics
    seq = cslow.sequential_cycles(machine, images)
    return CompareResult(seq, metrics.rounds, metrics.fast_cycles_total,
                         Fraction(seq, metrics.rounds))


def trace_paths(directory, c):
    return [os.path.join(directory, "t%d.trc" % t) for t in range(c)]


def assert_same_machine(machine, ref, directory=None):
    """`machine` ran as the tick loop `ref` did; if it was traced into
    `directory`, every thread's file holds the tick loop's snapshots when
    the run ended in a halt, and the directory stays empty when a limit
    stopped it."""
    assert machine.fast_cycles == ref.fast_cycles
    assert machine.halt_cycle == ref.halt_cycle
    assert [x.snapshot() for x in machine.contexts] == [x.snapshot() for x in ref.contexts]
    for t in range(machine.c):
        assert machine.thread_memory(t) == ref.thread_memory(t)
    if directory is None:
        return
    paths = trace_paths(directory, machine.c)
    if None in ref.halt_cycle:
        assert os.listdir(directory) == []
    else:
        assert sorted(os.listdir(directory)) == sorted(map(os.path.basename, paths))
        for path, trace in zip(paths, ref.traces):
            with open(path) as fh:
                assert fh.read() == format_trace(trace)
        for path in paths:
            os.remove(path)


def traced_run_all(machine, directory):
    """`machine.run_all`, traced into `directory` if one is given."""
    return machine.run_all(trace_paths(directory, machine.c) if directory else None)


@settings(max_examples=90, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=8),
       picks=st.none() | st.lists(st.integers(0, 2), min_size=1, max_size=8),
       mode=st.sampled_from(list(MemoryMode)),
       trace=st.booleans(), cut=st.integers(0, 1000))
# Threads 1 and 2 start from one image, and the mid-run limit stops thread 2
# a step behind thread 1, whose step there wrote memory.
@example(seeds=[0, 252], picks=[0, 1, 1], mode=MemoryMode.TAGGED, trace=True, cut=287)
def test_run_all_matches_tick_loop(seeds, picks, mode, trace, cut):
    images = [asm(genprog.random_halting_program(random.Random(s))) for s in seeds]
    if mode is MemoryMode.SHARED:  # one program, a copy per thread
        images = images[:1] * len(images)
    elif picks:  # threads drawn from the first 1-3 programs, with repeats
        images = [images[i % len(images)].copy() for i in picks]
    c = len(images)
    ref, stuck = tick_oracle(CslowConfig(c, mode), images, trace)
    assert stuck == []
    total = ref.fast_cycles

    with tempfile.TemporaryDirectory() as scratch:
        directory = scratch if trace else None
        # The limit edge: exactly enough fast cycles passes ...
        machine = CslowMachine(CslowConfig(c, mode, total), images)
        assert traced_run_all(machine, directory) == ref.metrics()
        assert_same_machine(machine, ref, directory)

        # ... and one fewer stops where the tick loop stops, naming the
        # same threads and carrying their states, and writes no file.
        short = CslowConfig(c, mode, total - 1)
        ref, stuck = tick_oracle(short, images, trace)
        machine = CslowMachine(short, images)
        with pytest.raises(CycleLimitExceeded) as exc:
            traced_run_all(machine, directory)
        assert stuck and exc.value.threads == stuck
        assert exc.value.state == [machine.contexts[t] for t in stuck]
        assert_same_machine(machine, ref, directory)
        # `bench` rows under that limit, rows 1..C in turn on one `halts`:
        # each one as its machine has it, and the last one stopped on the
        # same threads.
        halts = {}
        for n in range(1, c + 1):
            row = outcome(lambda: compare(images[:n], n, mode, total - 1, halts))
            assert row == machine_compare(images[:n], n, mode, total - 1)
        assert row == stuck

        # A limit anywhere in the run (`cut` thousandths of the way) stops,
        # or passes, as the tick loop does.
        mid = CslowConfig(c, mode, 1 + cut * (total - 1) // 1000)
        ref, stuck = tick_oracle(mid, images, trace)
        machine = CslowMachine(mid, images)
        assert outcome(lambda: traced_run_all(machine, directory)) == (stuck or ref.metrics())
        assert_same_machine(machine, ref, directory)

    # `bench` rows: one `compare` per C, alone and on one `halts` for all
    # rows, each as the tick loop has it, and so is each row's machine.
    halts = {}
    for n in range(1, c + 1):
        ref, _ = tick_oracle(CslowConfig(n, mode), images[:n], False)
        seq = sum(run(img).cycles for img in images[:n])
        rounds = max(ref.halt_cycle)
        expected = CompareResult(seq, rounds, ref.fast_cycles, Fraction(seq, rounds))
        assert compare(images[:n], n, mode) == expected
        assert compare(images[:n], n, mode, halts=halts) == expected
        assert CslowMachine(CslowConfig(n, mode), images[:n]).run_all() == ref.metrics()


def test_shared_run_at_every_limit(tmp_path):
    # Thread 0 runs a step ahead of the others for most of each round, so
    # its copy must be the shared store wherever a limit falls; the loop
    # also stores into its own ADD's operand.
    image = asm("L: LOAD X\nADD Y\nSTO X\nSTO 3\nLOAD N\nSUB ONE\nSTO N\n"
                "JOZ E\nJOC L\nE: HALT\nX: .word 3\nY: .word 7\nN: .word 2\n"
                "ONE: .word 1")
    total = tick_oracle(CslowConfig(3, MemoryMode.SHARED), [image], False)[0].fast_cycles
    for limit in range(1, total + 2):
        config = CslowConfig(3, MemoryMode.SHARED, limit)
        trace = limit % 2 == 0
        ref, stuck = tick_oracle(config, [image], trace)
        machine = CslowMachine(config, [image])
        directory = tmp_path if trace else None
        assert outcome(lambda: traced_run_all(machine, directory)) == (stuck or ref.metrics())
        assert_same_machine(machine, ref, directory)


# Which program each of eight threads starts from: distinct ones, one for
# all (shared memory), or three with repeats.
PICKS = [pytest.param(mode, (0,) * 8 if mode is MemoryMode.SHARED else tuple(range(8)),
                      id="MemoryMode." + mode.name) for mode in MemoryMode] + [
    pytest.param(MemoryMode.PRIVATE, (0, 1, 2, 1, 0, 0, 2, 1), id="private-repeats"),
    pytest.param(MemoryMode.TAGGED, (2, 2, 0, 1, 2, 0, 1, 1), id="tagged-repeats")]


@pytest.mark.parametrize("mode, picks", PICKS)
def test_run_all_advance_calls(mode, picks, monkeypatch, tmp_path):
    programs = [asm(genprog.random_halting_program(random.Random(s))) for s in range(8)]
    images = [programs[i].copy() for i in picks]
    if mode is MemoryMode.SHARED:
        images = images[:1]
    calls = {"advance": [], "write_trace": []}
    for owner, name in ((cslow, "advance"), (microcode, "write_trace")):
        def counted(*args, _calls=calls[name], _real=getattr(owner, name), **kwargs):
            _calls.append(args[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    # One run per distinct image, on the first thread that starts from it,
    # and untraced, no traced pass.
    firsts = [picks.index(i) for i in dict.fromkeys(picks)]
    for paths in (None, trace_paths(tmp_path, len(picks))):
        calls["advance"].clear()
        machine = CslowMachine(CslowConfig(len(picks), mode), images)
        machine.run_all(paths)
        assert calls["advance"] == [machine.contexts[t] for t in firsts]
    # Traced, one traced pass per distinct image, named by the first
    # thread's file.
    assert calls["write_trace"] == [paths[t] for t in firsts]
    # Each thread's file is its image's run, then the halt row up to its
    # last slot; no other file is left.
    assert sorted(os.listdir(tmp_path)) == sorted(map(os.path.basename, paths))
    for t, path in enumerate(paths):
        _, state, _, trace = image_trace(programs[picks[t]])
        pad = [(k,) + state.snapshot()[1:] for k in range(state.cycles, machine.contexts[t].cycles)]
        with open(path) as fh:
            assert fh.read() == format_trace(trace + pad)


@pytest.mark.parametrize("mode, picks", PICKS)
def test_sweep_runs_each_thread_once(mode, picks, monkeypatch):
    rng = random.Random(13)
    programs = [asm(genprog.random_halting_program(rng)) for _ in range(MAX_THREADS)]
    images = [programs[i].copy() for i in picks]
    runs = []
    for name in ("run", "advance"):
        def counted(*args, _name=name, _real=getattr(cslow, name), **kwargs):
            runs.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cslow, name, counted)
    halts = {}
    for c in range(1, MAX_THREADS + 1):
        compare(images[:c], c, mode, halts=halts)
    # Threads that start from one image run it in lock-step: one run serves
    # every thread of every row that starts from it.
    assert len(runs) == len(set(picks))


def test_sweep_stops_a_looping_image_at_its_row_budget(monkeypatch):
    # Seven equal programs that halt, then one that never does: the halting
    # image runs once, within row 1's budget, and the loop within thread
    # 7's budget in row 8, not the whole limit.
    images = [asm("CMA\nHALT")] * 7 + [asm("L: LOAD Z\nSUB Z\nJOZ L\nZ: .word 0")]
    budgets = []
    def recorded(image, max_cycles, *args, _real=cslow.run, **kwargs):
        budgets.append(max_cycles)
        return _real(image, max_cycles, *args, **kwargs)
    monkeypatch.setattr(cslow, "run", recorded)
    limit = 10_000
    halts = {}
    for c in range(1, 8):
        row = compare(images[:c], c, MemoryMode.PRIVATE, limit, halts)
        assert row.max_rounds == run(images[0]).cycles
    with pytest.raises(CycleLimitExceeded) as exc:
        compare(images, 8, MemoryMode.PRIVATE, limit, halts)
    assert exc.value.threads == [7]
    assert budgets == [limit, cslow.slots(limit, 7, 8)]
    # `halts` keeps only runs that halted: the loop runs again, and raises
    # again, as the machine does.
    assert list(halts) == [bytes(images[0].cells)]
    with pytest.raises(CycleLimitExceeded) as again:
        compare(images, 8, MemoryMode.PRIVATE, limit, halts)
    machine = CslowMachine(CslowConfig(8, MemoryMode.PRIVATE, limit), images)
    with pytest.raises(CycleLimitExceeded) as direct:
        machine.run_all()
    assert again.value.threads == direct.value.threads == [7]
    assert [s.snapshot() for s in again.value.state] == \
        [s.snapshot() for s in direct.value.state]
    assert budgets[2:] == [cslow.slots(limit, 7, 8)]
