import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import genprog
from cslowsim.cslow import (
    BadThreadCount,
    CompareResult,
    CslowConfig,
    CslowMachine,
    ImageMismatch,
    MemoryMode,
    Sweep,
    compare,
    machine_report,
    read_bundle,
    sequential_baseline,
    write_bundle,
)
from cslowsim.isa import MemoryImage, assemble, assemble_program
from cslowsim.microcode import CycleLimitExceeded, format_trace, run


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
    assert m.thread_counter == 0
    assert all(ctx.micro_pc == 0 for ctx in m.contexts)


def test_round_robin_schedule():
    imgs = [asm("L: INCA\nJOZ L\nHALT")] * 3
    machine = CslowMachine(CslowConfig(3), imgs)
    for tick in range(12):
        scheduled = machine.thread_counter
        assert scheduled == tick % 3
        before = [ctx.cycles for ctx in machine.contexts]
        machine.tick()
        after = [ctx.cycles for ctx in machine.contexts]
        for t in range(3):
            assert after[t] - before[t] == (1 if t == scheduled else 0)
    assert machine.fast_cycles == 12


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
    # physical cell 256+target written, thread 0's copy untouched
    assert machine._memories[0].store[256 + target] == 0xAB
    assert machine._memories[0].store[target] == idle[target]
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


def test_c1_degenerates_to_baseline():
    src = "LOAD X\nADD X\nSTO Y\nHALT\nX: .word 7\nY: .word 0"
    asmres = assemble_program(src)
    baseline = run(asmres.image, trace=True)
    machine = CslowMachine(CslowConfig(1), [asmres.image])
    metrics = machine.run_all(trace=True)
    assert metrics.rounds == metrics.fast_cycles_total == baseline.cycles
    assert machine.traces[0] == baseline.trace
    assert format_trace(machine.traces[0]) == format_trace(baseline.trace)
    assert machine.thread_memory(0) == baseline.memory
    assert machine.contexts[0].snapshot() == baseline.state.snapshot()


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


def tick_oracle(config, images, trace):
    """Drive `tick` by hand: (machine, threads left running at the limit)."""
    machine = CslowMachine(config, images)
    if trace:
        machine.enable_tracing()
    while None in machine.halt_cycle:
        if machine.fast_cycles >= config.max_fast_cycles:
            return machine, [t for t, h in enumerate(machine.halt_cycle) if h is None]
        machine.tick()
    return machine, []


def outcome(call):
    """The call's result, or the threads named by its CycleLimitExceeded."""
    try:
        return call()
    except CycleLimitExceeded as exc:
        return exc.threads


def assert_same_machine(machine, ref):
    assert machine.fast_cycles == ref.fast_cycles
    assert machine.halt_cycle == ref.halt_cycle
    assert [x.snapshot() for x in machine.contexts] == [x.snapshot() for x in ref.contexts]
    assert machine.traces == ref.traces
    for t in range(machine.c):
        assert machine.thread_memory(t) == ref.thread_memory(t)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=8),
       mode=st.sampled_from([MemoryMode.PRIVATE, MemoryMode.TAGGED]),
       trace=st.booleans())
def test_run_all_matches_tick_loop(seeds, mode, trace):
    images = [asm(genprog.random_halting_program(random.Random(s))) for s in seeds]
    c = len(images)
    ref, stuck = tick_oracle(CslowConfig(c, mode), images, trace)
    assert stuck == []
    total = ref.fast_cycles

    # The limit edge: exactly enough fast cycles passes ...
    machine = CslowMachine(CslowConfig(c, mode, total), images)
    assert machine.run_all(trace=trace) == ref.metrics()
    assert_same_machine(machine, ref)

    # ... and one fewer stops where the tick loop stops, naming the same
    # threads and carrying their states.
    short = CslowConfig(c, mode, total - 1)
    ref, stuck = tick_oracle(short, images, trace)
    machine = CslowMachine(short, images)
    with pytest.raises(CycleLimitExceeded) as exc:
        machine.run_all(trace=trace)
    assert stuck and exc.value.threads == stuck
    assert exc.value.state == [machine.contexts[t] for t in stuck]
    assert_same_machine(machine, ref)
    # `bench` rows under that limit, rows 1..C in turn: each one as its own
    # `compare` has it, and the last one stopped on the same threads.
    sweep = Sweep(images, mode, total - 1)
    for n in range(1, c + 1):
        row = outcome(lambda: sweep.compare(n))
        assert row == outcome(lambda: compare(images[:n], n, mode, total - 1))
    assert row == stuck

    # `bench` rows: one `compare` per C, each as the tick loop has it.
    sweep = Sweep(images, mode)
    for n in range(1, c + 1):
        ref, _ = tick_oracle(CslowConfig(n, mode), images[:n], False)
        seq = sum(run(img).cycles for img in images[:n])
        rounds = max(ref.halt_cycle)
        expected = CompareResult(seq, rounds, ref.fast_cycles, Fraction(seq, rounds))
        assert compare(images[:n], n, mode) == expected
        assert sweep.compare(n) == expected
