import io
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import genprog
import refisa
import refmicro
from cslowsim import microcode
from cslowsim.isa import MEMORY_SIZE, MemoryImage, Mnemonic, assemble, assemble_program
from cslowsim.microcode import (
    _STEP_TABLE,
    FETCH,
    HALT_SEQ,
    MICROPROGRAM,
    MICROPROGRAM_LENGTH,
    TRACE_CHUNK,
    WORST,
    Cond,
    CoreState,
    CycleLimitExceeded,
    Transfer,
    advance,
    build_microprogram,
    run,
    write_trace,
)
from reftrace import format_trace, image_trace, instruction_cycle_cost, row_trace, step


def test_microprogram_shape():
    prog = build_microprogram()
    assert len(prog) == MICROPROGRAM_LENGTH == 53
    assert prog[0].transfers == (Transfer.PC_ZERO,)
    assert prog[1].transfers == (Transfer.MAR_PC,)
    assert prog[1].control == ("next",)
    assert prog[2].transfers == (Transfer.IR_MEM, Transfer.PC_INC)
    assert prog[7].control == ("goto", 52)
    assert prog[24].transfers == (Transfer.BUF_MEM, Transfer.PC_INC)
    assert prog[36].control == ("if", Cond.I0_ONE, 39)
    assert prog[50].transfers == (Transfer.PC_MEM,)
    assert prog[50].control == ("next",)
    assert prog[51].control == ("goto", FETCH)
    assert prog[52].control == ("goto", 52)  # halt self-loop
    for row in prog:
        if row.control[0] in ("goto", "if"):
            assert 0 <= row.control[-1] <= 52


def test_step_fetch_row():
    state = CoreState()
    state.micro_pc = 2
    state.pc = 5
    state.mar = 9
    mem = MemoryImage()
    mem[9] = 0x0C
    step(state, mem.cells)
    assert state.ir == 0x0C
    assert state.pc == 6
    assert state.micro_pc == 3
    assert state.cycles == 1


def test_step_complement_row():
    state = CoreState()
    state.micro_pc = 8
    state.a = 0x0F
    step(state, bytearray(256))
    assert state.a == 0xF0
    assert state.micro_pc == 9


def test_step_branch_fall_through():
    state = CoreState()
    state.micro_pc = 44  # branch-on-zero test row
    state.z = 0
    step(state, bytearray(256))
    assert state.micro_pc == 45
    state = CoreState()
    state.micro_pc = 44
    state.z = 1
    step(state, bytearray(256))
    assert state.micro_pc == 50


def test_run_halt_costs_eight_cycles():
    res = run(assemble("HALT"), 100)
    assert res.state.halted
    assert res.cycles == 8  # reset + 2 fetch + decode rows 3,4,5,6,7


def test_run_inca():
    res = run(assemble("INCA\nHALT"))
    assert res.state.a == 1


def test_run_load_add_sto():
    asm = assemble_program("LOAD X\nADD Y\nSTO Z\nHALT\n"
                           "X: .word 3\nY: .word 4\nZ: .word 0")
    res = run(asm.image)
    assert res.memory[asm.symbols["Z"]] == 7
    assert res.state.halted


def test_run_does_not_mutate_input_image():
    asm = assemble_program("LOAD X\nSTO Y\nHALT\nX: .word 9\nY: .word 0")
    img = asm.image
    before = bytes(img.cells)
    run(img)
    assert bytes(img.cells) == before


def test_run_cycle_limit():
    # JOC with c=0 falls through; CMA/JOZ never halt without flags set:
    # an unconditional backward loop via JOC after SUB of zero keeps c=1.
    asm = assemble_program("L: LOAD X\nSUB Z\nJOC L\nHALT\n"
                           "X: .word 5\nZ: .word 0")
    with pytest.raises(CycleLimitExceeded):
        run(asm.image, max_cycles=500)
    with pytest.raises(ValueError):
        run(asm.image, max_cycles=0)


def test_flag_semantics():
    # ADD: z when 8-bit result is zero, c on carry out
    asm = assemble_program("LOAD X\nADD Y\nHALT\nX: .word 0xF0\nY: .word 0x10")
    state = run(asm.image).state
    assert (state.a, state.z, state.c) == (0, 1, 1)
    # SUB: c = no borrow (minuend >= subtrahend)
    asm = assemble_program("LOAD X\nSUB Y\nHALT\nX: .word 5\nY: .word 7")
    state = run(asm.image).state
    assert (state.a, state.z, state.c) == (0xFE, 0, 0)
    asm = assemble_program("LOAD X\nSUB Y\nHALT\nX: .word 7\nY: .word 7")
    state = run(asm.image).state
    assert (state.a, state.z, state.c) == (0, 1, 1)
    # INCA carry, DCRA no-borrow
    asm = assemble_program("LOAD X\nINCA\nHALT\nX: .word 0xFF")
    state = run(asm.image).state
    assert (state.a, state.z, state.c) == (0, 1, 1)
    state = run(assemble("DCRA\nHALT")).state
    assert (state.a, state.z, state.c) == (0xFF, 0, 0)
    # CMA, AND, LOAD leave flags alone
    asm = assemble_program("LOAD X\nADD Y\nCMA\nAND M\nLOAD X\nHALT\n"
                           "X: .word 0xF0\nY: .word 0x10\nM: .word 0x0F")
    state = run(asm.image).state
    assert (state.z, state.c) == (1, 1)


def test_joz_taken_and_not_taken():
    asm = assemble_program("LOAD X\nSUB X\nJOZ SKIP\nINCA\nSKIP: HALT\n"
                           "X: .word 3")
    assert run(asm.image).state.a == 0
    asm = assemble_program("LOAD X\nSUB Y\nJOZ SKIP\nCMA\nSKIP: HALT\n"
                           "X: .word 3\nY: .word 1")
    assert run(asm.image).state.a == 0xFD  # fell through, complemented 2


def test_joc_jump_loads_target():
    asm = assemble_program("LOAD X\nADD X\nJOC FAR\nHALT\n"
                           ".org 0x40\nFAR: INCA\nHALT\nX: .word 0x90")
    res = run(asm.image)
    assert res.state.a == 0x21  # 0x90+0x90 = 0x120 -> 0x20, carry, +1


def test_cycle_cost_table_matches_independent_oracle():
    for name, expected in refmicro.EXPECTED_COSTS.items():
        m = Mnemonic(name)
        if m in (Mnemonic.JOZ, Mnemonic.JOC):
            assert refmicro.walk_cost(name, taken=True) == expected
            assert refmicro.walk_cost(name, taken=False) == expected
            assert instruction_cycle_cost(m, True) == expected
            assert instruction_cycle_cost(m, False) == expected
        else:
            assert refmicro.walk_cost(name) == expected
            assert instruction_cycle_cost(m) == expected


def test_worst_is_the_costliest_instruction():
    costs = [instruction_cycle_cost(m, taken)
             for m in Mnemonic
             for taken in ((True, False) if m in (Mnemonic.JOZ, Mnemonic.JOC) else (None,))]
    assert WORST == max(costs) == 12


def test_cycle_cost_argument_validation():
    with pytest.raises(ValueError):
        instruction_cycle_cost(Mnemonic.JOZ)
    with pytest.raises(ValueError):
        instruction_cycle_cost(Mnemonic.CMA, True)


def observed_costs(trace):
    """(mnemonic name, taken, cycles) per executed instruction, read off a
    run trace by slicing it at the fetch row."""
    starts = [i for i, snap in enumerate(trace) if snap[1] == FETCH]
    bounds = starts + [len(trace)]
    out = []
    for a, b in zip(bounds, bounds[1:]):
        segment = trace[a:b]
        ir = segment[2][5]  # opcode is in ir once decode starts
        nibble = ir & 0x0F
        name = [n for n, code in refmicro.OPCODES.items() if code == nibble][0]
        taken = None
        for snap in segment:
            if snap[1] == 44:
                taken = bool(snap[7])
            elif snap[1] == 47:
                taken = bool(snap[8])
        out.append((name, taken, len(segment)))
    return out


def test_observed_costs_match_cycle_table():
    src = ("LOAD X\nADD Y\nSTO Z\nSUB Y\nCMA\nINCA\nDCRA\nAND M\n"
           "JOZ NEXT\nNEXT: JOC LAST\nLAST: HALT\n"
           "X: .word 3\nY: .word 200\nZ: .word 0\nM: .word 0xFF")
    costs = observed_costs(image_trace(assemble(src))[3])
    assert len(costs) == 11
    for name, taken, cycles in costs:
        assert cycles == refmicro.walk_cost(name, taken=bool(taken))
        assert cycles == refmicro.EXPECTED_COSTS[name]


def traced_run(image, directory):
    """`run`, then the trace file `write_trace` writes of it into
    `directory`: (state, cells, text)."""
    res = run(image)
    path = directory / "t.trc"
    write_trace(path, image.cells, res.state, {path: res.cycles})
    return res.state, res.memory.cells, path.read_text()


def test_run_deterministic_with_trace(tmp_path):
    asm = assemble_program("L: INCA\nJOZ L\nHALT")
    a = traced_run(asm.image, tmp_path)
    b = traced_run(asm.image, tmp_path)
    assert a[2] == b[2]
    assert a[0].snapshot() == b[0].snapshot()
    assert a[1] == b[1]
    # The text is the row-by-row reference's, and the run the untraced one's.
    halted, state, mem, trace = image_trace(asm.image)
    assert a[2] == format_trace(trace)
    assert a[0].snapshot() == state.snapshot() == run(asm.image).state.snapshot()
    assert bytes(a[1]) == bytes(mem)


def test_trace_format(tmp_path):
    state, _, text = traced_run(assemble("HALT"), tmp_path)
    lines = text.splitlines()
    assert state.halted and len(lines) == 8 == state.cycles
    assert lines[0] == "0 0 00 00 00 00 00 0 0"
    fields = lines[2].split()
    assert len(fields) == 9
    assert fields[0] == "2" and fields[1] == "2"


@pytest.mark.parametrize("rows", [0, 1, TRACE_CHUNK - 1, TRACE_CHUNK, TRACE_CHUNK + 1])
def test_write_trace_matches_format_trace(rows, tmp_path):
    # A halted run's text, then `rows` cycles on the halt row, across the
    # chunk edges, over an existing, longer file; a second file of the
    # same run ends at the halt.
    image = assemble("LOAD X\nINCA\nHALT\nX: .word 0xFE")
    halted, state, _, trace = image_trace(image)
    path, other = tmp_path / "t.trc", tmp_path / "u.trc"
    end = state.cycles + rows
    path.write_text("an earlier, longer file\n" * 9000)
    write_trace(path, image.cells, state, {path: end, other: state.cycles})
    pad = [(k,) + state.snapshot()[1:] for k in range(state.cycles, end)]
    assert path.read_text() == format_trace(trace + pad)
    assert other.read_text() == format_trace(trace)


def test_write_trace_checks_the_halt(tmp_path):
    # The traced pass must stop in the state the untraced run reached.
    image = assemble("LOAD X\nINCA\nHALT\nX: .word 0xFE")
    state = run(image).state
    for field, value in (("cycles", state.cycles + 1), ("a", state.a ^ 1)):
        wrong = run(image).state
        setattr(wrong, field, value)
        path = tmp_path / "t.trc"
        with pytest.raises(AssertionError):
            write_trace(path, image.cells, wrong, {path: wrong.cycles})


def test_halted_latch():
    res = run(assemble("HALT"))
    state = res.state
    assert state.micro_pc == HALT_SEQ
    cycles = state.cycles
    step(state, res.memory.cells)  # idle tick on the self-loop
    assert state.micro_pc == HALT_SEQ and state.halted
    assert state.cycles == cycles + 1


def test_rows_one_cycle_each_taken_or_not():
    # A conditional row consumes one cycle regardless of outcome.
    for z in (0, 1):
        state = CoreState()
        state.micro_pc = 44
        state.z = z
        step(state, bytearray(256))
        assert state.cycles == 1


def _check_against_oracle(source):
    image = assemble(source)
    want = refisa.run(image.cells)
    got = run(image)
    state = got.state
    assert (state.pc, state.a, state.z, state.c) == (want.pc, want.a, want.z, want.c)
    assert bytes(got.memory.cells) == want.memory
    assert got.cycles == want.cycles
    # Flags stay the ints 0/1: the JSON reports would print a bool as true.
    assert type(state.z) is int and type(state.c) is int


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), length=st.integers(1, 24))
def test_run_matches_instruction_level_oracle(seed, length):
    _check_against_oracle(genprog.random_halting_program(
        random.Random(seed), min_len=length, max_len=length))


def test_corpus_matches_instruction_level_oracle(corpus_programs):
    # The generated programs only jump forward; the corpus has loops.
    for path in corpus_programs:
        _check_against_oracle(path.read_text())


def test_pc_wraps_at_top_of_memory():
    # HALT in the last cell: its fetch leaves pc at 0, not 0x100.
    source = "CMA\nINCA\nJOZ HI\nHALT\n.org 0xFE\nHI: CMA\nHALT\n"
    _check_against_oracle(source)
    assert run(assemble(source)).state.pc == 0


def _step_rows(state, mem, max_cycles):
    """The row-by-row core loop: one generated row function per cycle."""
    while state.micro_pc != HALT_SEQ:
        if state.cycles >= max_cycles:
            return False
        _STEP_TABLE[state.micro_pc](state, mem)
    return True


_ROWS_CAP = 3000  # random images that run longer count as not halting


@settings(max_examples=150, deadline=None)
@given(cells=st.binary(min_size=256, max_size=256), tagged=st.booleans(),
       data=st.data())
def test_untraced_advance_matches_rows(cells, tagged, data):
    # Random images hit every opcode, stores into code and pc wraps.
    probe = CoreState()
    h = probe.cycles if _step_rows(probe, bytearray(cells), _ROWS_CAP) else None
    edges = [1, 2, 12, 13]
    if h is not None:
        edges += [n for n in range(h - 13, h + 2) if n >= 1]
    limits = data.draw(st.lists(st.sampled_from(edges) | st.integers(1, _ROWS_CAP),
                                min_size=1, max_size=4))
    for limit in limits:
        ref, ref_mem = CoreState(), bytearray(cells)
        ref_halted = _step_rows(ref, ref_mem, limit)
        state = CoreState()
        if tagged:  # a memoryview into the second part of a 512-cell store
            mem = memoryview(bytearray(MEMORY_SIZE) + cells)[MEMORY_SIZE:]
        else:
            mem = bytearray(cells)
        halted = advance(state, mem, limit)
        assert (halted, state.snapshot(), bytes(mem)) == (
            ref_halted, ref.snapshot(), bytes(ref_mem))
        if not ref_halted:
            with pytest.raises(CycleLimitExceeded) as exc:
                run(MemoryImage(cells), limit)
            assert exc.value.state.snapshot() == ref.snapshot()


class RecordedFile(io.BytesIO):
    """A file opened for writing, as `microcode.overwrite` opens it, that
    keeps each write's bytes, by path, in `writes`, and the position it is
    cut at, by path, in `cuts`.  Its `fileno` is `regular_fd`, a regular
    file's, so `overwrite` cuts it."""

    writes = {}
    cuts = {}
    regular_fd = None

    def __init__(self, path, mode, opener):
        assert mode == "wb" and opener is microcode._open_untruncated
        super().__init__()
        self.path = path
        self.parts = RecordedFile.writes[path] = []

    def write(self, data):
        self.parts.append(bytes(data))
        return super().write(data)

    def fileno(self):
        return RecordedFile.regular_fd

    def truncate(self, size=None):
        RecordedFile.cuts[self.path] = self.tell() if size is None else size
        return super().truncate(size)


@settings(max_examples=150, deadline=None)
@given(cells=st.binary(min_size=256, max_size=256), data=st.data())
def test_write_trace_matches_rows(cells, data):
    # An image runs untraced under each drawn limit; where it halts, each
    # of its files holds the row-by-row reference's text, then its own
    # halt rows, in writes of at most `TRACE_CHUNK` lines.
    probe = CoreState()
    h = probe.cycles if _step_rows(probe, bytearray(cells), _ROWS_CAP) else None
    edges = [1, 2, 12, 13]
    if h is not None:
        edges += [n for n in range(h - 13, h + 2) if n >= 1]
    limits = data.draw(st.lists(st.sampled_from(edges) | st.integers(1, _ROWS_CAP),
                                min_size=1, max_size=4))
    for limit in limits:
        ref, ref_mem = CoreState(), bytearray(cells)
        ref_halted, trace = row_trace(ref, ref_mem, limit)
        state, mem = CoreState(), bytearray(cells)
        halted = advance(state, mem, limit)
        assert (halted, state.snapshot(), bytes(mem)) == (
            ref_halted, ref.snapshot(), bytes(ref_mem))
        if not halted:
            continue
        pads = data.draw(st.lists(st.sampled_from([0, 1, TRACE_CHUNK, TRACE_CHUNK + 1])
                                  | st.integers(0, 40), min_size=1, max_size=3))
        ends = {"t%d" % k: state.cycles + pad for k, pad in enumerate(pads)}
        RecordedFile.writes, RecordedFile.cuts = {}, {}
        with open(__file__, "rb") as regular, \
                mock.patch.object(microcode, "open", RecordedFile, create=True):
            RecordedFile.regular_fd = regular.fileno()
            write_trace("t0", cells, state, ends)
        assert list(RecordedFile.writes) == list(ends)
        for path, end in ends.items():
            parts = RecordedFile.writes[path]
            pad = [(k,) + state.snapshot()[1:] for k in range(state.cycles, end)]
            assert b"".join(parts).decode() == format_trace(trace + pad)
            assert all(part.count(b"\n") <= TRACE_CHUNK for part in parts)
            # Written in place, each file is cut at the end of its trace.
            assert RecordedFile.cuts[path] == len(b"".join(parts))
