"""Row-stepping references for traces and instruction costs, and the
bundle files the tests build.

`step` runs one control-store row through the package's row table.
`row_trace` is the core's traced run taken one row at a time: it steps
`step` and keeps a snapshot tuple before every step, with none of the
generated instruction loops.  `format_trace` spells such tuples in the
trace file format, written down here rather than taken from the package, so
the package's trace text is checked against both.  `write_bundle` writes
the multi-image file `run-cslow` reads, its header spelt out here too.
"""

from cslowsim.isa import MEMORY_SIZE, Mnemonic
from cslowsim.microcode import _STEP_TABLE, FETCH, HALT_SEQ, CoreState

LINE = "%d %d %02x %02x %02x %02x %02x %d %d\n"


def step(state: CoreState, mem) -> None:
    """Execute one micro-instruction (one clock cycle): the generated
    function of the row at `state.micro_pc`, on `mem`, any 256-cell byte
    store supporting item get/set."""
    _STEP_TABLE[state.micro_pc](state, mem)


def write_bundle(path, images, mode) -> None:
    """Multi-image bundle: header line, then one memory image per thread."""
    with open(path, "w") as fh:
        fh.write("cslow-bundle C=%d mode=%s\n" % (len(images), mode.value))
        for img in images:
            fh.write(img.to_text())


def format_trace(trace) -> str:
    """Trace file text of snapshot tuples: cycle, micro-address, then pc,
    a, mar, ir and buffer in hex, then z and c, one line each."""
    return "".join(LINE % snap for snap in trace)


def row_trace(state: CoreState, mem, max_cycles: int):
    """Step `state` on `mem` one row at a time until it enters the halt row
    or its cycle count reaches `max_cycles`: (halted, the snapshots taken
    before every step)."""
    trace = []
    while state.micro_pc != HALT_SEQ:
        if state.cycles >= max_cycles:
            return False, trace
        trace.append(state.snapshot())
        step(state, mem)
    return True, trace


def image_trace(image, max_cycles: int = 100_000):
    """`row_trace` of an image from reset on a copy of its cells:
    (halted, final state, final cells, snapshots)."""
    state, mem = CoreState(), bytearray(image.cells)
    halted, trace = row_trace(state, mem, max_cycles)
    return halted, state, mem, trace


def instruction_cycle_cost(mnemonic: Mnemonic, taken: bool | None = None) -> int:
    """Clock cycles for one instruction: fetch + decode + execute rows.

    `taken` must be given for JOZ/JOC (branch outcome) and omitted otherwise;
    both outcomes of either branch cost the same number of rows.  Counted
    by stepping the rows themselves on a probe: the opcode in cell 0, both
    flags set to the branch outcome, from Fetch until the sequencer returns
    to Fetch or enters the halt row.
    """
    conditional = mnemonic in (Mnemonic.JOZ, Mnemonic.JOC)
    if conditional and taken is None:
        raise ValueError("%s needs a branch outcome" % mnemonic.value)
    if not conditional and taken is not None:
        raise ValueError("%s takes no branch outcome" % mnemonic.value)

    probe = CoreState()
    probe.micro_pc = FETCH
    if conditional:
        probe.z = probe.c = 1 if taken else 0
    mem = bytearray(MEMORY_SIZE)
    mem[0] = mnemonic.opcode
    while True:
        step(probe, mem)
        if probe.micro_pc in (FETCH, HALT_SEQ):
            return probe.cycles
