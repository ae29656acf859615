"""Control store and cycle-accurate single-thread core.

The machine is driven by a 53-row micro-sequence; one row executes per clock
cycle.  Each row is a set of parallel register transfers plus next-address
control.  All sources are sampled before any destination is written, so a row
like `IR <- M(MAR) ; pc <- pc+1` is well defined.

Rows execute as generated code.  Each `Transfer` member carries its
destination and source template and each `Cond` member its test, and
`MICROPROGRAM`, the tuple of rows, names them; nothing else states them.
`_transfer_lines` writes a row's statements, and two shapes of code use them:

  rows   each control-store row is one straight-line Python function
         (`_row_source`); `_STEP_TABLE[upc]` is the function for
         micro-address `upc`.  The rows up to the first Fetch (from
         reset, the reset row) and the last few cycles before a cycle
         limit run on them.
  loop   one function (`_loop_source`) runs whole instructions with the
         registers in locals: each instruction is the rows from Fetch
         inline, every condition row an `if`.  Runs spend their cycles in
         it.  Its traced twin, generated by the same walk, also builds
         each row's trace line and hands the text to a sink a chunk at a
         time; it is compiled on the first traced run, so untraced ones
         never pay for it.

Only runs known to halt are traced: `advance` runs untraced, and
`write_trace` runs an image again from reset, the reset row's line and
then the traced loop up to the halt, into its files.  Its memory does not
grow with the run's length: the text goes to the files `TRACE_CHUNK` lines
at a time.

Every file the command line writes (traces, `bench --json` reports, `asm`
images) goes through `overwrite`: an existing file is written in place from
offset 0 and then cut at the end of the new text, where `open(path, "wb")`
would truncate it to zero first.  The bytes, inode, mode and links end up
the same.  What goes is ext4's `auto_da_alloc` (XFS does the like): a file
truncated to zero gets its new blocks allocated and its writeback started
when it is closed.  On a 2-CPU Xeon with an ext4 root, rewriting eight
existing 507 KB files took a median 3.3 ms with truncation and 0.49 ms in
place; a temporary file renamed over each took 6.2 ms, since ext4 treats a
rename over a file the same way.  Writing to a fresh path, or on tmpfs,
gains nothing.  Nothing here ever called fsync, so no file is less durable.
A process killed in mid-write can leave a file's new head over its old
tail.

Flag convention (the instruction set leaves it open): z and c update only on
the four arithmetic transfers (A+1, A-1, A+Buffer, A-Buffer).  z is set when
the 8-bit result is zero; c is the carry out of the 8-bit add, which for
subtraction (performed as two's-complement addition) means c=1 exactly when
no borrow occurred, i.e. minuend >= subtrahend.  CMA, AND and LOAD leave
both flags unchanged.

One under-specified dispatch row (the add/sub variant test at row 36) selects
SUB when I0=1, mirroring row 26 which selects STO when I0=1.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
import stat
from dataclasses import dataclass
from enum import Enum

from .isa import MemoryImage

# Micro-address labels.
RESET = 0
FETCH = 1
DECODE = 3
CMA_SEQ = 8
INCA_SEQ = 10
DCRA_SEQ = 12
MEMREF_SEQ = 14
AND_SEQ = 17
LDSTO_SEQ = 23
LOAD_SEQ = 27
STO_SEQ = 30
ADSUB_SEQ = 32
ADD_SEQ = 37
SUB_SEQ = 39
JUMP_SEQ = 41
JOZ_SEQ = 44
JOC_SEQ = 47
LOADPC_SEQ = 50
HALT_SEQ = 52

MICROPROGRAM_LENGTH = 53


class Transfer(Enum):
    """A register transfer: its destination and its source template over
    the pre-row registers `{pc}`, `{a}`, ... and the cell store `m`.
    Destination "a,zc" writes the 8-bit result to a and sets z and c from
    the 9-bit sum; "M(mar)" stores at the address mar held before the row."""

    PC_ZERO = "pc", "0"
    MAR_PC = "mar", "{pc}"
    IR_MEM = "ir", "m[{mar}]"
    PC_INC = "pc", "({pc} + 1) & 255"
    A_NOT = "a", "~{a} & 255"
    A_INC = "a,zc", "{a} + 1"
    A_DEC = "a,zc", "{a} + 255"  # two's-complement -1
    A_AND_BUF = "a", "{a} & {buffer}"
    BUF_MEM = "buffer", "m[{mar}]"
    MAR_BUF = "mar", "{buffer}"
    A_BUF = "a", "{buffer}"
    MEM_A = "M(mar)", "{a}"
    A_ADD_BUF = "a,zc", "{a} + {buffer}"
    A_SUB_BUF = "a,zc", "{a} + ({buffer} ^ 255) + 1"
    PC_MEM = "pc", "m[{mar}]"

    def __init__(self, dest, source):
        self.dest, self.source = dest, source


class Cond(Enum):
    """A branch condition; its value is its test over the pre-row
    registers."""

    I3 = "{ir} & 8"
    XC0 = "({ir} & 6) == 2"
    XC1 = "({ir} & 6) == 4"
    XC2 = "({ir} & 6) == 6"
    I0_ZERO = "not {ir} & 1"
    I0_ONE = "{ir} & 1"
    Z = "{z}"
    C = "{c}"


# Next-address control: ("next",) | ("goto", addr) | ("if", Cond, addr).
NEXT = ("next",)


def _goto(addr):
    return ("goto", addr)


def _if(cond, addr):
    return ("if", cond, addr)


@dataclass(frozen=True)
class MicroInstruction:
    transfers: tuple
    control: tuple


def build_microprogram() -> tuple:
    """The full control store, one MicroInstruction per micro-address
    0..52; one row per clock cycle."""
    T = Transfer
    r = [None] * MICROPROGRAM_LENGTH

    r[0] = ((T.PC_ZERO,), NEXT)                      # reset
    r[1] = ((T.MAR_PC,), NEXT)                       # Fetch
    r[2] = ((T.IR_MEM, T.PC_INC), NEXT)
    r[3] = ((), _if(Cond.I3, MEMREF_SEQ))            # Decode
    r[4] = ((), _if(Cond.XC0, CMA_SEQ))
    r[5] = ((), _if(Cond.XC1, INCA_SEQ))
    r[6] = ((), _if(Cond.XC2, DCRA_SEQ))
    r[7] = ((), _goto(HALT_SEQ))
    r[8] = ((T.A_NOT,), NEXT)                        # CMA
    r[9] = ((), _goto(FETCH))
    r[10] = ((T.A_INC,), NEXT)                       # INCA
    r[11] = ((), _goto(FETCH))
    r[12] = ((T.A_DEC,), NEXT)                       # DCRA
    r[13] = ((), _goto(FETCH))
    r[14] = ((), _if(Cond.XC0, LDSTO_SEQ))           # MEMREF dispatch
    r[15] = ((), _if(Cond.XC1, ADSUB_SEQ))
    r[16] = ((), _if(Cond.XC2, JUMP_SEQ))
    r[17] = ((T.MAR_PC,), NEXT)                      # AND (dispatch fall-through)
    r[18] = ((T.BUF_MEM, T.PC_INC), NEXT)
    r[19] = ((T.MAR_BUF,), NEXT)
    r[20] = ((T.BUF_MEM,), NEXT)
    r[21] = ((T.A_AND_BUF,), NEXT)
    r[22] = ((), _goto(FETCH))
    r[23] = ((T.MAR_PC,), NEXT)                      # LDSTO
    r[24] = ((T.BUF_MEM, T.PC_INC), NEXT)
    r[25] = ((T.MAR_BUF,), NEXT)
    r[26] = ((), _if(Cond.I0_ONE, STO_SEQ))
    r[27] = ((T.BUF_MEM,), NEXT)                     # LOAD
    r[28] = ((T.A_BUF,), NEXT)
    r[29] = ((), _goto(FETCH))
    r[30] = ((T.MEM_A,), NEXT)                       # STO
    r[31] = ((), _goto(FETCH))
    r[32] = ((T.MAR_PC,), NEXT)                      # ADSUB
    r[33] = ((T.BUF_MEM, T.PC_INC), NEXT)
    r[34] = ((T.MAR_BUF,), NEXT)
    r[35] = ((T.BUF_MEM,), NEXT)
    r[36] = ((), _if(Cond.I0_ONE, SUB_SEQ))
    r[37] = ((T.A_ADD_BUF,), NEXT)                   # ADD
    r[38] = ((), _goto(FETCH))
    r[39] = ((T.A_SUB_BUF,), NEXT)                   # SUB
    r[40] = ((), _goto(FETCH))
    r[41] = ((T.MAR_PC,), NEXT)                      # JUMP
    r[42] = ((), _if(Cond.I0_ZERO, JOZ_SEQ))
    r[43] = ((), _if(Cond.I0_ONE, JOC_SEQ))
    r[44] = ((), _if(Cond.Z, LOADPC_SEQ))            # JOZ
    r[45] = ((T.PC_INC,), NEXT)
    r[46] = ((), _goto(FETCH))
    r[47] = ((), _if(Cond.C, LOADPC_SEQ))            # JOC
    r[48] = ((T.PC_INC,), NEXT)
    r[49] = ((), _goto(FETCH))
    r[50] = ((T.PC_MEM,), NEXT)                      # LOADPC
    r[51] = ((), _goto(FETCH))
    r[52] = ((), _goto(HALT_SEQ))                    # HALT self-loop

    return tuple(MicroInstruction(t, c) for t, c in r)


MICROPROGRAM = build_microprogram()


class CycleLimitExceeded(Exception):
    """Execution did not reach halt within the cycle budget."""

    def __init__(self, message, state=None, threads=None):
        super().__init__(message)
        self.state = state
        self.threads = threads


# The architectural registers, in the trace line's field order.
_REGISTERS = ("pc", "a", "mar", "ir", "buffer", "z", "c")


class CoreState:
    """One thread's architectural + sequencer state."""

    __slots__ = ("cycles", "micro_pc") + _REGISTERS

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def halted(self):
        return self.micro_pc == HALT_SEQ

    def snapshot(self):
        """Trace tuple: (cycle, uaddr, pc, a, mar, ir, buffer, z, c)."""
        return _SNAPSHOT(self)

    def registers(self):
        return {r: getattr(self, r) for r in _REGISTERS}

    def __repr__(self):
        return "CoreState(%s)" % " ".join(
            "%s=%d" % pair for pair in zip(self.__slots__, self.snapshot()))


_SNAPSHOT = operator.attrgetter(*CoreState.__slots__)

# One trace line per step, the state before it: cycle, micro-address, then
# pc, a, mar, ir and buffer in hex, then z and c.  Traced runs hand their
# text on `TRACE_CHUNK` lines at a time, so no string of a whole trace is
# ever built.  Inside the traced instruction loop a line is the cycle, the
# micro-address and `regs`, the rest of the line, which `_REGS_TEXT`
# rebuilds from two tables the loop is compiled with: `h` of the 256 "%02x"
# strings, and `zc` of the four flag endings, indexed by z, then c.
TRACE_FORMAT = "%d %d %02x %02x %02x %02x %02x %d %d\n"
TRACE_CHUNK = 4096
_REGS_TEXT = 'f"{h[pc]} {h[a]} {h[mar]} {h[ir]} {h[buffer]} {zc[z][c]}"'
# Trace lines per f-string: three parts each, and CPython builds an f-string
# of up to 30 parts on its stack but one of more through a list and a join.
_LINES_PER_APPEND = 10

# How generated code spells each register: a row function reaches it
# through its CoreState `s`, the instruction loop holds it in a local.
_FIELDS = {r: "s." + r for r in _REGISTERS}
_LOCALS = {r: r for r in _REGISTERS}


def _transfer_lines(transfers, names):
    """Statements of one row's transfers, registers spelt by `names`: every
    source (a store's address too) read into a temporary, then the writes."""
    reads, writes = [], []
    for k, t in enumerate(transfers):
        dest, source = t.dest, t.source
        reads.append("v%d = %s" % (k, source))
        if dest == "M(mar)":
            reads.append("w%d = {mar}" % k)
            writes.append("m[w%d] = v%d" % (k, k))
        elif dest == "a,zc":
            writes += ["{a} = v%d & 255" % k, "{z} = 0 if {a} else 1",
                       "{c} = v%d >> 8" % k]
        else:
            writes.append("{%s} = v%d" % (dest, k))
    return [line.format_map(names) for line in reads + writes]


def _row_source(i, row):
    """Source of `row<i>(s, m)`, which executes control-store row `i`: the
    next address, the transfers, then `micro_pc` and `cycles`."""
    kind = row.control[0]
    if kind == "next":
        target = "%d" % (i + 1)
    elif kind == "goto":
        target = "%d" % row.control[1]
    else:
        target = "%d if %s else %d" % (
            row.control[2], row.control[1].value.format_map(_FIELDS), i + 1)
    body = ["u = " + target, *_transfer_lines(row.transfers, _FIELDS),
            "s.micro_pc = u", "s.cycles += 1"]
    return "def row%d(s, m):\n%s\n" % (i, "".join("    %s\n" % line for line in body))


def _loop_source(program, traced=False):
    """Source of `instructions(s, m, limit)`, or with `traced` of
    `instructions(s, m, limit, write)`, and the most rows one instruction
    runs.

    The function holds the registers and the cycle count in locals and
    runs whole instructions from Fetch while the count is at most `limit`:
    each one the control store's rows from Fetch, inline, with every
    condition row an `if`, up to the return to Fetch or the halt row.  It
    stops in the halt row or at Fetch, and writes the state back once.

    Traced, it also keeps the registers' trace text: `regs` at Fetch, and
    a new local after each row that writes a register.  Each instruction
    adds its rows' trace lines, each the row's cycle, its micro-address and
    the registers' text before it, to a list as one string.  The list goes
    to `write`, joined, at the Fetch where it may hold `TRACE_CHUNK` lines,
    and once at the end.
    """
    lines = []

    def follow(upc, rows, pad, text=(), regs="regs"):
        # Rows from `upc` on, `rows` rows into the instruction; `text` holds
        # the f-string bodies of the trace lines not yet added, and `regs`
        # names the local holding the registers' text now.  Returns the
        # most rows a path from here runs.
        if rows and upc in (FETCH, HALT_SEQ):
            if traced:
                lines.append(pad + 'out(f"%s")' % "".join(text))
                if regs != "regs":
                    lines.append(pad + "regs = " + regs)
            lines.append(pad + "cycles += %d" % rows)
            if upc == FETCH:
                lines.append(pad + "continue")
            else:
                lines.extend(pad + line for line in ("upc = %d" % HALT_SEQ, "break"))
            return rows
        row = program[upc]
        body = _transfer_lines(row.transfers, _LOCALS)
        if traced:
            if len(text) == _LINES_PER_APPEND:
                lines.append(pad + 'out(f"%s")' % "".join(text))
                text = ()
            text += ("{cycles%s} %d {%s}" % (" + %d" % rows if rows else "", upc, regs),)
            if any(t.dest != "M(mar)" for t in row.transfers):
                regs = "r%d" % (rows + 1)
                body.append(regs + " = " + _REGS_TEXT)
        kind = row.control[0]
        taken = 0
        if kind == "if":  # tested on the pre-row registers
            lines.append(pad + "if %s:" % row.control[1].value.format_map(_LOCALS))
            lines.extend(pad + "    " + line for line in body)
            taken = follow(row.control[2], rows + 1, pad + "    ", text, regs)
        lines.extend(pad + line for line in body)
        after = row.control[1] if kind == "goto" else upc + 1
        return max(taken, follow(after, rows + 1, pad, text, regs))

    worst = follow(FETCH, 0, " " * 8)
    state = _REGISTERS + ("cycles",)
    fields = ", ".join("s." + r for r in state)
    head = ["def instructions(s, m, limit%s):" % (", write" if traced else ""),
            "    %s = %s" % (", ".join(state), fields),
            "    upc = %d" % FETCH]
    tail = ["    %s = %s" % (fields, ", ".join(state)), "    s.micro_pc = upc"]
    if traced:
        head += ["    h, zc = HEX, FLAGS", "    lines = []",
                 "    out = lines.append", "    regs = " + _REGS_TEXT,
                 "    while cycles <= limit:",
                 "        if len(lines) >= %d:" % (TRACE_CHUNK // worst),
                 '            write("".join(lines))', "            lines.clear()"]
        tail.append('    write("".join(lines))')
    else:
        head.append("    while cycles <= limit:")
    return "\n".join(head + lines + tail) + "\n", worst


def _compile_rows(program):
    namespace = {}
    for i, row in enumerate(program):
        exec(compile(_row_source(i, row), "<micro-row %d>" % i, "exec"), namespace)
    # Popped, not read: each function keeps `namespace` as its globals, and
    # leaving it there too would be a reference cycle only the GC frees.
    return tuple(namespace.pop("row%d" % i) for i in range(len(program)))


def _compile_loop(program, traced=False):
    source, worst = _loop_source(program, traced)
    namespace = {"HEX": ["%02x" % v for v in range(256)],
                 "FLAGS": (("0 0\n", "0 1\n"), ("1 0\n", "1 1\n"))} if traced else {}
    exec(compile(source, "<instruction loop>", "exec"), namespace)
    return namespace.pop("instructions"), worst


_STEP_TABLE = _compile_rows(MICROPROGRAM)
# WORST: the most rows one instruction takes, Fetch through its last row.
_INSTRUCTIONS, WORST = _compile_loop(MICROPROGRAM)


@functools.cache
def _traced_instructions():
    """The traced instruction loop, compiled on first use: untraced runs
    never pay for it."""
    return _compile_loop(MICROPROGRAM, traced=True)[0]


@dataclass
class RunResult:
    state: CoreState
    memory: MemoryImage

    @property
    def cycles(self):
        return self.state.cycles


def run(image: MemoryImage, max_cycles: int = 100_000) -> RunResult:
    """Execute from reset until halt.

    Counts every executed row including the reset row; the final counted
    cycle is the one that enters the halt row.  Raises CycleLimitExceeded
    if the program is still running after `max_cycles` rows.
    """
    if max_cycles <= 0:
        raise ValueError("max_cycles must be positive")
    state = CoreState()
    memory = image.copy()
    if not advance(state, memory.cells, max_cycles):
        raise CycleLimitExceeded(
            "no halt within %d cycles" % max_cycles, state=state)
    return RunResult(state, memory)


def advance(state: CoreState, mem, max_cycles: int) -> bool:
    """Step `state` on the cell store `mem` until it enters the halt row or
    its cycle count reaches `max_cycles`; True when it halted.

    This is the one core loop, untraced.  The barrel's `run_all`, the one
    run path of the `run` and `run-cslow` commands and of every `bench`
    row, drives it in every memory mode, once per group of threads with
    equal starting cells; the plain-core `run` drives it too.  Rows run up
    to the first Fetch (from reset, the reset row alone), then the
    generated instruction loop runs whole instructions while the costliest
    one (`WORST` rows) still fits under `max_cycles`, and rows run the
    rest: the same states, cycle for cycle.
    """
    table = _STEP_TABLE
    while (state.micro_pc != FETCH and state.micro_pc != HALT_SEQ
           and state.cycles < max_cycles):
        table[state.micro_pc](state, mem)
    if state.micro_pc == FETCH:
        _INSTRUCTIONS(state, mem, max_cycles - WORST)
    while state.micro_pc != HALT_SEQ:
        if state.cycles >= max_cycles:
            return False
        table[state.micro_pc](state, mem)
    return True


def _open_untruncated(path, flags):
    """An `opener` for `open`: the flags `open` chose less O_TRUNC, and
    `open`'s own permission bits."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def overwrite(path, mode="wb"):
    """`open(path, mode)` for writing ("w" or "wb"), but an existing file
    is not truncated on opening: the new contents are written over it from
    offset 0, and on leaving, also by an exception, a regular file is cut
    at the write position, so no old tail survives.  The bytes, inode, mode,
    symlinks and hard links end up as with `open`; only the writeback that
    ext4 and XFS start on closing a file truncated to zero is saved (see
    the module docstring).  Other files, such as a character device or a
    pipe, cannot be cut and need not be.

    A process killed in mid-write leaves its new head over the old file's
    tail, where a truncating open would leave the head alone.
    """
    with open(path, mode, opener=_open_untruncated) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_trace(path, cells, halted: CoreState, ends) -> None:
    """Write the trace files of threads that run the cells `cells` from
    reset and stop in the halt row in the state `halted`.  `ends` maps each
    file's path to the cycle its file ends at; `path` is one of them, the
    file that names the call (the benchmark's tracer reads its size).

    All the files are opened first, by `overwrite`: an existing file is
    written in place and cut at the end of its trace, which spares the
    writeback a truncated file starts on closing.  On ext4, the eight
    existing 507 KB files of the benchmark's shared C=8 run took a median
    4.6-4.7 ms here where truncating them first took 8.3-11.1 ms.  A
    process killed in mid-write leaves a file's new head over its old
    tail.  The run from reset, the reset row's line and then the traced
    instruction loop up to the halt, hands its text on `TRACE_CHUNK` lines
    at a time, and each chunk is encoded once and written to every file.
    Then each file gets the halt row's line for each cycle from
    `halted.cycles` up to its end.
    """
    state, mem = CoreState(), bytearray(cells)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(overwrite(p)) for p in ends]

        def write(text):
            data = text.encode()
            for fh in files:
                fh.write(data)

        write(TRACE_FORMAT % state.snapshot())
        _STEP_TABLE[RESET](state, mem)
        _traced_instructions()(state, mem, halted.cycles, write)
        assert state.snapshot() == halted.snapshot(), (state, halted)
        regs = (TRACE_FORMAT % state.snapshot()).split(" ", 1)[1]
        for fh, end in zip(files, ends.values()):
            for k in range(state.cycles, end, TRACE_CHUNK):
                lines = [f"{j} {regs}" for j in range(k, min(k + TRACE_CHUNK, end))]
                fh.write("".join(lines).encode())
