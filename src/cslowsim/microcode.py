"""Control store and cycle-accurate single-thread core.

The machine is driven by a 53-row micro-sequence; one row executes per clock
cycle.  Each row is a set of parallel register transfers plus next-address
control.  All sources are sampled before any destination is written, so a row
like `IR <- M(MAR) ; pc <- pc+1` is well defined.

Rows execute as generated code, built at import from one table of transfers
(destination and source template) and one of branch conditions.
`_transfer_lines` writes a row's statements, and two shapes of code use them:

  rows   each control-store row is one straight-line Python function
         (`_row_source`); `_STEP_TABLE[upc]` is the function for
         micro-address `upc`.  Traced runs, `step`,
         `instruction_cycle_cost` and the last few cycles before a cycle
         limit run on them.
  loop   one function (`_loop_source`) runs whole instructions with the
         registers in locals: each instruction is the rows from Fetch
         inline, every condition row an `if`.  Untraced runs (`advance`
         without a log) spend their cycles in it.

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

from dataclasses import dataclass
from enum import Enum

from .isa import ENCODING, MEMORY_SIZE, MemoryImage, Mnemonic

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
    PC_ZERO = "pc<-0"
    MAR_PC = "mar<-pc"
    IR_MEM = "ir<-M(mar)"
    PC_INC = "pc<-pc+1"
    A_NOT = "a<-~a"
    A_INC = "a<-a+1"
    A_DEC = "a<-a-1"
    A_AND_BUF = "a<-a&buffer"
    BUF_MEM = "buffer<-M(mar)"
    MAR_BUF = "mar<-buffer"
    A_BUF = "a<-buffer"
    MEM_A = "M(mar)<-a"
    A_ADD_BUF = "a<-a+buffer"
    A_SUB_BUF = "a<-a-buffer"
    PC_MEM = "pc<-M(mar)"


class Cond(Enum):
    I3 = "i3=1"
    XC0 = "xc0=1"
    XC1 = "xc1=1"
    XC2 = "xc2=1"
    I0_ZERO = "i0=0"
    I0_ONE = "i0=1"
    Z = "z=1"
    C = "c=1"


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


@dataclass(frozen=True)
class MicroProgram:
    rows: tuple  # 53 MicroInstructions, micro-addresses 0..52


def build_microprogram() -> MicroProgram:
    """The full control store; one row per clock cycle."""
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

    return MicroProgram(tuple(MicroInstruction(t, c) for t, c in r))


MICROPROGRAM = build_microprogram()


class CycleLimitExceeded(Exception):
    """Execution did not reach halt within the cycle budget."""

    def __init__(self, message, state=None, threads=None):
        super().__init__(message)
        self.state = state
        self.threads = threads


class CoreState:
    """One thread's architectural + sequencer state."""

    __slots__ = ("pc", "a", "mar", "ir", "buffer", "z", "c", "micro_pc", "cycles")

    def __init__(self):
        self.pc = 0
        self.a = 0
        self.mar = 0
        self.ir = 0
        self.buffer = 0
        self.z = 0
        self.c = 0
        self.micro_pc = 0
        self.cycles = 0

    @property
    def halted(self):
        return self.micro_pc == HALT_SEQ

    def snapshot(self):
        """Trace tuple: (cycle, uaddr, pc, a, mar, ir, buffer, z, c)."""
        return (self.cycles, self.micro_pc, self.pc, self.a, self.mar,
                self.ir, self.buffer, self.z, self.c)

    def registers(self):
        return {"pc": self.pc, "a": self.a, "mar": self.mar, "ir": self.ir,
                "buffer": self.buffer, "z": self.z, "c": self.c}

    def __repr__(self):
        return ("CoreState(upc=%d pc=%02x a=%02x mar=%02x ir=%02x buf=%02x "
                "z=%d c=%d cycles=%d)" % (self.micro_pc, self.pc, self.a,
                                          self.mar, self.ir, self.buffer,
                                          self.z, self.c, self.cycles))


# Transfer -> (destination, source template) over the pre-row registers
# `{pc}`, `{a}`, ... and the cell store `m`.  Destination "a,zc" writes the
# 8-bit result to a and sets z and c from the 9-bit sum; "M(mar)" stores at
# the address mar held before the row.
_TRANSFERS = {
    Transfer.PC_ZERO: ("pc", "0"),
    Transfer.MAR_PC: ("mar", "{pc}"),
    Transfer.IR_MEM: ("ir", "m[{mar}]"),
    Transfer.PC_INC: ("pc", "({pc} + 1) & 255"),
    Transfer.A_NOT: ("a", "~{a} & 255"),
    Transfer.A_INC: ("a,zc", "{a} + 1"),
    Transfer.A_DEC: ("a,zc", "{a} + 255"),  # two's-complement -1
    Transfer.A_AND_BUF: ("a", "{a} & {buffer}"),
    Transfer.BUF_MEM: ("buffer", "m[{mar}]"),
    Transfer.MAR_BUF: ("mar", "{buffer}"),
    Transfer.A_BUF: ("a", "{buffer}"),
    Transfer.MEM_A: ("M(mar)", "{a}"),
    Transfer.A_ADD_BUF: ("a,zc", "{a} + {buffer}"),
    Transfer.A_SUB_BUF: ("a,zc", "{a} + ({buffer} ^ 255) + 1"),
    Transfer.PC_MEM: ("pc", "m[{mar}]"),
}

_CONDS = {
    Cond.I3: "{ir} & 8",
    Cond.XC0: "({ir} & 6) == 2",
    Cond.XC1: "({ir} & 6) == 4",
    Cond.XC2: "({ir} & 6) == 6",
    Cond.I0_ZERO: "not {ir} & 1",
    Cond.I0_ONE: "{ir} & 1",
    Cond.Z: "{z}",
    Cond.C: "{c}",
}

_REGISTERS = ("pc", "a", "mar", "ir", "buffer", "z", "c")
# How generated code spells each register: a row function reaches it
# through its CoreState `s`, the instruction loop holds it in a local.
_FIELDS = {r: "s." + r for r in _REGISTERS}
_LOCALS = {r: r for r in _REGISTERS}


def _transfer_lines(transfers, names):
    """Statements of one row's transfers, registers spelt by `names`: every
    source (a store's address too) read into a temporary, then the writes."""
    reads, writes = [], []
    for k, t in enumerate(transfers):
        dest, source = _TRANSFERS[t]
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
            row.control[2], _CONDS[row.control[1]].format_map(_FIELDS), i + 1)
    body = ["u = " + target, *_transfer_lines(row.transfers, _FIELDS),
            "s.micro_pc = u", "s.cycles += 1"]
    return "def row%d(s, m):\n%s\n" % (i, "".join("    %s\n" % line for line in body))


def _loop_source(program):
    """Source of `instructions(s, m, limit)`, and the most rows one
    instruction runs.

    The function holds the registers and the cycle count in locals and
    runs whole instructions from Fetch while the count is at most `limit`:
    each one the control store's rows from Fetch, inline, with every
    condition row an `if`, up to the return to Fetch or the halt row.  It
    stops in the halt row or at Fetch, and writes the state back once.
    """
    lines = []

    def follow(upc, rows, pad):
        # Rows from `upc` on, `rows` rows into the instruction; returns the
        # most rows a path from here runs.
        if rows and upc == FETCH:
            lines.extend(pad + line for line in ("cycles += %d" % rows, "continue"))
            return rows
        if rows and upc == HALT_SEQ:
            lines.extend(pad + line for line in (
                "cycles += %d" % rows, "upc = %d" % HALT_SEQ, "break"))
            return rows
        row = program.rows[upc]
        body = _transfer_lines(row.transfers, _LOCALS)
        kind = row.control[0]
        taken = 0
        if kind == "if":  # tested on the pre-row registers
            lines.append(pad + "if %s:" % _CONDS[row.control[1]].format_map(_LOCALS))
            lines.extend(pad + "    " + line for line in body)
            taken = follow(row.control[2], rows + 1, pad + "    ")
        lines.extend(pad + line for line in body)
        after = row.control[1] if kind == "goto" else upc + 1
        return max(taken, follow(after, rows + 1, pad))

    state = _REGISTERS + ("cycles",)
    fields = ", ".join("s." + r for r in state)
    head = ["def instructions(s, m, limit):",
            "    %s = %s" % (", ".join(state), fields),
            "    upc = %d" % FETCH,
            "    while cycles <= limit:"]
    worst = follow(FETCH, 0, " " * 8)
    tail = ["    %s = %s" % (fields, ", ".join(state)), "    s.micro_pc = upc"]
    return "\n".join(head + lines + tail) + "\n", worst


def _compile_rows(program):
    namespace = {}
    for i, row in enumerate(program.rows):
        exec(compile(_row_source(i, row), "<micro-row %d>" % i, "exec"), namespace)
    # Popped, not read: each function keeps `namespace` as its globals, and
    # leaving it there too would be a reference cycle only the GC frees.
    return tuple(namespace.pop("row%d" % i) for i in range(len(program.rows)))


def _compile_loop(program):
    source, worst = _loop_source(program)
    namespace = {}
    exec(compile(source, "<instruction loop>", "exec"), namespace)
    return namespace.pop("instructions"), worst


_STEP_TABLE = _compile_rows(MICROPROGRAM)
# WORST: the most rows one instruction takes, Fetch through its last row.
_INSTRUCTIONS, WORST = _compile_loop(MICROPROGRAM)


def step(state: CoreState, mem) -> None:
    """Execute one micro-instruction (one clock cycle) by calling the
    generated function of the row at `state.micro_pc`.

    `mem` is any 256-cell byte store supporting item get/set (a bytearray,
    a memoryview, or a MemoryImage).
    """
    _STEP_TABLE[state.micro_pc](state, mem)


@dataclass
class RunResult:
    state: CoreState
    memory: MemoryImage
    trace: list | None

    @property
    def cycles(self):
        return self.state.cycles


def run(image: MemoryImage, max_cycles: int = 100_000, trace: bool = False) -> RunResult:
    """Execute from reset until halt.

    Counts every executed row including the reset row; the final counted
    cycle is the one that enters the halt row.  Raises CycleLimitExceeded
    if the program is still running after `max_cycles` rows.
    """
    if max_cycles <= 0:
        raise ValueError("max_cycles must be positive")
    state = CoreState()
    memory = image.copy()
    log = [] if trace else None
    if not advance(state, memory.cells, max_cycles, log):
        raise CycleLimitExceeded(
            "no halt within %d cycles" % max_cycles, state=state)
    return RunResult(state, memory, log)


def advance(state: CoreState, mem, max_cycles: int, log: list | None = None) -> bool:
    """Step `state` on the cell store `mem` until it enters the halt row or
    its cycle count reaches `max_cycles`; True when it halted.

    This is the one core loop: `run` and the barrel's `run_all`, in every
    memory mode, drive it.  With a `log`, the state's snapshot is appended
    before every step, and every step is one generated row function.
    Without one, rows run up to the first Fetch (from reset, the reset row
    alone), then the generated instruction loop runs whole instructions
    while the costliest one (`WORST` rows) still fits under `max_cycles`,
    and rows run the rest: the same states, cycle for cycle.
    """
    table = _STEP_TABLE
    if log is None:
        while (state.micro_pc != FETCH and state.micro_pc != HALT_SEQ
               and state.cycles < max_cycles):
            table[state.micro_pc](state, mem)
        if state.micro_pc == FETCH:
            _INSTRUCTIONS(state, mem, max_cycles - WORST)
    while state.micro_pc != HALT_SEQ:
        if state.cycles >= max_cycles:
            return False
        if log is not None:
            log.append(state.snapshot())
        table[state.micro_pc](state, mem)
    return True


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
    mem[0] = ENCODING[mnemonic]
    while True:
        step(probe, mem)
        if probe.micro_pc in (FETCH, HALT_SEQ):
            return probe.cycles


# One line per logged snapshot: cycle, micro-address, then pc, a, mar, ir
# and buffer in hex, then z and c.  `format_trace` is the reference;
# `write_trace` writes the same text `TRACE_CHUNK` lines at a time, each
# chunk one f-string per line over a 256-entry table of "%02x" strings, so
# no string of the whole file is ever built.  The table is built per call
# (microseconds), so importing the module allocates nothing for it.
TRACE_FORMAT = "%d %d %02x %02x %02x %02x %02x %d %d"
TRACE_CHUNK = 4096


def format_trace(trace) -> str:
    return "\n".join(map(TRACE_FORMAT.__mod__, trace)) + ("\n" if trace else "")


def write_trace(path, trace) -> None:
    h = ["%02x" % v for v in range(256)]
    with open(path, "w") as fh:
        for i in range(0, len(trace), TRACE_CHUNK):
            fh.write("".join([
                f"{k} {u} {h[pc]} {h[a]} {h[mar]} {h[ir]} {h[buf]} {z} {c}\n"
                for k, u, pc, a, mar, ir, buf, z, c in trace[i:i + TRACE_CHUNK]]))
