"""Control store and cycle-accurate single-thread core.

The machine is driven by a 53-row micro-sequence; one row executes per clock
cycle.  Each row is a set of parallel register transfers plus next-address
control.  All sources are sampled before any destination is written, so a row
like `IR <- M(MAR) ; pc <- pc+1` is well defined.

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

from .isa import ENCODING, MemoryImage, Mnemonic

WORD_MASK = 0xFF

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


# Per-transfer (read, write) pairs.  The read phase samples every source
# (including the memory address) so parallel transfers in one row see only
# pre-step values; the write phase applies the sampled result.
def _rd_pc_zero(s, m):
    return 0


def _wr_pc(s, m, v):
    s.pc = v


def _rd_pc(s, m):
    return s.pc


def _wr_mar(s, m, v):
    s.mar = v


def _rd_mem(s, m):
    return m[s.mar]


def _wr_ir(s, m, v):
    s.ir = v


def _rd_pc_inc(s, m):
    return (s.pc + 1) & WORD_MASK


def _rd_a_not(s, m):
    return (~s.a) & WORD_MASK


def _wr_a(s, m, v):
    s.a = v


def _rd_a_inc(s, m):
    return s.a + 1


def _rd_a_dec(s, m):
    return s.a + 0xFF  # two's-complement -1


def _wr_a_flags(s, m, v):
    s.a = v & WORD_MASK
    s.z = 1 if s.a == 0 else 0
    s.c = v >> 8


def _rd_a_and_buf(s, m):
    return s.a & s.buffer


def _wr_buffer(s, m, v):
    s.buffer = v


def _rd_buffer(s, m):
    return s.buffer


def _rd_store(s, m):
    return (s.mar, s.a)


def _wr_store(s, m, v):
    m[v[0]] = v[1]


def _rd_a_add_buf(s, m):
    return s.a + s.buffer


def _rd_a_sub_buf(s, m):
    return s.a + (s.buffer ^ WORD_MASK) + 1


_TRANSFER_OPS = {
    Transfer.PC_ZERO: (_rd_pc_zero, _wr_pc),
    Transfer.MAR_PC: (_rd_pc, _wr_mar),
    Transfer.IR_MEM: (_rd_mem, _wr_ir),
    Transfer.PC_INC: (_rd_pc_inc, _wr_pc),
    Transfer.A_NOT: (_rd_a_not, _wr_a),
    Transfer.A_INC: (_rd_a_inc, _wr_a_flags),
    Transfer.A_DEC: (_rd_a_dec, _wr_a_flags),
    Transfer.A_AND_BUF: (_rd_a_and_buf, _wr_a),
    Transfer.BUF_MEM: (_rd_mem, _wr_buffer),
    Transfer.MAR_BUF: (_rd_buffer, _wr_mar),
    Transfer.A_BUF: (_rd_buffer, _wr_a),
    Transfer.MEM_A: (_rd_store, _wr_store),
    Transfer.A_ADD_BUF: (_rd_a_add_buf, _wr_a_flags),
    Transfer.A_SUB_BUF: (_rd_a_sub_buf, _wr_a_flags),
    Transfer.PC_MEM: (_rd_mem, _wr_pc),
}

_COND_FNS = {
    Cond.I3: lambda s: (s.ir >> 3) & 1,
    Cond.XC0: lambda s: (s.ir >> 1) & 3 == 1,
    Cond.XC1: lambda s: (s.ir >> 1) & 3 == 2,
    Cond.XC2: lambda s: (s.ir >> 1) & 3 == 3,
    Cond.I0_ZERO: lambda s: not (s.ir & 1),
    Cond.I0_ONE: lambda s: s.ir & 1,
    Cond.Z: lambda s: s.z,
    Cond.C: lambda s: s.c,
}


def _compile_row(index, row):
    """Closure executing one row: condition and reads before any write."""
    ops = tuple(_TRANSFER_OPS[t] for t in row.transfers)
    kind = row.control[0]
    if kind == "next":
        target, fallthrough, cond = index + 1, None, None
    elif kind == "goto":
        target, fallthrough, cond = row.control[1], None, None
    else:
        cond = _COND_FNS[row.control[1]]
        target, fallthrough = row.control[2], index + 1

    if not ops:
        if cond is None:
            def exec_row(s, m):
                s.micro_pc = target
                s.cycles += 1
        else:
            def exec_row(s, m):
                s.micro_pc = target if cond(s) else fallthrough
                s.cycles += 1
    elif len(ops) == 1:
        rd, wr = ops[0]
        if cond is None:
            def exec_row(s, m):
                wr(s, m, rd(s, m))
                s.micro_pc = target
                s.cycles += 1
        else:
            def exec_row(s, m):
                nxt = target if cond(s) else fallthrough
                wr(s, m, rd(s, m))
                s.micro_pc = nxt
                s.cycles += 1
    else:
        (rd0, wr0), (rd1, wr1) = ops
        if cond is None:
            def exec_row(s, m):
                v0 = rd0(s, m)
                v1 = rd1(s, m)
                wr0(s, m, v0)
                wr1(s, m, v1)
                s.micro_pc = target
                s.cycles += 1
        else:
            def exec_row(s, m):
                nxt = target if cond(s) else fallthrough
                v0 = rd0(s, m)
                v1 = rd1(s, m)
                wr0(s, m, v0)
                wr1(s, m, v1)
                s.micro_pc = nxt
                s.cycles += 1
    return exec_row


_STEP_TABLE = tuple(_compile_row(i, row) for i, row in enumerate(MICROPROGRAM.rows))


def step(state: CoreState, mem) -> None:
    """Execute one micro-instruction (one clock cycle).

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

    With a `log`, the state's snapshot is appended before every step.  This
    is the one core loop: `run` and the private and tagged barrel both
    drive it.
    """
    table = _STEP_TABLE
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
    both outcomes of either branch cost the same number of rows.
    """
    conditional = mnemonic in (Mnemonic.JOZ, Mnemonic.JOC)
    if conditional and taken is None:
        raise ValueError("%s needs a branch outcome" % mnemonic.value)
    if not conditional and taken is not None:
        raise ValueError("%s takes no branch outcome" % mnemonic.value)

    probe = CoreState()
    probe.ir = ENCODING[mnemonic]
    if conditional:
        probe.z = probe.c = 1 if taken else 0

    rows = MICROPROGRAM.rows
    upc = FETCH
    count = 0
    while True:
        count += 1
        kind = rows[upc].control[0]
        if kind == "next":
            nxt = upc + 1
        elif kind == "goto":
            nxt = rows[upc].control[1]
        else:
            cond = _COND_FNS[rows[upc].control[1]]
            nxt = rows[upc].control[2] if cond(probe) else upc + 1
        if nxt == FETCH or nxt == HALT_SEQ:
            return count
        upc = nxt


TRACE_HEADER = "cycle uaddr pc a mar ir buffer z c"
TRACE_FORMAT = "%d %d %02x %02x %02x %02x %02x %d %d"


def format_trace(trace) -> str:
    return "\n".join(map(TRACE_FORMAT.__mod__, trace)) + ("\n" if trace else "")


def write_trace(path, trace) -> None:
    with open(path, "w") as fh:
        fh.write(format_trace(trace))
