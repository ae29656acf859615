"""Output oracles that share no code with `cslowsim`.

`interpret` executes a memory image one instruction at a time, with the
clock-cycle cost of each instruction taken from the control store's row
counts (fetch, decode and execute rows, as listed in the `microcode`
module's docstring table).  It gives the cycle count, final registers and
final memory the cycle-accurate core must reproduce.  `critical_period` is
a longest-path computation over netlist text.
"""

from __future__ import annotations

WORD = 0xFF

# Clock cycles per instruction: two fetch rows, the decode rows the
# sequencer walks to reach the instruction's sequence, then its execute
# rows.  Both outcomes of JOZ and JOC cost the same.
CYCLES = {"HALT": 7, "CMA": 6, "INCA": 7, "DCRA": 8, "AND": 12, "LOAD": 11,
          "STO": 10, "ADD": 12, "SUB": 12, "JOZ": 11, "JOC": 12}
RESET_CYCLES = 1
MAX_CYCLES = 1_000_000  # the CLI's default run limit

# Low opcode nibble -> mnemonic, including the patterns the sequencer
# decodes the same as a neighbour because it never tests bit 0 there.
_DECODE = ("HALT", "HALT", "CMA", "CMA", "INCA", "INCA", "DCRA", "DCRA",
           "AND", "AND", "LOAD", "STO", "ADD", "SUB", "JOZ", "JOC")


class Final:
    """Architectural state after HALT."""

    def __init__(self, cycles, regs, memory):
        self.cycles = cycles
        self.regs = regs      # pc, a, mar, ir, buffer, z, c
        self.memory = memory  # bytearray of 256 cells


def interpret(cells) -> Final:
    """Run an image from reset to HALT at instruction granularity."""
    m = bytearray(cells)
    pc = a = mar = ir = buf = z = c = 0
    cycles = RESET_CYCLES
    while True:
        if cycles > MAX_CYCLES:
            raise RuntimeError("no HALT within %d cycles" % MAX_CYCLES)
        mar = pc
        ir = m[mar]
        pc = (pc + 1) & WORD
        op = _DECODE[ir & 0x0F]
        cycles += CYCLES[op]
        if op == "HALT":
            break
        if op == "CMA":
            a = ~a & WORD
        elif op in ("INCA", "DCRA"):
            total = a + (1 if op == "INCA" else WORD)
            a, z, c = total & WORD, int(total & WORD == 0), total >> 8
        elif op in ("JOZ", "JOC"):
            mar = pc
            if (z if op == "JOZ" else c):
                pc = m[mar]
            else:
                pc = (pc + 1) & WORD
        else:  # memory-reference data instructions
            mar = pc
            buf = m[mar]
            pc = (pc + 1) & WORD
            mar = buf
            if op == "STO":
                m[mar] = a
                continue
            buf = m[mar]
            if op == "AND":
                a &= buf
            elif op == "LOAD":
                a = buf
            else:
                total = a + (buf if op == "ADD" else (buf ^ WORD) + 1)
                a, z, c = total & WORD, int(total & WORD == 0), total >> 8
    regs = {"pc": pc, "a": a, "mar": mar, "ir": ir, "buffer": buf, "z": z, "c": c}
    return Final(cycles, regs, m)


def memory_diff(before, after) -> dict:
    """The report's `memory_diff` shape: changed cells as [old, new]."""
    return {"0x%02x" % i: [before[i], after[i]]
            for i in range(len(before)) if before[i] != after[i]}


def barrel_row(cycles, n: int) -> dict:
    """Expected `bench` row for the first `n` programs, given each program's
    own cycle count.  Threads never interact in private or tagged memory, so
    thread t halts at fast tick (h_t - 1) * n + t."""
    h = cycles[:n]
    return {
        "n_threads": n,
        "sequential_sum": sum(h),
        "cslow_rounds": max(h),
        "fast_cycles_total": max((ht - 1) * n + t for t, ht in enumerate(h)) + 1,
    }


def critical_period(text: str) -> tuple[int, int]:
    """(clock period, largest gate delay) of a netlist in the text format:
    the longest total delay over register-free paths."""
    delay = {}
    fanin = {}
    for line in text.splitlines():
        f = line.split()
        if not f:
            continue
        if f[0] in ("input", "output"):
            delay[f[1]] = 0
        elif f[0] == "gate":
            delay[f[1]] = int(f[3])
        elif f[0] == "wire" and int(f[4]) == 0:
            fanin.setdefault(f[2], []).append(f[1])
    arrival = {}
    for root in delay:
        stack = [root]
        while stack:
            name = stack[-1]
            if name in arrival:
                stack.pop()
                continue
            pending = [s for s in fanin.get(name, ()) if s not in arrival]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            arrival[name] = delay[name] + max(
                (arrival[s] for s in fanin.get(name, ())), default=0)
    return max(arrival.values(), default=0), max(delay.values(), default=0)
