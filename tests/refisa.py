"""Independent instruction-level reference for the core's final state.

Runs a 256-cell image from reset to HALT one whole instruction at a time,
straight from the instruction set's definition: pc, a, the z/c flags and
memory, with no micro-rows.  Each instruction's clock cost is counted by
hand from the control store's row sequence (fetch, decode, execute).  It
imports nothing from cslowsim, so the generated micro-rows are checked
against code that shares no tables or helpers with them.
"""

# Low opcode nibble -> instruction.  Bit 3 selects memory reference, bits
# 1-2 the group, bit 0 the variant; the sequencer never tests bit 0 for
# HALT, CMA, INCA, DCRA and AND, nor any bit above 3.
DECODE = ("HALT", "HALT", "CMA", "CMA", "INCA", "INCA", "DCRA", "DCRA",
          "AND", "AND", "LOAD", "STO", "ADD", "SUB", "JOZ", "JOC")

# Rows from Fetch up to the one that returns to Fetch or enters the halt
# row; a branch costs the same taken or not.
COST = {"HALT": 7, "CMA": 6, "INCA": 7, "DCRA": 8, "AND": 12, "LOAD": 11,
        "STO": 10, "ADD": 12, "SUB": 12, "JOZ": 11, "JOC": 12}
RESET_CYCLES = 1


class Final:
    def __init__(self, pc, a, z, c, memory, cycles):
        self.pc, self.a, self.z, self.c = pc, a, z, c
        self.memory = memory  # bytes, all 256 cells
        self.cycles = cycles


def _arith(total):
    """(a, z, c) after an 8-bit add whose 9-bit sum is `total`."""
    a = total & 0xFF
    return a, int(a == 0), total >> 8


def run(cells, max_cycles=100_000) -> Final:
    mem = bytearray(cells)
    pc = a = z = c = 0
    cycles = RESET_CYCLES
    while cycles <= max_cycles:
        op = DECODE[mem[pc] & 0x0F]
        pc = (pc + 1) & 0xFF
        cycles += COST[op]
        if op == "HALT":
            return Final(pc, a, z, c, bytes(mem), cycles)
        if op == "CMA":
            a ^= 0xFF
        elif op == "INCA":
            a, z, c = _arith(a + 1)
        elif op == "DCRA":
            a, z, c = _arith(a + 0xFF)
        elif op in ("JOZ", "JOC"):
            taken = z if op == "JOZ" else c
            pc = mem[pc] if taken else (pc + 1) & 0xFF
        else:
            addr = mem[pc]
            pc = (pc + 1) & 0xFF
            if op == "STO":
                mem[addr] = a
            elif op == "LOAD":
                a = mem[addr]
            elif op == "AND":
                a &= mem[addr]
            elif op == "ADD":
                a, z, c = _arith(a + mem[addr])
            else:  # SUB: a + two's complement of the operand
                a, z, c = _arith(a + (mem[addr] ^ 0xFF) + 1)
    raise RuntimeError("no HALT within %d cycles" % max_cycles)
