"""Seeded input generators for the benchmark.

Programs, memory images and netlists come out in the formats the `cslowsim`
CLI reads, built without importing `cslowsim`, so a generator can never
share a defect with the code it feeds.  The same seed always gives the same
inputs: every random stream is a `random.Random` seeded with a string that
names the input it builds and, through `stream`, the seed.
"""

from __future__ import annotations

import random

# Straight-line loop-body statements.  Data cells only: stores never touch
# code or the loop counters, so every program halts whatever the body does.
_BODY_PLAIN = ("CMA", "INCA", "DCRA")
_BODY_MEM = ("AND", "LOAD", "ADD", "SUB", "STO")
_N_DATA = 4
THREADS = 8  # programs per sweep: one for each barrel thread


def stream(seed: int, name: str) -> random.Random:
    return random.Random("%d:%s" % (seed, name))


# Opcode words, so the generator emits images without the package's
# assembler and the images stay an independent check on it.
OPCODES = {"HALT": 0x0, "CMA": 0x2, "INCA": 0x4, "DCRA": 0x6, "AND": 0x8,
           "LOAD": 0xA, "STO": 0xB, "ADD": 0xC, "SUB": 0xD, "JOZ": 0xE,
           "JOC": 0xF}


class Program:
    """Statements as (label, mnemonic, operand label) plus data words,
    rendered both as assembly source and as a 256-cell image."""

    def __init__(self, code, data):
        self.code = code  # [(label or None, mnemonic, operand label or None)]
        self.data = data  # [(label, value)]

    def text(self) -> str:
        lines = []
        for label, op, arg in self.code:
            head = (label + ":").ljust(8) if label else " " * 8
            lines.append("%s%s %s" % (head, op.ljust(5), arg or ""))
        lines += ["%s .word %d" % ((label + ":").ljust(8), value)
                  for label, value in self.data]
        return "\n".join(line.rstrip() for line in lines) + "\n"

    def cells(self) -> bytearray:
        where = {}
        loc = 0
        for label, op, _ in self.code:
            if label:
                where[label] = loc
            loc += 2 if OPCODES[op] & 0x8 else 1
        for label, _ in self.data:
            where[label] = loc
            loc += 1
        if loc > 256:
            raise ValueError("program needs %d cells" % loc)
        image = bytearray(256)
        loc = 0
        for _, op, arg in self.code:
            image[loc] = OPCODES[op]
            loc += 1
            if OPCODES[op] & 0x8:
                image[loc] = where[arg]
                loc += 1
        for _, value in self.data:
            image[loc] = value
            loc += 1
        return image


def image_text(cells) -> str:
    """The memory-image file format: hex bytes, 16 per line."""
    return "".join(" ".join("%02x" % b for b in cells[i:i + 16]) + "\n"
                   for i in range(0, len(cells), 16))


def nested_loop_program(rng: random.Random, outer: int, inner: int,
                        n_mem: int, n_plain: int) -> Program:
    """An outer loop of `outer` passes around an inner loop of `inner`
    passes around a random straight-line body of `n_mem` memory-reference
    and `n_plain` accumulator-only instructions.

    Both counters live in memory and count down with `SUB ONE`, which sets
    z on the last pass and c (no borrow) on every earlier one, so `JOZ` exits
    and `JOC` repeats: the program halts after exactly outer * inner body
    executions for any 1 <= outer, inner <= 255.
    """
    if not (1 <= outer <= 255 and 1 <= inner <= 255):
        raise ValueError("trip counts must be in 1..255")
    body = [(None, rng.choice(_BODY_MEM), "D%d" % rng.randrange(_N_DATA))
            for _ in range(n_mem)]
    body += [(None, rng.choice(_BODY_PLAIN), None) for _ in range(n_plain)]
    rng.shuffle(body)
    body[0] = ("INNER",) + body[0][1:]
    code = [(None, "LOAD", "OUTN"), (None, "STO", "O"),
            ("OUTER", "LOAD", "INN"), (None, "STO", "I"),
            *body,
            (None, "LOAD", "I"), (None, "SUB", "ONE"), (None, "STO", "I"),
            (None, "JOZ", "IDONE"), (None, "JOC", "INNER"),
            ("IDONE", "LOAD", "O"), (None, "SUB", "ONE"), (None, "STO", "O"),
            (None, "JOZ", "DONE"), (None, "JOC", "OUTER"),
            ("DONE", "HALT", None)]
    data = [("OUTN", outer), ("INN", inner), ("O", 0), ("I", 0), ("ONE", 1)]
    data += [("D%d" % d, rng.randrange(256)) for d in range(_N_DATA)]
    return Program(code, data)


def sweep_programs(seed: int) -> list:
    """`THREADS` nested-loop programs of similar length (about 16,000 cycles
    each), so the barrel's slowest thread sets the pace without dwarfing the
    others.  The trip counts and body sizes are the same for every seed, so
    the host time per simulated cycle is too; the seed draws the bodies'
    instructions, operands and data."""
    shape = random.Random("shape:sweep")
    rng = stream(seed, "sweep")
    return [nested_loop_program(rng, shape.randint(7, 9), shape.randint(21, 25),
                                shape.randint(2, 3), shape.randint(1, 2))
            for _ in range(THREADS)]


def shared_program(seed: int) -> Program:
    """One program for the shared-memory barrel, sized so that eight threads
    stay far below the CLI's default one-million-fast-cycle budget (about
    18,500 cycles per thread) while the trace still dominates the run."""
    rng = stream(seed, "shared")
    outer = rng.randint(10, 12)
    return nested_loop_program(rng, outer, 210 // outer, 2, 1)


# Gate kinds by arity.  Zero-preserving kinds map all-zero inputs to 0, so
# moving a reset-to-0 register across them keeps the reset state; the
# inverting kinds do not.
_SAFE2 = ("AND", "OR", "XOR")
_SAFE1 = ("BUF",)
# Unrestricted draws favour XOR and NOT: a wrong reset state circulates
# through them unchanged, where AND, OR, NAND and NOR soon mask it.
_ANY2 = ("AND", "OR", "XOR", "XOR", "XOR", "NAND", "NOR")
_ANY1 = ("BUF", "NOT", "NOT")

MAX_WEIGHT = 2        # registers on one wire
MAX_DELAY = 3         # gate delays run 1..MAX_DELAY
P_ZERO_WEIGHT = 0.6   # share of forward wires without a register
P_FEEDBACK = 0.35     # share of gate input pins fed back from a later gate
WINDOW = 40           # how many gates back or forward a wire reaches


def _deck(rng: random.Random, total: int, values, head=()) -> list:
    """`total` items in random order: the `head` (value, count) pairs first,
    then the rest split as evenly as possible over `values`."""
    items = [v for v, k in head for _ in range(k)]
    rest = total - len(items)
    for i, v in enumerate(values):
        items += [v] * (rest // len(values) + (i < rest % len(values)))
    rng.shuffle(items)
    return items


def random_netlist(shape: random.Random, kinds: random.Random, n_gates: int,
                   n_io: int, safe_loops: bool) -> str:
    """Netlist text with `n_gates` gates, `n_io` inputs and `n_io` outputs.

    The `shape` stream draws the graph, delays and registers; the `kinds`
    stream draws each gate's function.  Forward wires come from an input or
    one of the `WINDOW` previous gates and may be register-free; feedback
    wires come from the same or one of the next `WINDOW` gates and always
    carry a register, so no combinational cycle can arise.  The counts
    (two-input gates, feedback wires, registers per weight, delays per
    value) are fixed by the module constants.  With `safe_loops` every gate
    gets a zero-preserving kind, so every loop holds only those; without it
    any kind goes anywhere, which is what exposes a retimer that ignores
    reset state.
    """
    weights = range(1, MAX_WEIGHT + 1)
    arity = _deck(shape, n_gates, (1,), head=[(2, round(0.7 * n_gates))])
    pins = sum(arity)
    n_feedback = round(P_FEEDBACK * pins)
    feedback = _deck(shape, pins, (False,), head=[(True, n_feedback)])
    feedback_weight = iter(_deck(shape, n_feedback, weights))
    n_forward = pins - n_feedback
    forward_weight = iter(_deck(shape, n_forward, weights,
                                head=[(0, round(P_ZERO_WEIGHT * n_forward))]))
    delay = _deck(shape, n_gates, range(1, MAX_DELAY + 1))

    wires = []  # (src name, dst gate, pin, weight)
    loop_pin = iter(feedback)
    for g in range(n_gates):
        for pin in range(arity[g]):
            if next(loop_pin):
                src = shape.randrange(g, min(g + WINDOW, n_gates))
                wires.append(("g%d" % src, g, pin, next(feedback_weight)))
            else:
                pick = shape.randrange(-n_io, min(g, WINDOW))
                src = "in%d" % (pick + n_io) if pick < 0 else "g%d" % (g - 1 - pick)
                wires.append((src, g, pin, next(forward_weight)))

    two, one = (_SAFE2, _SAFE1) if safe_loops else (_ANY2, _ANY1)
    lines = ["input in%d" % i for i in range(n_io)]
    lines += ["output out%d" % o for o in range(n_io)]
    for g in range(n_gates):
        allowed = two if arity[g] == 2 else one
        lines.append("gate g%d %s %d" % (g, kinds.choice(allowed), delay[g]))
    lines += ["wire %s g%d %d %d" % w for w in wires]
    # A register on every output wire leaves no register-free path from an
    # input to an output, which retiming could never shorten.
    lines += ["wire g%d out%d 0 %d" % (shape.randrange(n_gates), o, w)
              for o, w in enumerate(_deck(shape, n_io, weights))]
    return "\n".join(lines) + "\n"
