"""Random halting programs for the core and barrel-machine properties.

Every program halts, whatever its flags and data do:

- A jump targets a labelled statement later in flow order, and the last
  statement is HALT.
- A countdown loop ends in `LOAD Ck / DCRA / STO Ck / JOC head` on its own
  data word Ck = 0..2.  DCRA leaves c=1 while the loaded count is at least
  1, so the body runs Ck + 1 times.  Loops do not nest, and one is entered
  only at its head, from above: a jump in its body goes to a later
  statement of that body or to its tail.
- A store writes a data word, or the operand cell of a LOAD, AND, ADD or
  SUB (self-modifying code), which only moves the cell that instruction
  reads.  No store touches a counter, a jump, a store or an opcode.
- A program placed with `.org` runs across the top of memory.  Its first
  statements sit so that the last of them ends in cell 0xff, and the pc
  wraps from there into a guard at address 0: `LOAD G / DCRA / STO G /
  JOZ L0` with G = 1 jumps to them from reset (1 - 1 sets z) and falls
  through to the rest of the program on the way back (0 - 1 clears z).
"""

import random

_PLAIN = ["CMA", "INCA", "DCRA"]
_READ = ["AND", "LOAD", "ADD", "SUB"]
_JUMP = ["JOZ", "JOC"]


def random_halting_program(rng: random.Random, min_len=3, max_len=10) -> str:
    n = rng.randint(min_len, max_len)
    n_data = rng.randint(1, 4)

    # Loop bodies: statements heads[k] .. ends[k] - 1 form loop k.
    heads, ends, loop_of = [], [], [None] * n
    i = 0
    while i < n:
        if rng.random() < 0.2:
            m = rng.randint(1, min(4, n - i))
            for j in range(i, i + m):
                loop_of[j] = len(heads)
            heads.append(i)
            ends.append(i + m)
            i += m
        else:
            i += 1
    # Where a top-level jump may land: a top-level statement, a loop head
    # or the final HALT.
    starts = [j for j in range(n) if loop_of[j] is None or j in heads] + [n]

    kinds = []
    for i in range(n):
        roll = rng.random()
        kinds.append(rng.choice(_PLAIN) if roll < 0.3 else
                     rng.choice(_READ + ["STO"]) if roll < 0.75 else
                     rng.choice(_JUMP))
    readers = [j for j in range(n) if kinds[j] in _READ]

    # Statement i as (label, mnemonic, operand); an int operand k stands for
    # the operand cell of statement k, resolved once the layout is known.
    body = []
    for i, kind in enumerate(kinds):
        k = loop_of[i]
        if kind in _PLAIN:
            operand = None
        elif kind in _JUMP:
            if k is None:
                targets = ["L%d" % j for j in starts if j > i]
            else:
                targets = ["L%d" % j for j in range(i + 1, ends[k])] + ["T%d" % k]
            operand = rng.choice(targets)
        elif kind == "STO" and readers and rng.random() < 0.3:
            operand = rng.choice(readers)
        else:
            operand = "D%d" % rng.randrange(n_data)
        lines = [("L%d" % i, kind, operand)]
        if k is not None and i == ends[k] - 1:
            lines += [("T%d" % k, "LOAD", "C%d" % k), (None, "DCRA", None),
                      (None, "STO", "C%d" % k), (None, "JOC", "L%d" % heads[k])]
        body.append(lines)

    data = [("D%d" % d, ".word", rng.randrange(256)) for d in range(n_data)]
    data += [("C%d" % k, ".word", rng.randint(0, 2)) for k in range(len(heads))]
    halt = [("L%d" % n, "HALT", None)]
    if rng.random() < 0.3:
        split = rng.choice(starts[1:])
        top = [line for lines in body[:split] for line in lines]
        guard = [(None, "LOAD", "G"), (None, "DCRA", None),
                 (None, "STO", "G"), (None, "JOZ", "L0")]
        rest = [line for lines in body[split:] for line in lines]
        base = 256 - sum(_size(op) for _, op, _ in top)
        layout = (guard + rest + halt + data + [("G", ".word", 1)]
                  + [(None, ".org", base)] + top)
    else:
        layout = [line for lines in body for line in lines] + halt + data

    address, loc = {}, 0
    for label, op, operand in layout:
        if op == ".org":
            loc = operand
        address[label] = loc
        loc += _size(op)
    text = []
    for label, op, operand in layout:
        if isinstance(operand, int) and op == "STO":
            operand = "0x%02x" % (address["L%d" % operand] + 1)
        stmt = op if operand is None else "%s %s" % (op, operand)
        text.append(stmt if label is None else "%s: %s" % (label, stmt))
    return "\n".join(text) + "\n"


def _size(op):
    if op == ".org":
        return 0
    return 1 if op in _PLAIN or op in ("HALT", ".word") else 2


def nested_loop(outer: int, inner: int) -> str:
    """A program of two nested countdown loops, `outer` times `inner` turns
    of a 56-cycle inner body: a long run of a few instructions."""
    return ("L1: LOAD M\nSTO J\n"
            "L2: LOAD J\nSUB ONE\nSTO J\nJOZ E2\nJOC L2\n"
            "E2: LOAD I\nSUB ONE\nSTO I\nJOZ END\nJOC L1\n"
            "END: HALT\n"
            "I: .word %d\nJ: .word 0\nM: .word %d\nONE: .word 1\n" % (outer, inner))
