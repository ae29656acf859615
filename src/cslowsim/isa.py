"""Instruction encoding, two-pass assembler and disassembler for the 8-bit
accumulator machine.

Word width is 8 bits and the address space is 256 words; code and data share
one memory.  An instruction is one opcode word, followed by one operand word
(a direct address) when the opcode is a memory-reference instruction.

Opcode layout, low nibble (i3 i2 i1 i0):
  i3      memory-reference flag
  i2 i1   class selector: 01 -> XC0, 10 -> XC1, 11 -> XC2, 00 -> neither
  i0      variant selector inside a memory-reference class

  i3=0:  HALT 0000   CMA 0010   INCA 0100   DCRA 0110
  i3=1:  AND 1000    LOAD 1010  STO 1011    ADD 1100   SUB 1101
         JOZ 1110    JOC 1111

In the code each `Mnemonic` member carries its nibble, and nothing else
restates it: whether an operand word follows is the member's i3 bit, which
the assembler and `decode` both read from the member.

The upper nibble of an opcode word is ignored on decode.  The sequencer never
tests i0 when i3=0, so non-memref patterns with i0=1 decode the same as their
i0=0 form; likewise 1001 decodes as AND (the memref dispatch falls through
when no XCk matches, without testing i0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

WORD_MASK = 0xFF
MEMORY_SIZE = 256


class AssemblyError(Exception):
    """Source program cannot be assembled; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class Mnemonic(Enum):
    """An instruction, with its opcode nibble (i3 i2 i1 i0) and `memref`,
    its i3 bit: whether an operand word follows the opcode word."""

    CMA = "CMA", 0b0010
    INCA = "INCA", 0b0100
    DCRA = "DCRA", 0b0110
    HALT = "HALT", 0b0000
    AND = "AND", 0b1000
    LOAD = "LOAD", 0b1010
    STO = "STO", 0b1011
    ADD = "ADD", 0b1100
    SUB = "SUB", 0b1101
    JOZ = "JOZ", 0b1110
    JOC = "JOC", 0b1111

    def __new__(cls, name, opcode):
        mnemonic = object.__new__(cls)
        mnemonic._value_, mnemonic.opcode = name, opcode
        mnemonic.memref = bool(opcode & 0b1000)
        return mnemonic


# All 16 nibble patterns decode; a pattern no opcode has is its i0=0 form,
# since the sequencer never tests i0 there (non-memref rows, and the memref
# fall-through to AND).
_OPCODES = {m.opcode: m for m in Mnemonic}
_DECODE = tuple(_OPCODES.get(nibble) or _OPCODES[nibble & ~1] for nibble in range(16))


def decode(word: int) -> tuple[Mnemonic, bool]:
    """(mnemonic, operand-word-expected) for any 8-bit word."""
    mnemonic = _DECODE[word & 0x0F]
    return mnemonic, mnemonic.memref


class MemoryImage:
    """A 256-word store; values wrap to 8 bits on write."""

    __slots__ = ("cells",)

    def __init__(self, cells=None):
        if cells is None:
            self.cells = bytearray(MEMORY_SIZE)
        else:
            cells = bytearray(cells)
            if len(cells) != MEMORY_SIZE:
                raise ValueError("memory image must hold exactly %d cells, got %d"
                                 % (MEMORY_SIZE, len(cells)))
            self.cells = cells

    def __getitem__(self, addr):
        return self.cells[addr & WORD_MASK]

    def __setitem__(self, addr, value):
        self.cells[addr & WORD_MASK] = value & WORD_MASK

    def __eq__(self, other):
        return isinstance(other, MemoryImage) and self.cells == other.cells

    def __repr__(self):
        used = sum(1 for b in self.cells if b)
        return "MemoryImage(%d nonzero cells)" % used

    def copy(self) -> "MemoryImage":
        return MemoryImage(self.cells)

    def to_text(self) -> str:
        """Whitespace-separated two-digit hex bytes, 16 per line."""
        lines = []
        for base in range(0, MEMORY_SIZE, 16):
            lines.append(" ".join("%02x" % b for b in self.cells[base:base + 16]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MemoryImage":
        tokens = text.split()
        if len(tokens) != MEMORY_SIZE:
            raise ValueError("memory image file must contain exactly %d bytes, got %d"
                             % (MEMORY_SIZE, len(tokens)))
        try:
            cells = bytearray(int(t, 16) for t in tokens)
        except ValueError as exc:
            raise ValueError("bad hex byte in memory image: %s" % exc) from None
        return cls(cells)


_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F]+")
_DEC_RE = re.compile(r"[0-9]+")


def _parse_value(text, symbols, line):
    """Numeric literal (decimal or 0x hex) or a label; returns 0..255."""
    text = text.strip()
    value = None
    if _HEX_RE.fullmatch(text):
        value = int(text, 16)
    elif _DEC_RE.fullmatch(text):
        value = int(text, 10)
    elif _LABEL_RE.match(text):
        if text not in symbols:
            raise AssemblyError("undefined label '%s'" % text, line)
        value = symbols[text]
    else:
        raise AssemblyError("bad operand '%s'" % text, line)
    if not 0 <= value <= WORD_MASK:
        raise AssemblyError("value %d out of 8-bit range" % value, line)
    return value


@dataclass
class ListingEntry:
    address: int | None  # None for lines that emit nothing
    words: list[int]
    source: str


@dataclass
class Assembly:
    image: MemoryImage
    listing: list[ListingEntry]
    symbols: dict[str, int] = field(default_factory=dict)


@dataclass
class _Stmt:
    line: int
    source: str
    label: str | None
    op: str | None       # mnemonic name, ".org" or ".word"
    operand: str | None


def _scan(text):
    stmts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].rstrip()
        label = None
        body = line.strip()
        if ":" in body:
            head, body = body.split(":", 1)
            head = head.strip()
            if not _LABEL_RE.match(head):
                raise AssemblyError("bad label '%s'" % head, lineno)
            label = head
            body = body.strip()
        op = operand = None
        if body:
            parts = body.split(None, 1)
            op = parts[0]
            operand = parts[1].strip() if len(parts) > 1 else None
        stmts.append(_Stmt(lineno, raw, label, op, operand))
    return stmts


def _mnemonic(op, line):
    try:
        return Mnemonic(op.upper())
    except ValueError:
        raise AssemblyError("unknown mnemonic or directive '%s'" % op, line) from None


def assemble_program(text: str, origin: int = 0) -> Assembly:
    """Two-pass assembly of a source program placed at `origin`.

    Directives: `.org <addr>` moves the placement counter, `.word <value>`
    emits one literal data word.  An `.org` label must be defined above it,
    since the placement of what follows depends on it.  The program must
    fit below address 256.
    """
    if not 0 <= origin < MEMORY_SIZE:
        raise AssemblyError("origin %d outside memory" % origin)
    stmts = _scan(text)

    # Pass 1: label addresses.
    symbols = {}
    loc = origin
    for s in stmts:
        if s.label is not None:
            if s.label in symbols:
                raise AssemblyError("duplicate label '%s'" % s.label, s.line)
            symbols[s.label] = loc
        if s.op is None:
            continue
        if s.op == ".org":
            if s.operand is None:
                raise AssemblyError(".org needs an address", s.line)
            loc = _parse_value(s.operand, symbols, s.line)
        elif s.op == ".word":
            loc += 1
        elif s.op.startswith("."):
            raise AssemblyError("unknown directive '%s'" % s.op, s.line)
        else:
            loc += 2 if _mnemonic(s.op, s.line).memref else 1
        if loc > MEMORY_SIZE:
            raise AssemblyError("image overflow past address 0xff", s.line)

    # Pass 2: emit.
    image = MemoryImage()
    listing = []
    loc = origin
    for s in stmts:
        words = []
        addr = None
        if s.op == ".org":
            loc = _parse_value(s.operand, symbols, s.line)
        elif s.op == ".word":
            if s.operand is None:
                raise AssemblyError(".word needs a value", s.line)
            addr = loc
            words.append(_parse_value(s.operand, symbols, s.line))
        elif s.op is not None:
            m = _mnemonic(s.op, s.line)
            addr = loc
            words.append(m.opcode)
            if m.memref:
                if s.operand is None:
                    raise AssemblyError("%s needs an address operand" % m.value, s.line)
                words.append(_parse_value(s.operand, symbols, s.line))
            elif s.operand is not None:
                raise AssemblyError("%s takes no operand" % m.value, s.line)
        for w in words:
            image[loc] = w
            loc += 1
        listing.append(ListingEntry(addr, words, s.source))
    return Assembly(image, listing, symbols)


def assemble(text: str, origin: int = 0) -> MemoryImage:
    return assemble_program(text, origin).image


def disassemble(image: MemoryImage, start: int = 0, count: int = MEMORY_SIZE) -> str:
    """Linear-sweep listing of `count` cells from `start`.

    Memory-reference opcodes consume the following operand word; a trailing
    memref opcode whose operand lies outside the window is rendered as a
    bare `.word`.  Labels are not reconstructed; operands are addresses.
    """
    lines = []
    offset = 0
    while offset < count:
        word = image[start + offset]
        mnemonic, wants_operand = decode(word)
        if wants_operand and offset + 1 < count:
            operand = image[start + offset + 1]
            lines.append("%s 0x%02X" % (mnemonic.value, operand))
            offset += 2
        elif wants_operand:
            lines.append(".word 0x%02X" % word)
            offset += 1
        else:
            lines.append(mnemonic.value)
            offset += 1
    return "\n".join(lines)
