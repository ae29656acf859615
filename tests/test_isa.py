import random

import pytest

from cslowsim.isa import (
    AssemblyError,
    MemoryImage,
    Mnemonic,
    assemble,
    assemble_program,
    decode,
    disassemble,
)

# The instruction set's memory-reference instructions, written out: the
# i3 rule is checked against the spec, not against itself.
MEMREF = {Mnemonic.AND, Mnemonic.LOAD, Mnemonic.STO, Mnemonic.ADD, Mnemonic.SUB,
          Mnemonic.JOZ, Mnemonic.JOC}


def test_encoding_table_values():
    assert Mnemonic.HALT.opcode == 0b0000
    assert Mnemonic.CMA.opcode == 0b0010
    assert Mnemonic.INCA.opcode == 0b0100
    assert Mnemonic.DCRA.opcode == 0b0110
    assert Mnemonic.AND.opcode == 0b1000
    assert Mnemonic.LOAD.opcode == 0b1010
    assert Mnemonic.STO.opcode == 0b1011
    assert Mnemonic.ADD.opcode == 0b1100
    assert Mnemonic.SUB.opcode == 0b1101
    assert Mnemonic.JOZ.opcode == 0b1110
    assert Mnemonic.JOC.opcode == 0b1111


def test_decode_examples():
    assert decode(0b0000_1010) == (Mnemonic.LOAD, True)
    assert decode(0b0000_0000) == (Mnemonic.HALT, False)
    # upper nibble ignored
    assert decode(0b1111_0010) == (Mnemonic.CMA, False)


def test_roundtrip_all_mnemonics():
    for m in Mnemonic:
        got, wants_operand = decode(m.opcode)
        assert got is m
        assert wants_operand == (m in MEMREF)


def test_decode_total_over_all_nibbles():
    for nibble in range(16):
        m, wants_operand = decode(nibble)
        assert isinstance(m, Mnemonic)
        assert wants_operand == bool(nibble & 0b1000)
    # i0 is ignored where the sequencer never tests it
    assert decode(0b0001)[0] is Mnemonic.HALT
    assert decode(0b0011)[0] is Mnemonic.CMA
    assert decode(0b1001)[0] is Mnemonic.AND


def test_assemble_cma_halt():
    img = assemble("CMA\nHALT")
    assert img[0] == 0b0010
    assert img[1] == 0b0000
    assert all(img[i] == 0 for i in range(2, 256))


def test_assemble_label_resolution():
    asm = assemble_program(
        "LOOP: INCA\n"
        "      JOZ END\n"
        "      JOC LOOP\n"
        "END:  HALT\n")
    assert asm.symbols == {"LOOP": 0, "END": 5}
    assert asm.image[1] == Mnemonic.JOZ.opcode
    assert asm.image[2] == 5       # END
    assert asm.image[4] == 0       # LOOP
    assert asm.image[5] == Mnemonic.HALT.opcode


def test_assemble_word_directive():
    asm = assemble_program("LOAD X\nHALT\nX: .word 7")
    x = asm.symbols["X"]
    assert asm.image[1] == x
    assert asm.image[x] == 7


def test_assemble_org_and_origin():
    img = assemble(".org 0x10\nCMA\nHALT")
    assert img[0x10] == 0b0010
    img = assemble("CMA\nHALT", origin=0x10)
    assert img[0x10] == 0b0010
    assert img[0] == 0


def test_assemble_org_backward_label():
    asm = assemble_program("CMA\nP: CMA\nHALT\n.org P\nINCA")
    assert asm.image[asm.symbols["P"]] == Mnemonic.INCA.opcode
    assert asm.image[2] == Mnemonic.HALT.opcode


def test_assemble_org_forward_label_rejected():
    with pytest.raises(AssemblyError, match="undefined label 'F'"):
        assemble(".org F\nCMA\nF: HALT")


def test_assemble_errors():
    with pytest.raises(AssemblyError, match="duplicate label"):
        assemble("A: CMA\nA: HALT")
    with pytest.raises(AssemblyError, match="undefined label 'NOPE'"):
        assemble("LOAD NOPE\nHALT")
    with pytest.raises(AssemblyError, match="overflow"):
        assemble(".org 0xFF\nLOAD X\nX: .word 1")
    with pytest.raises(AssemblyError, match="takes no operand"):
        assemble("CMA 5")
    with pytest.raises(AssemblyError, match="needs an address operand"):
        assemble("LOAD")
    with pytest.raises(AssemblyError, match="line 2"):
        assemble("CMA\nBOGUS\nHALT")


def test_assembler_deterministic():
    src = "L: LOAD X\n ADD X\n JOC L\n HALT\nX: .word 0x42\n"
    assert assemble(src).cells == assemble(src).cells


def test_disassemble_examples():
    img = assemble("ADD 0x20\nHALT")
    assert disassemble(img, 0, 3) == "ADD 0x20\nHALT"
    img2 = MemoryImage()
    img2[0] = 0b0100
    assert disassemble(img2, 0, 1) == "INCA"
    assert disassemble(img2, 0, 0) == ""


def test_disassemble_trailing_memref_as_word():
    img = MemoryImage()
    img[0] = Mnemonic.LOAD.opcode
    assert disassemble(img, 0, 1) == ".word 0x0A"


def test_disassemble_assemble_roundtrip_random():
    rng = random.Random(7)
    mnemonics = list(Mnemonic)
    for _ in range(50):
        instrs = []
        for _ in range(rng.randint(1, 20)):
            m = rng.choice(mnemonics)
            instrs.append((m, rng.randrange(256) if m in MEMREF else None))
        src = "\n".join(m.value if op is None else "%s %d" % (m.value, op)
                        for m, op in instrs)
        image = assemble(src)
        length = sum(2 if op is not None else 1 for _, op in instrs)
        redone = assemble(disassemble(image, 0, length))
        assert redone.cells[:length] == image.cells[:length]


def test_image_text_roundtrip():
    rng = random.Random(1)
    img = MemoryImage(bytes(rng.randrange(256) for _ in range(256)))
    text = img.to_text()
    assert len(text.split()) == 256
    assert MemoryImage.from_text(text) == img
    with pytest.raises(ValueError, match="exactly 256"):
        MemoryImage.from_text("00 01 02")
    with pytest.raises(ValueError, match="^memory image must hold exactly 256 cells, got 3$"):
        MemoryImage(b"\x00\x01\x02")


def test_memory_wraps():
    img = MemoryImage()
    img[256] = 0x1FF
    assert img[0] == 0xFF
