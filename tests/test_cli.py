import json

import pytest

from cslowsim import cli
from cslowsim.cslow import MemoryMode, write_bundle
from cslowsim.isa import MemoryImage, assemble
from cslowsim.microcode import run


@pytest.fixture()
def chain_image(tmp_path, corpus_programs):
    out = tmp_path / "chain.hex"
    assert cli.main(["asm", str(corpus_programs[0]), str(out)]) == 0
    return out


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_asm_writes_image_and_listing(tmp_path, corpus_programs, capsys):
    out = tmp_path / "chain.hex"
    code, stdout, _ = run_cli(capsys, ["asm", str(corpus_programs[0]), str(out)])
    assert code == 0
    assert "LOAD" in stdout and "00: " in stdout
    image = MemoryImage.from_text(out.read_text())
    assert image == assemble(corpus_programs[0].read_text())


def test_asm_undefined_label_exits_1(tmp_path, capsys):
    src = tmp_path / "bad.asm"
    src.write_text("LOAD NOWHERE\nHALT\n")
    code, _, stderr = run_cli(capsys, ["asm", str(src), str(tmp_path / "o.hex")])
    assert code == 1
    assert "NOWHERE" in stderr and "line 1" in stderr


def test_asm_origin_flag(tmp_path, capsys):
    src = tmp_path / "t.asm"
    src.write_text("CMA\nHALT\n")
    out = tmp_path / "t.hex"
    code, _, _ = run_cli(capsys, ["asm", str(src), str(out), "--origin", "0x10"])
    assert code == 0
    image = MemoryImage.from_text(out.read_text())
    assert image[0x10] == 0b0010 and image[0] == 0


def test_run_reports_cycles(tmp_path, capsys):
    src = tmp_path / "t.asm"
    src.write_text("CMA\nHALT\n")
    out = tmp_path / "t.hex"
    cli.main(["asm", str(src), str(out)])
    capsys.readouterr()
    code, stdout, _ = run_cli(capsys, ["run", str(out)])
    assert code == 0
    report = json.loads(stdout)
    assert report["cycles"] == 14
    assert report["threads"][0]["halted"] is True
    assert report["threads"][0]["registers"]["a"] == 0xFF


def test_run_memory_diff(chain_image, capsys):
    code, stdout, _ = run_cli(capsys, ["run", str(chain_image)])
    report = json.loads(stdout)
    diff = report["threads"][0]["memory_diff"]
    assert diff  # STO R landed somewhere
    for addr, (old, new) in diff.items():
        assert addr.startswith("0x") and old != new


def test_run_cycle_limit_exits_2(tmp_path, capsys):
    src = tmp_path / "loop.asm"
    src.write_text("L: LOAD X\nSUB Z\nJOC L\nHALT\nX: .word 1\nZ: .word 0\n")
    out = tmp_path / "loop.hex"
    cli.main(["asm", str(src), str(out)])
    capsys.readouterr()
    code, _, stderr = run_cli(capsys, ["run", str(out), "--max-cycles", "100"])
    assert code == 2
    assert "100" in stderr


def test_run_trace_file(chain_image, tmp_path, capsys):
    trace = tmp_path / "out.trc"
    code, stdout, _ = run_cli(capsys, ["run", str(chain_image),
                                       "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text().splitlines()
    report = json.loads(stdout)
    assert len(lines) == report["cycles"]
    assert lines[0] == "0 0 00 00 00 00 00 0 0"
    assert all(len(line.split()) == 9 for line in lines)


def test_run_cslow_three_programs(tmp_path, corpus_programs, capsys):
    images = []
    for i, src in enumerate(corpus_programs):
        out = tmp_path / ("p%d.hex" % i)
        cli.main(["asm", str(src), str(out)])
        images.append(str(out))
    capsys.readouterr()
    code, stdout, _ = run_cli(capsys, ["run-cslow", *images, "--c", "3"])
    assert code == 0
    report = json.loads(stdout)
    base = [run(assemble(p.read_text())).cycles for p in corpus_programs]
    assert report["per_thread_cycles"] == base
    assert report["rounds"] == max(base)
    assert report["sequential_sum"] == sum(base)


def test_run_cslow_c1_byte_identical_to_run(chain_image, capsys):
    code_a, out_a, _ = run_cli(capsys, ["run", str(chain_image)])
    code_b, out_b, _ = run_cli(capsys, ["run-cslow", str(chain_image), "--c", "1"])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_run_cslow_tagged_isolated(tmp_path, capsys):
    src = tmp_path / "w.asm"
    src.write_text("LOAD V\nSTO T\nHALT\nV: .word 0x55\nT: .word 0\n")
    out = tmp_path / "w.hex"
    cli.main(["asm", str(src), str(out)])
    capsys.readouterr()
    code, stdout, _ = run_cli(
        capsys, ["run-cslow", str(out), str(out), "--c", "2", "--mode", "tagged"])
    assert code == 0
    report = json.loads(stdout)
    diffs = [t["memory_diff"] for t in report["threads"]]
    assert diffs[0] == diffs[1] and diffs[0]


def test_run_cslow_bundle(tmp_path, corpus_programs, capsys):
    images = [assemble(p.read_text()) for p in corpus_programs[:2]]
    bundle = tmp_path / "two.bundle"
    write_bundle(bundle, images, MemoryMode.PRIVATE)
    code, stdout, _ = run_cli(capsys, ["run-cslow", "--bundle", str(bundle)])
    assert code == 0
    report = json.loads(stdout)
    assert report["c"] == 2 and report["mode"] == "private"


def test_bench_identical_programs(tmp_path, capsys):
    src = tmp_path / "p.asm"
    src.write_text("CMA\nINCA\nHALT\n")
    paths = [str(src)] * 3
    report_path = tmp_path / "bench.json"
    code, stdout, _ = run_cli(
        capsys, ["bench", *paths, "--c-values", "1,2,3", "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert [row["speedup"] for row in report["rows"]] == [1.0, 2.0, 3.0]
    assert "n_threads" in stdout.splitlines()[0]


def test_bench_corpus_sum_vs_max(tmp_path, corpus_programs, capsys):
    report_path = tmp_path / "bench.json"
    code, _, _ = run_cli(
        capsys, ["bench", *map(str, corpus_programs), "--json", str(report_path)])
    assert code == 0
    rows = json.loads(report_path.read_text())["rows"]
    base = [run(assemble(p.read_text())).cycles for p in corpus_programs]
    assert [r["sequential_sum"] for r in rows] == \
        [base[0], base[0] + base[1], sum(base)]
    assert [r["cslow_rounds"] for r in rows] == \
        [base[0], max(base[:2]), max(base)]


@pytest.mark.parametrize("mode", ["private", "tagged"])
def test_bench_cycle_limit_exits_2_at_row(corpus_programs, mode, capsys):
    # Exactly enough fast cycles for row C=1; at C=2 thread 0 gets half.
    limit = run(assemble(corpus_programs[0].read_text())).cycles
    code, stdout, stderr = run_cli(
        capsys, ["bench", *map(str, corpus_programs), "--mode", mode,
                 "--c-values", "1,2,3", "--max-cycles", str(limit)])
    assert code == 2
    header, row = stdout.splitlines()
    assert row.split()[:3] == ["1", str(limit), str(limit)]
    assert "threads [0" in stderr and str(limit) in stderr


def test_bench_no_programs_is_usage_error(capsys):
    code, _, stderr = run_cli(capsys, ["bench"])
    assert code == 1
    assert "no programs" in stderr


def test_retime_pipeline_chain(tmp_path, capsys):
    fixture = "tests_fixture.net"
    path = tmp_path / fixture
    from conftest import CORPUS
    path.write_text((CORPUS / "circuits" / "chain.net").read_text())
    code, stdout, _ = run_cli(capsys, ["retime", str(path), "--pipeline", "1",
                                       "--check", "20"])
    assert code == 0
    report = json.loads(stdout)
    assert report["period_before"] == 4
    assert report["period_after"] == 2
    assert report["equivalence"] == "PASS"
    assert report["warmup"] is not None


def test_retime_cslow_ring(tmp_path, capsys):
    from conftest import CORPUS
    path = tmp_path / "ring.net"
    path.write_text((CORPUS / "circuits" / "ring.net").read_text())
    code, stdout, _ = run_cli(capsys, ["retime", str(path), "--cslow", "2",
                                       "--check", "20"])
    assert code == 0
    report = json.loads(stdout)
    assert report["period_before"] == 4
    assert report["period_after"] == 2
    assert report["registers_before"] == 1
    assert report["registers_after"] == 2
    assert report["ratio"] == 2.0
    assert report["c"] == 2
    assert report["equivalence"] == "PASS"
    assert report["area"]["fpga_reference"]["slice_registers_after"] == 4270


def test_retime_flags_mutually_exclusive(tmp_path, capsys):
    from conftest import CORPUS
    path = tmp_path / "c.net"
    path.write_text((CORPUS / "circuits" / "chain.net").read_text())
    code, _, stderr = run_cli(capsys, ["retime", str(path), "--cslow", "2",
                                       "--pipeline", "1"])
    assert code == 1
    assert "mutually exclusive" in stderr


def test_retime_pipeline_of_feedback_is_usage_error(tmp_path, capsys):
    from conftest import CORPUS
    path = tmp_path / "ring.net"
    path.write_text((CORPUS / "circuits" / "ring.net").read_text())
    code, _, stderr = run_cli(capsys, ["retime", str(path), "--pipeline", "1"])
    assert code == 1
    assert "feedback" in stderr


def test_seed_env_var(tmp_path, corpus_programs, capsys, monkeypatch):
    report_path = tmp_path / "b.json"
    monkeypatch.setenv("CSLOW_SEED", "17")
    code, _, _ = run_cli(capsys, ["bench", str(corpus_programs[0]),
                                  "--json", str(report_path)])
    assert code == 0
    assert json.loads(report_path.read_text())["seed"] == 17


def test_reports_byte_reproducible(tmp_path, corpus_programs, capsys):
    args = ["bench", *map(str, corpus_programs)]
    out1 = run_cli(capsys, args)[1]
    out2 = run_cli(capsys, args)[1]
    assert out1 == out2
