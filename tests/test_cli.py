import gc
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import cslowsim
import genprog
from reftrace import format_trace, image_trace, write_bundle
from cslowsim import cli, cslow
from cslowsim.cslow import MemoryMode
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


def test_package_imports_without_numpy():
    # A None entry in sys.modules makes `import numpy` raise ImportError.
    src = str(Path(cslowsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.modules['numpy'] = None; import cslowsim.cli"],
                   env=env, check=True, timeout=60)


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


@pytest.mark.parametrize("c", [2, 3, 8])
def test_shared_traces_are_the_plain_core_trace(c, tmp_path, corpus_programs, capsys):
    image = tmp_path / "memloop.hex"
    assert run_cli(capsys, ["asm", str(corpus_programs[2]), str(image)])[0] == 0
    base = tmp_path / "base.trc"
    code, stdout, _ = run_cli(capsys, ["run", str(image), "--trace", str(base)])
    assert code == 0
    h = json.loads(stdout)["cycles"]
    prefix = tmp_path / "tp"
    code, _, _ = run_cli(capsys, ["run-cslow", str(image), "--mode", "shared",
                                  "--c", str(c), "--trace", str(prefix)])
    assert code == 0
    files = sorted(tmp_path.glob("tp.t*.trc"))
    assert [f.name for f in files] == ["tp.t%d.trc" % t for t in range(c)]
    assert all(f.read_bytes() == base.read_bytes() for f in files)
    # A cycle limit the run exceeds writes no trace at all.
    for f in files:
        f.unlink()
    code, _, stderr = run_cli(capsys, ["run-cslow", str(image), "--mode", "shared",
                                       "--c", str(c), "--trace", str(prefix),
                                       "--max-cycles", str(h * c - 1)])
    assert code == 2 and "not halted" in stderr
    assert list(tmp_path.glob("tp*")) == []


def _expected_traces(images, report):
    """Each thread's trace text: its image's run, row by row, then the halt
    row on each of its remaining slots of the run."""
    c, total = report["c"], report["fast_cycles_total"]
    texts = []
    for t in range(c):
        _, state, _, trace = image_trace(images[t % len(images)], 1_000_000)
        end = (total - t - 1) // c + 1
        pad = [(k,) + state.snapshot()[1:] for k in range(state.cycles, end)]
        texts.append(format_trace(trace + pad))
    return texts


# A run longer than a trace chunk, and one that halts much sooner.
LONG = genprog.nested_loop(2, 180)
SHORT = "LOAD X\nADD X\nSTO X\nHALT\nX: .word 3\n"


@pytest.mark.parametrize("argv, programs, threads", [
    (["run"], [LONG], 0),
    (["run-cslow", "--mode", "private"], [LONG, SHORT, LONG], 3),
    (["run-cslow", "--mode", "shared", "--c", "3"], [LONG], 3),
    (["run-cslow", "--mode", "tagged"], [SHORT, LONG], 2),
], ids=["run", "private", "shared", "tagged"])
def test_trace_files_complete_when_main_returns(argv, programs, threads, tmp_path, capsys):
    # With the collector off, no finalizer closes a file: every trace file
    # must be whole when `main` returns.
    images = [assemble(p) for p in programs]
    paths = []
    for i, image in enumerate(images):
        path = tmp_path / ("p%d.hex" % i)
        path.write_text(image.to_text())
        paths.append(str(path))
    prefix = tmp_path / "tr"
    files = [tmp_path / ("tr.t%d.trc" % t) for t in range(threads)] or [prefix]
    gc.disable()
    try:
        code = cli.main([argv[0], *paths, *argv[1:], "--trace", str(prefix)])
        texts = [f.read_text() for f in files]
    finally:
        gc.enable()
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert texts == _expected_traces(images, report)
    assert sorted(tmp_path.glob("tr*")) == sorted(files)


@pytest.mark.parametrize("argv", [["run"], ["run-cslow", "--mode", "shared", "--c", "3"],
                                  ["run-cslow", "--mode", "private", "--c", "2"]],
                         ids=["run", "shared", "private"])
def test_limit_exceeded_leaves_existing_trace_untouched(argv, tmp_path, capsys):
    image = tmp_path / "long.hex"
    image.write_text(assemble(LONG).to_text())
    images = [str(image)] * (2 if "private" in argv else 1)
    prefix = tmp_path / "tr"
    files = ([prefix] if argv == ["run"] else
             [tmp_path / ("tr.t%d.trc" % t) for t in range(int(argv[-1]))])
    for f in files:
        f.write_bytes(b"an earlier run's trace\n")
    code, _, stderr = run_cli(capsys, [argv[0], *images, *argv[1:], "--trace", str(prefix),
                                       "--max-cycles", "5000"])
    assert code == 2 and "5000" in stderr
    assert [f.read_bytes() for f in files] == [b"an earlier run's trace\n"] * len(files)
    assert sorted(tmp_path.iterdir()) == sorted(files + [image])


@pytest.mark.parametrize("argv, programs", [
    (["--mode", "shared", "--c", "3"], [LONG]),
    (["--mode", "private"], [LONG, SHORT, genprog.nested_loop(3, 40)]),
], ids=["shared", "private"])
def test_unopenable_trace_path_leaves_existing_traces_untouched(argv, programs, tmp_path,
                                                                capsys):
    # Thread 1's path is a directory: the run exits 1 before any file is
    # written, also the files of a group that runs before thread 1's.
    images = []
    for i, program in enumerate(programs):
        path = tmp_path / ("p%d.hex" % i)
        path.write_text(assemble(program).to_text())
        images.append(str(path))
    (tmp_path / "tr.t1.trc").mkdir()
    files = [tmp_path / "tr.t0.trc", tmp_path / "tr.t2.trc"]
    for t, f in enumerate(files):
        f.write_bytes(b"an earlier run's trace of thread %d\n" % (2 * t))
    before = sorted(tmp_path.iterdir())
    code, stdout, stderr = run_cli(capsys, ["run-cslow", *images, *argv,
                                            "--trace", str(tmp_path / "tr")])
    assert (code, stdout) == (1, "") and "tr.t1.trc" in stderr
    assert [f.read_bytes() for f in files] == [
        b"an earlier run's trace of thread 0\n", b"an earlier run's trace of thread 2\n"]
    assert sorted(tmp_path.iterdir()) == before


def _memloop_trace(tmp_path, corpus_programs, capsys):
    """memloop's image path and its plain-core trace, from `run --trace`."""
    image = tmp_path / "memloop.hex"
    assert run_cli(capsys, ["asm", str(corpus_programs[2]), str(image)])[0] == 0
    base = tmp_path / "base.trc"
    assert run_cli(capsys, ["run", str(image), "--trace", str(base)])[0] == 0
    return image, base.read_bytes()


def test_trace_overwrites_existing_files(tmp_path, corpus_programs, capsys):
    # Each file is written in place and cut at the end of its trace: a
    # longer one loses its tail, a shorter one grows, and a symlink stays a
    # link whose target holds the trace.
    image, trace = _memloop_trace(tmp_path, corpus_programs, capsys)
    files = [tmp_path / ("tp.t%d.trc" % t) for t in range(3)]
    files[0].write_bytes(b"x" * (2 * len(trace)))
    files[1].write_bytes(b"one line\n")
    target = tmp_path / "target.trc"
    target.write_bytes(b"y" * (len(trace) + 100))
    files[2].symlink_to(target)
    code, _, _ = run_cli(capsys, ["run-cslow", str(image), "--mode", "shared", "--c", "3",
                                  "--trace", str(tmp_path / "tp")])
    assert code == 0
    assert [f.read_bytes() for f in files] == [trace] * 3
    assert files[2].is_symlink() and target.read_bytes() == trace


def test_bench_json_and_asm_overwrite_longer_file(tmp_path, corpus_programs, capsys):
    # Over a longer existing file, each writes the bytes it writes to a
    # fresh path.
    programs = list(map(str, corpus_programs))
    for argv in (["bench", *programs, "--json"], ["asm", programs[0]]):
        fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
        assert run_cli(capsys, [*argv, str(fresh)])[0] == 0
        old.write_bytes(b"z" * (3 * fresh.stat().st_size))
        assert run_cli(capsys, [*argv, str(old)])[0] == 0
        assert old.read_bytes() == fresh.read_bytes(), argv[0]


@pytest.mark.skipif(not os.path.exists(os.devnull)
                    or not stat.S_ISCHR(os.stat(os.devnull).st_mode),
                    reason="os.devnull is not a character device")
def test_trace_to_dev_null(chain_image, capsys):
    # A device cannot be cut to length, and need not be.
    code, stdout, _ = run_cli(capsys, ["run", str(chain_image), "--trace", os.devnull])
    assert code == 0 and json.loads(stdout)["threads"][0]["halted"]


def test_output_files_open_without_truncation(tmp_path, corpus_programs, capsys,
                                              monkeypatch):
    # Truncating an existing file to zero makes ext4 start its writeback on
    # closing it, so no output file is opened with O_TRUNC: every one goes
    # through `os.open` without that flag.
    image, trace = _memloop_trace(tmp_path, corpus_programs, capsys)
    outputs = [tmp_path / ("tp.t%d.trc" % t) for t in range(3)]
    outputs += [tmp_path / "bench.json", tmp_path / "out.hex"]
    for f in outputs:
        f.write_bytes(b"an earlier output\n")
    opened = []
    def recorded(path, flags, *args, _real=os.open):
        opened.append((os.fspath(path), flags))
        return _real(path, flags, *args)
    monkeypatch.setattr(os, "open", recorded)
    programs = list(map(str, corpus_programs))
    for argv in (["run-cslow", str(image), "--mode", "shared", "--c", "3",
                  "--trace", str(tmp_path / "tp")],
                 ["bench", *programs, "--json", str(outputs[3])],
                 ["asm", programs[0], str(outputs[4])]):
        assert run_cli(capsys, argv)[0] == 0
    monkeypatch.undo()
    assert {path for path, _ in opened} >= set(map(str, outputs))
    assert not [path for path, flags in opened if flags & os.O_TRUNC]
    assert [f.read_bytes() for f in outputs[:3]] == [trace] * 3


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


@pytest.mark.parametrize("mode, picks", [
    ("private", (0, 1, 0, 2, 1, 0)), ("tagged", (2, 2, 0, 1, 0, 1)), ("shared", (0,) * 4)])
def test_bench_runs_each_program_once(mode, picks, tmp_path, capsys, monkeypatch):
    # Rows share their runs: one `cslow.run` per distinct program over the
    # whole sweep, and each row is the row `bench` gives for its C alone.
    sources = [genprog.nested_loop(2, 30), SHORT, genprog.nested_loop(3, 11)]
    paths = []
    for i, pick in enumerate(picks):
        path = tmp_path / ("p%d.asm" % i)
        path.write_text(sources[pick])
        paths.append(str(path))
    runs = []
    def counted(image, *args, _real=cslow.run, **kwargs):
        runs.append(bytes(image.cells))
        return _real(image, *args, **kwargs)
    monkeypatch.setattr(cslow, "run", counted)
    report = tmp_path / "bench.json"
    code, _, _ = run_cli(capsys, ["bench", *paths, "--mode", mode, "--json", str(report)])
    assert code == 0
    assert len(runs) == len(set(runs)) == len(set(picks))
    rows = json.loads(report.read_text())["rows"]
    assert [row["n_threads"] for row in rows] == list(range(1, len(picks) + 1))
    for row in rows:
        code, _, _ = run_cli(capsys, ["bench", *paths, "--mode", mode, "--json", str(report),
                                      "--c-values", str(row["n_threads"])])
        assert code == 0
        assert json.loads(report.read_text())["rows"] == [row]


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


@pytest.mark.parametrize("flags", [[], ["--cslow", "3"]])
def test_retime_default_cycles_compare_past_long_warmup(tmp_path, capsys, flags):
    # A 300-gate BUF chain closed by a 3-register feedback wire through an
    # XOR: every gate preserves zero, so the retimed ring is equivalent once
    # warmed up, and its warm-up (registers plus nodes) is over 256 cycles.
    lines = ["input in", "output out", "gate x XOR 1", "wire in x 0 0",
             "wire x b0 0 0", "wire b299 x 1 3", "wire b299 out 0 0"]
    for i in range(300):
        lines.append("gate b%d BUF 1" % i)
        if i:
            lines.append("wire b%d b%d 0 0" % (i - 1, i))
    path = tmp_path / "long.net"
    path.write_text("\n".join(lines) + "\n")
    code, stdout, stderr = run_cli(capsys, ["retime", str(path), *flags,
                                            "--check", "4"])
    assert (code, stderr) == (0, "")
    report = json.loads(stdout)
    assert report["equivalence"] == "PASS"
    assert report["warmup"] > 256


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


@pytest.mark.parametrize("value", ["abc", ""])
def test_bad_seed_env_var_is_usage_error(tmp_path, corpus_programs, capsys,
                                         monkeypatch, value):
    from conftest import CORPUS
    monkeypatch.setenv("CSLOW_SEED", value)
    for argv in (["bench", str(corpus_programs[0])],
                 ["retime", str(CORPUS / "circuits" / "ring.net")]):
        code, stdout, stderr = run_cli(capsys, argv)
        assert (code, stdout) == (1, "")
        assert stderr == "error: CSLOW_SEED must be an integer, got %r\n" % value
    # --seed wins, and subcommands without one never read the variable
    code, _, _ = run_cli(capsys, ["bench", str(corpus_programs[0]), "--seed", "3"])
    assert code == 0
    code, _, _ = run_cli(capsys, ["asm", str(corpus_programs[0]),
                                  str(tmp_path / "o.hex")])
    assert code == 0


@pytest.mark.parametrize("flags", [
    ["--check", "0"], ["--check", "-1"], ["--check", "5", "--cycles", "0"],
    ["--check", "5", "--cycles", "-3"],
    ["--cslow", "2", "--check", "5", "--cycles", "0"],
    # ring's warm-up is 7 cycles; chain's is 8, plus the pipeline shift
    ["--check", "20", "--cycles", "7"],
    ["--pipeline", "2", "--check", "5", "--cycles", "10"]])
def test_retime_vacuous_check_is_usage_error(capsys, flags):
    from conftest import CORPUS
    circuit = "chain" if "--pipeline" in flags else "ring"  # ring has a loop
    code, stdout, stderr = run_cli(
        capsys, ["retime", str(CORPUS / "circuits" / (circuit + ".net")), *flags])
    assert (code, stdout) == (1, "")
    assert stderr in ("error: need at least one trial\n",
                      "error: need at least one cycle\n",
                      "error: need more than 7 cycles to compare past warm-up 7 "
                      "and shift 0\n",
                      "error: need more than 10 cycles to compare past warm-up 8 "
                      "and shift 2\n")


@pytest.mark.parametrize("circuit", ["chain", "ring", "toggle", "random136", "random86"])
@pytest.mark.parametrize("flags", [[], ["--check", "20"]])
def test_retime_plain_is_cslow_1(capsys, circuit, flags):
    from conftest import CORPUS
    argv = ["retime", str(CORPUS / "circuits" / (circuit + ".net")), *flags]
    assert run_cli(capsys, argv) == run_cli(capsys, argv + ["--cslow", "1"])


def test_retime_cslow_0_is_usage_error(capsys):
    from conftest import CORPUS
    code, stdout, stderr = run_cli(
        capsys, ["retime", str(CORPUS / "circuits" / "ring.net"), "--cslow", "0"])
    assert (code, stdout) == (1, "")
    assert "slowdown factor" in stderr


def test_retime_output_declared_before_its_input(tmp_path, capsys):
    # out0 reads in1 through a register-free wire and is declared first: the
    # host tie once raised in1 twice in one pass, and retiming died with an
    # uncaught IllegalRetiming.
    path = tmp_path / "tie.net"
    path.write_text("output out0\ninput in1\ninput in0\noutput out1\n"
                    "gate g1 BUF 2\ngate g2 BUF 2\nwire in1 out0 0 0\n"
                    "wire in0 g1 0 0\nwire g1 g2 0 0\nwire g2 out1 0 1\n")
    code, stdout, stderr = run_cli(capsys, ["retime", str(path), "--check", "20"])
    assert (code, stderr) == (0, "")
    report = json.loads(stdout)
    assert (report["period_before"], report["period_after"]) == (4, 2)
    assert report["equivalence"] == "PASS"


@pytest.mark.parametrize("circuit, flags", [
    ("ring", ["--cslow", "3"]), ("chain", ["--pipeline", "2"]), ("random86", [])])
def test_retime_check_simulates_original_and_final(capsys, monkeypatch, circuit, flags):
    # One check per run, the final netlist against the original itself.  A
    # retiming of the C-slowed original that moves no inverting gate (the
    # ring's) is certified: nothing is simulated or compiled.  One that
    # moves one (random86's) runs in the original's own lanes, so only the
    # original is simulated and the final one never compiled; a pipeline,
    # shifted, simulates both.
    from conftest import CORPUS
    from cslowsim import netlist, retime
    path = CORPUS / "circuits" / (circuit + ".net")
    simulated, checked = [], []
    real_simulate, real_check = retime.simulate, retime.check_equivalence

    def counting(net, *args, **kwargs):
        simulated.append(net)
        return real_simulate(net, *args, **kwargs)

    def recording(a, b, *args, **kwargs):
        checked.append((a, b))
        return real_check(a, b, *args, **kwargs)

    monkeypatch.setattr(retime, "simulate", counting)
    monkeypatch.setattr(retime, "check_equivalence", recording)
    code, stdout, _ = run_cli(capsys, ["retime", str(path), *flags, "--check", "10"])
    assert code == 0 and json.loads(stdout)["equivalence"] == "PASS"
    original = netlist.parse(path.read_text())
    if "--pipeline" in flags:
        final = retime.pipeline(original, 2)
        assert simulated == [original, final]
    else:
        c = 3 if flags else 1
        slowed = retime.cslow_transform(original, c)
        final = retime.min_period_retime(slowed).netlist
        assert final != slowed
        lag = retime.recover_lags(original, final, c)
        moved = any(lag[n] for n, node in original.nodes.items() if node.kind.inverting)
        assert moved == (circuit == "random86")
        assert simulated == ([original] if moved else [])
        assert checked[0][1]._simulator is None
        assert (checked[0][0]._simulator is None) is not moved
    assert [b for _, b in checked] == [final]


BAD_ARGUMENTS = [
    (["run"], "image"),
    (["retime", "ring.net", "--cslow", "abc"], "--cslow"),
    (["asm", "a.asm", "o.hex", "--origin", "zz"], "--origin"),
    (["run", "a.hex", "--max-cycles", "0"], "--max-cycles"),
    (["run-cslow", "a.hex", "--max-cycles", "0"], "--max-cycles"),
    (["bench", "a.asm", "--max-cycles", "-5"], "--max-cycles"),
    (["bench", "a.asm", "--max-cycles", "abc"], "--max-cycles")]


@pytest.mark.parametrize("argv, option", BAD_ARGUMENTS)
def test_argument_error_is_usage_error(capsys, argv, option):
    # argparse's own code, 2, is the CLI's "cycle limit exceeded".
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert option in captured.err and "<lambda>" not in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["retime", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: cslowsim" in capsys.readouterr().out


def test_parser_of_one_command_reads_as_the_full_one(capsys, monkeypatch):
    # `main` builds only the named subcommand's arguments.  Help, usage,
    # errors and exit codes must be the full parser's byte for byte, and a
    # valid command line must parse to the same arguments.
    exits = [["--help"], [], ["nope"], ["nope", "--help"], ["--help", "retime"],
             *([name, "--help"] for name in cli.COMMANDS),
             *(argv for argv, _ in BAD_ARGUMENTS)]
    full_parser = cli.build_parser

    def outcome(argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        return exc.value.code, *capsys.readouterr()

    for argv in exits:
        lazy = outcome(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", lambda command=None: full_parser())
            assert outcome(argv) == lazy, argv
    valid = [["asm", "a.asm", "o.hex", "--origin", "0x10"], ["run", "a.hex", "--trace", "t"],
             ["run-cslow", "a.hex", "b.hex", "--c", "2", "--mode", "tagged"],
             ["bench", "a.asm", "--c-values", "1,2", "--json", "r.json"],
             ["retime", "ring.net", "--cslow", "3", "--check", "5", "--seed", "2"]]
    assert [argv[0] for argv in valid] == list(cli.COMMANDS)
    for argv in valid:
        assert vars(cli.build_parser(argv[0]).parse_args(argv)) == \
            vars(full_parser().parse_args(argv))


@pytest.mark.parametrize("count", ["0", "-2", "4"])
def test_bench_thread_count_out_of_range_is_usage_error(corpus_programs, capsys, count):
    # Refused before any row runs, wherever the bad count stands in the list.
    code, stdout, stderr = run_cli(
        capsys, ["bench", *map(str, corpus_programs), "--c-values", "1," + count])
    assert (code, stdout) == (1, "")
    assert stderr == ("error: thread count %s is outside [1, 3]: one program "
                      "per thread\n" % count)


def test_bench_shared_needs_one_image(corpus_programs, capsys):
    code, stdout, stderr = run_cli(
        capsys, ["bench", *map(str, corpus_programs[:2]), "--mode", "shared"])
    assert code == 1
    assert stdout == ("n_threads sequential_sum cslow_rounds fast_cycles speedup\n"
                      "        1             78           78          78   1.000\n")
    assert stderr == ("error: shared memory needs one image; "
                      "image 1 differs from image 0\n")


def test_reports_byte_reproducible(tmp_path, corpus_programs, capsys):
    args = ["bench", *map(str, corpus_programs)]
    out1 = run_cli(capsys, args)[1]
    out2 = run_cli(capsys, args)[1]
    assert out1 == out2
