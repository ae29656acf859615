"""Golden digests of the CLI's output contract.

Each case runs `cli.main` in a temporary directory and hashes its exit
code, stdout, stderr and every file it wrote.  The digests were taken
before the control store became generated code, so any change to a report,
a trace file or a `bench` table shows up here as a named case.  The
cycle-limit cases were added, with their digests, before untraced runs moved
to the whole-instruction loop, the four shared-memory cases after them before
shared memory moved from the tick loop to per-thread lock-step copies, and
the `retime` cases before the barrel machine lost its tick loop, and the
two generated-netlist `retime` cases before the retimer moved from dense
W/D tables to FEAS.  None changed when the plain and C-slow equivalence
checks became one checker and `retime --cycles` came to default to 256
compared cycles past the warm-up, nor when plain retiming became C-slow at
C = 1 and the retimer came to return the netlist it verified.  The four
repeated-image private cases were added, with their digests, before private
and tagged threads that start from one image came to run once.
Regenerate with `PYTHONPATH=src python tests/test_golden.py` only for an
intended change of the output format.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from cslowsim import cli

PROGRAMS = ("chain", "countdown", "memloop")
CIRCUITS = ("chain", "ring", "toggle", "random136", "random86")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _invoke(argv):
    before = set(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = {name: Path(name).read_text()
               for name in sorted(set(os.listdir(".")) - before)}
    for name in written:
        os.remove(name)
    blob = json.dumps([code, out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(blob.encode()).hexdigest()


def cases():
    """(name, argv) pairs, run in order in a directory holding the corpus
    sources, their images `<name>.hex` and the corpus netlists `<name>.net`.
    Shared memory needs one image, so its cases repeat `memloop`."""
    for p in PROGRAMS:
        yield "asm %s" % p, ["asm", p + ".asm", "listing.hex"]
        yield "run %s" % p, ["run", p + ".hex", "--trace", "trace.txt"]
    for mode in ("private", "tagged", "shared"):
        for c in (1, 2, 3, 8):
            images = (["memloop.hex"] * c if mode == "shared" else
                      [PROGRAMS[t % 3] + ".hex" for t in range(c)])
            yield ("run-cslow %s C=%d" % (mode, c),
                   ["run-cslow", *images, "--mode", mode, "--trace", "tp"])
        sources = (["memloop.asm"] * 3 if mode == "shared" else
                   [p + ".asm" for p in PROGRAMS])
        for limit in (50, 5000):
            yield ("bench %s --max-cycles %d" % (mode, limit),
                   ["bench", *sources, "--mode", mode,
                    "--max-cycles", str(limit), "--json", "bench.json"])
    # Cycle-limit edges: countdown halts on its 172nd cycle, and a bench row
    # at C=1 stops on the reset row (limit 1) or inside an instruction (13).
    for limit in (171, 172):
        yield ("run countdown --max-cycles %d" % limit,
               ["run", "countdown.hex", "--max-cycles", str(limit)])
    for mode in ("private", "tagged"):
        for limit in (1, 13):
            yield ("bench %s --max-cycles %d" % (mode, limit),
                   ["bench", *[p + ".asm" for p in PROGRAMS], "--mode", mode,
                    "--max-cycles", str(limit), "--json", "bench.json"])
    # Shared memory from one image at C=3 (memloop halts on its 263rd cycle,
    # so the run takes 789 fast cycles; 787 stops threads 1 and 2 in the
    # halting round), and bench rows stopped as above.
    yield ("run-cslow shared 1 image C=3",
           ["run-cslow", "memloop.hex", "--c", "3", "--mode", "shared",
            "--trace", "tp"])
    yield ("run-cslow shared C=3 --max-cycles 787",
           ["run-cslow", "memloop.hex", "--c", "3", "--mode", "shared",
            "--max-cycles", "787"])
    for limit in (1, 13):
        yield ("bench shared --max-cycles %d" % limit,
               ["bench", *["memloop.asm"] * 3, "--mode", "shared",
                "--max-cycles", str(limit), "--json", "bench.json"])
    # Private threads that start from one image, stopped as above and at
    # 787 (threads 1 and 2 a step behind thread 0 in the halting round).
    for limit in (13, 50, 5000):
        yield ("bench private memloop countdown memloop --max-cycles %d" % limit,
               ["bench", "memloop.asm", "countdown.asm", "memloop.asm",
                "--mode", "private", "--max-cycles", str(limit),
                "--json", "bench.json"])
    yield ("run-cslow private 3 memloop --max-cycles 787",
           ["run-cslow", *["memloop.hex"] * 3, "--mode", "private",
            "--max-cycles", "787"])
    # `retime`: every transform the CLI offers, checked, on netlists where
    # it is right, and the refusal to pipeline a loop (exit 1).
    for net in ("ring", "toggle"):
        yield ("retime %s --cslow 3 --check 20" % net,
               ["retime", net + ".net", "--cslow", "3", "--check", "20"])
    yield ("retime chain --pipeline 2 --check 20",
           ["retime", "chain.net", "--pipeline", "2", "--check", "20"])
    yield "retime ring --check 20", ["retime", "ring.net", "--check", "20"]
    yield "retime ring --pipeline 2", ["retime", "ring.net", "--pipeline", "2"]
    # Generated netlists whose optimum moves many registers, so a retimer
    # that reaches the same period with other lags changes the report.
    yield ("retime random136 --check 20",
           ["retime", "random136.net", "--check", "20"])
    yield ("retime random86 --cslow 3 --check 20",
           ["retime", "random86.net", "--cslow", "3", "--check", "20"])


def digests(workdir):
    """Case name -> SHA-256 of its outputs, run inside `workdir`."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for n in CIRCUITS:
            shutil.copy(CORPUS / "circuits" / (n + ".net"), n + ".net")
        for p in PROGRAMS:
            shutil.copy(CORPUS / "programs" / (p + ".asm"), p + ".asm")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["asm", p + ".asm", p + ".hex"]) == 0
        return {name: _invoke(argv) for name, argv in cases()}
    finally:
        os.chdir(cwd)


GOLDEN = {
    "asm chain":
        "92b27f7c401191081437414dd307c85b3a2735242f949294447e59e7cee00623",
    "run chain":
        "535d19a7d04a9caa03f064a45f13b4d938a12219eae66f579e2784a25e2a3150",
    "asm countdown":
        "b4b00db02cc0507f2c1d62ad5b205a11cb11f8371231c138061b22e87532d8a2",
    "run countdown":
        "8c9842c6640861808f4d9426b1a51c42ec97ac948de353a38de43a272011de33",
    "asm memloop":
        "968dfb58949041cd03b06fb434213990230a6b975ff4eb130645d39669f9c170",
    "run memloop":
        "837d30b0d60c071037d69d8715b358e8135b10a8a7e688c281bced687b51eb2e",
    "run-cslow private C=1":
        "d5737f8ce3a6e5873b3bd050093dff727fceef12ee832e529792a7a356654f1e",
    "run-cslow private C=2":
        "ad9bc1150d44a4d71676f23cdde7a17f680263117b9f89dcf432476a2130bb0d",
    "run-cslow private C=3":
        "57486c72e3e8eb47dd16fe9961321731a8851dd5dc978e1cf4d1c36197e53944",
    "run-cslow private C=8":
        "c3b5cde9fb41b48d47d1d2be378eb2e0cc72b8b96fe349318b4196150f45ff7e",
    "bench private --max-cycles 50":
        "f1a5d62cfbf3c9fc632a9d97df39c19990a81b1d8df966c7e13d2ab716a81177",
    "bench private --max-cycles 5000":
        "7b82bca6c4a3087a57da3a65d3703d74c5f63a742ced060eaa9047ef7c6ca2a6",
    "run-cslow tagged C=1":
        "4e66819fe404662e0f934a009e1172be3ccad585bf82e79299fd3637053c0785",
    "run-cslow tagged C=2":
        "2f58bfead9418107cbfc5da2ea40a189768aa743a5807eab37c080beffd2f73d",
    "run-cslow tagged C=3":
        "0bb4ad9a047437e959559c130b21aaa238ceb2862e8ad6b28d9a9defd60f8ca6",
    "run-cslow tagged C=8":
        "2779d5eb70ca1aee6440d3ada1967e3750885d9578e0fc14e714b9868585f687",
    "bench tagged --max-cycles 50":
        "f1a5d62cfbf3c9fc632a9d97df39c19990a81b1d8df966c7e13d2ab716a81177",
    "bench tagged --max-cycles 5000":
        "fe7fdd4faaa523d252f7609bbbc309c9ecdd9b5dbde275dae68587f3c9ec2648",
    "run-cslow shared C=1":
        "7232dc3f6e8ba9691b4b0ddcb4d73b3c3185785d7c36d71f2b0e7cba2f70bf4f",
    "run-cslow shared C=2":
        "2bf521b485c1c83ff5fb155e83c62ea439c4a3f8e5d9e9172070fc20e65a0fa5",
    "run-cslow shared C=3":
        "ae200c1394733a6b862eee440489b99a4bb7ec5f64faf824998fb20c5a0923b3",
    "run-cslow shared C=8":
        "7957ba310e9651b0975286489401d1a5292790d35c8880031cfdfb3ccfe5e790",
    "bench shared --max-cycles 50":
        "f1a5d62cfbf3c9fc632a9d97df39c19990a81b1d8df966c7e13d2ab716a81177",
    "bench shared --max-cycles 5000":
        "73234f9755c6bbfa4f80191b813796ba208e5b49cabd605b354a9d61a0f26c93",
    "run countdown --max-cycles 171":
        "b4cae36bcdf5e0b7639c388778af8993ed363c995056b89257191e4c3097def1",
    "run countdown --max-cycles 172":
        "20bb0264b88c1178b3ee85129736d3db8c8637fdc52914384da81b51d7cd83c6",
    "bench private --max-cycles 1":
        "a0922c7d430669a966ee3feb86d23b5d75eb2622a541fbf7605c8dbb2b1a6191",
    "bench private --max-cycles 13":
        "9331b9680d1fdfe2238ecc967da6ff724dda9a675d0fb3d45e6e8b9a2c7f5d91",
    "bench tagged --max-cycles 1":
        "a0922c7d430669a966ee3feb86d23b5d75eb2622a541fbf7605c8dbb2b1a6191",
    "bench tagged --max-cycles 13":
        "9331b9680d1fdfe2238ecc967da6ff724dda9a675d0fb3d45e6e8b9a2c7f5d91",
    "run-cslow shared 1 image C=3":
        "97a8c2523dedeabe6abce14f415b53d61ad6909f72fa07e139cc23980a95deae",
    "run-cslow shared C=3 --max-cycles 787":
        "ae570d5a2ac8cf5a7f2fe258aa105ea917cac6be5532ef2fe95085491914a93b",
    "bench shared --max-cycles 1":
        "a0922c7d430669a966ee3feb86d23b5d75eb2622a541fbf7605c8dbb2b1a6191",
    "bench shared --max-cycles 13":
        "9331b9680d1fdfe2238ecc967da6ff724dda9a675d0fb3d45e6e8b9a2c7f5d91",
    "bench private memloop countdown memloop --max-cycles 13":
        "9331b9680d1fdfe2238ecc967da6ff724dda9a675d0fb3d45e6e8b9a2c7f5d91",
    "bench private memloop countdown memloop --max-cycles 50":
        "f1a5d62cfbf3c9fc632a9d97df39c19990a81b1d8df966c7e13d2ab716a81177",
    "bench private memloop countdown memloop --max-cycles 5000":
        "852548e8536c1f6d48fa0e39c3fa51501a050690062e4e830b2fc5bebebfc962",
    "run-cslow private 3 memloop --max-cycles 787":
        "ae570d5a2ac8cf5a7f2fe258aa105ea917cac6be5532ef2fe95085491914a93b",
    "retime ring --cslow 3 --check 20":
        "b0ab0f68b6b0b5a5613e7463cd3cf8be13df133397cd04f9a1274ca05fb0e260",
    "retime toggle --cslow 3 --check 20":
        "f4e70cce353c4f5c9d4372cd97ddedef80dde236e4d93be8a822bbe9057cc550",
    "retime chain --pipeline 2 --check 20":
        "12641cd7a05c95907cdd48d0ca0bf4aa030faa47a298b3afba3d41406c400678",
    "retime ring --check 20":
        "56e17dfc091542bdd889b8736e23806595c2be601961e12e3ea00af8b4888c8f",
    "retime ring --pipeline 2":
        "387d2dec8d285a72fed8d241490aba55bf8f0b8406a8a5a1b1c27afad523faa5",
    "retime random136 --check 20":
        "e39973d35798a2e99ca838bd90a61ad8dd8175b11bd5ebbe87d6232be9da0bfb",
    "retime random86 --cslow 3 --check 20":
        "5877de172f4d3d51a15f544d454dacdec8724b07de76a0777d9125410838e6de",
}


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("CSLOW_SEED", raising=False)  # `bench --json` holds the seed
    got = digests(tmp_path)
    assert list(got) == list(GOLDEN)
    assert [name for name in got if got[name] != GOLDEN[name]] == []


if __name__ == "__main__":
    import tempfile
    os.environ.pop("CSLOW_SEED", None)
    with tempfile.TemporaryDirectory() as workdir:
        json.dump(digests(workdir), sys.stdout, indent=4)
    print()
