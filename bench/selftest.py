"""Check that every oracle of the benchmark rejects a corrupted output.

    python3 bench/selftest.py

Runs each workload's invocations once at seed 0, confirms the real outputs
pass, then feeds each oracle altered copies (a changed count, a flipped
trace byte, a wrong exit code, a vacuous warm-up) and confirms each one is
flagged.  Exits 1 if an oracle accepts a corruption.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import run

SEED = 0


def edit(stdout, **changes):
    report = json.loads(stdout)
    report.update(changes)
    return json.dumps(report, indent=2)


class Judge:
    def __init__(self):
        self.problems = []

    def expect(self, label, outcome, wrong=True, failed=True, because=None):
        """`because`, if given, must be part of every violation reported."""
        got = (bool(outcome.wrong), outcome.failed)
        if got != (wrong, failed):
            self.problems.append("%s: wrong=%s failed=%s, expected wrong=%s failed=%s"
                                 % (label, got[0], got[1], wrong, failed))
        elif because is not None and not all(because in w for w in outcome.wrong):
            self.problems.append("%s: flagged for %s, expected only %r"
                                 % (label, outcome.wrong, because))
        print("%-48s wrong=%-5s failed=%s" % (label, got[0], got[1]))


def barrel_sweep(cli, invocations, judge):
    for inv in invocations:
        code, stdout, _ = run.invoke(cli, inv.argv)
        judge.expect(inv.name + " as run", inv.check(code, stdout), wrong=False, failed=False)
        judge.expect(inv.name + " exit 1", inv.check(1, stdout))
        path = inv.argv[inv.argv.index("--json") + 1]
        with open(path) as fh:
            report = json.load(fh)
        for key in ("sequential_sum", "cslow_rounds", "fast_cycles_total"):
            bad = json.loads(json.dumps(report))
            bad["rows"][-1][key] += 1
            with open(path, "w") as fh:
                json.dump(bad, fh)
            judge.expect("%s %s + 1" % (inv.name, key), inv.check(code, stdout))
        with open(path, "w") as fh:
            json.dump(report, fh)


def barrel_shared_trace(cli, invocations, judge):
    (inv,) = invocations
    code, stdout, _ = run.invoke(cli, inv.argv)
    judge.expect("shared as run", inv.check(code, stdout), wrong=False, failed=False)
    report = json.loads(stdout)
    judge.expect("shared fast_cycles_total + 1", inv.check(
        code, edit(stdout, fast_cycles_total=report["fast_cycles_total"] + 1)))
    threads = copy.deepcopy(report["threads"])
    threads[3]["registers"]["a"] ^= 1
    judge.expect("shared thread 3 accumulator flipped", inv.check(code, edit(stdout, threads=threads)))
    # The same report with other whitespace: only the report digest differs.
    judge.expect("shared report re-indented", inv.check(code, json.dumps(report)),
                 because="digests pinned")
    prefix = inv.argv[inv.argv.index("--trace") + 1]
    path = prefix + ".t5.trc"
    with open(path, "rb") as fh:
        trace = fh.read()
    with open(path, "wb") as fh:
        fh.write(trace[:-2] + (b"0" if trace[-2:-1] != b"0" else b"1") + b"\n")
    judge.expect("shared trace of thread 5 last byte flipped", inv.check(code, stdout))
    # One digit flipped in the middle of every trace: the traces still agree
    # and keep their length, first and last lines, so only the trace digest
    # can tell.
    middle = trace.index(b" ", len(trace) // 2) + 1
    flipped = trace[:middle] + (b"0" if trace[middle:middle + 1] != b"0" else b"1") + trace[middle + 1:]
    for t in range(run.THREADS):
        with open("%s.t%d.trc" % (prefix, t), "wb") as fh:
            fh.write(flipped)
    judge.expect("shared traces' middle digit flipped", inv.check(code, stdout),
                 because="digests pinned")
    for t in range(run.THREADS):
        with open("%s.t%d.trc" % (prefix, t), "wb") as fh:
            fh.write(trace[:trace.rindex(b"\n", 0, -1) + 1])
    judge.expect("shared traces one line short", inv.check(code, stdout))


def retime(cli, invocations, judge):
    for inv in invocations:
        code, stdout, _ = run.invoke(cli, inv.argv)
        report = json.loads(stdout)
        as_run = inv.check(code, stdout)
        judge.expect(inv.name + " as run", as_run, wrong=False,
                     failed=inv.name == "checked-any" and report["equivalence"] == "FAIL")
        judge.expect(inv.name + " period_after - 1", inv.check(
            code, edit(stdout, period_after=report["period_after"] - 1)))
        judge.expect(inv.name + " registers_after + 1", inv.check(
            code, edit(stdout, registers_after=report["registers_after"] + 1)))
        judge.expect(inv.name + " exit 2", inv.check(2, stdout))
        if inv.name == "big":
            continue
        cycles = int(inv.argv[inv.argv.index("--cycles") + 1])
        judge.expect(inv.name + " exit 0 with FAIL",
                     inv.check(0, edit(stdout, equivalence="FAIL")))
        judge.expect(inv.name + " vacuous PASS", inv.check(
            0, edit(stdout, equivalence="PASS", warmup=cycles)),
            wrong=inv.name == "checked-safe")
        judge.expect(inv.name + " non-vacuous PASS", inv.check(
            0, edit(stdout, equivalence="PASS", warmup=cycles - 1)), wrong=False, failed=False)
        judge.expect(inv.name + " FAIL exit 3", inv.check(3, edit(stdout, equivalence="FAIL")),
                     wrong=inv.name == "checked-safe")


def main():
    sys.path.insert(0, run.SRC)
    judge = Judge()
    for name, probe in (("barrel-sweep", barrel_sweep),
                        ("barrel-shared-trace", barrel_shared_trace),
                        ("retime", retime)):
        tmp = run.scratch_dir()
        try:
            modules, inputs, workdir, _ = run.set_up(name, SEED, tmp)
            invocations = run.WORKLOADS[name][1](SEED, workdir, inputs, run.load_pins())
            probe(modules["cli"], invocations, judge)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    for problem in judge.problems:
        print("PROBLEM " + problem)
    print("%d oracle problems" % len(judge.problems))
    return 1 if judge.problems else 0


if __name__ == "__main__":
    sys.exit(main())
