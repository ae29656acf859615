"""Benchmark for the `cslowsim` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process with no threads (a closed loop) issues `cslowsim`
CLI invocations back to back through `cslowsim.cli.main`, with stdout
captured, and checks every output against an oracle.  A round is the
workload's fixed list of invocations; rounds repeat until `--seconds` have
passed.  With `--trace 0` the run prints the end-to-end metrics; with
`--trace 1` it alternates untraced and traced rounds and prints per-layer
metrics from the traced ones, with the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Exit status: 0 when every output passed its oracle, 1 when one did not,
2 when the package cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402

SETUP_REPEATS = 3
GAUGE_STEPS = 360_000  # about 40 ms on a 2.1 GHz Xeon
THREADS = gen.THREADS  # the barrel's thread count in every workload
RETIME_C = 3        # slow-down factor of every retime invocation
CHECK_TRIALS = 100
BIG_GATES = 584     # with 8 inputs and 8 outputs: 600 nodes
CHECKED_GATES = 100


@dataclass
class Outcome:
    """What one invocation's output said, as judged by its oracle."""
    failed: bool = False
    wrong: list = field(default_factory=list)   # oracle violations
    sim_cycles: int = 0
    counts: dict = field(default_factory=dict)


@dataclass
class Invocation:
    name: str
    argv: list
    check: object  # (exit code, stdout) -> Outcome


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- workloads

# Each workload is a pair: `generate` writes the seed's inputs (timed as
# set-up), `prepare` works out what the oracles expect and returns the
# round's invocations (not timed: it is the benchmark's work, not the
# program's).

def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def generate_barrel_sweep(seed, tmp):
    programs = gen.sweep_programs(seed)
    paths = [_write(os.path.join(tmp, "p%d.asm" % i), prog.text())
             for i, prog in enumerate(programs)]
    return programs, paths


def prepare_barrel_sweep(seed, tmp, inputs, pins):
    programs, paths = inputs
    cycles = [oracle.interpret(p.cells()).cycles for p in programs]

    def bench(mode, c_values):
        out = os.path.join(tmp, "bench-%s.json" % mode)
        expected = [oracle.barrel_row(cycles, n) for n in c_values]
        for row in expected:
            row["speedup"] = float(Fraction(row["sequential_sum"], row["cslow_rounds"]))

        def check(code, stdout):
            outcome = Outcome(sim_cycles=sum(r["fast_cycles_total"] + r["sequential_sum"]
                                              for r in expected))
            if code != 0:
                outcome.failed = True
                outcome.wrong.append("bench %s exited %d" % (mode, code))
                return outcome
            with open(out) as fh:
                report = json.load(fh)
            if report != {"mode": mode, "seed": seed, "rows": expected}:
                outcome.failed = True
                outcome.wrong.append("bench %s rows differ from the oracle" % mode)
            return outcome

        argv = ["bench", *paths, "--mode", mode, "--c-values",
                ",".join(map(str, c_values)), "--seed", str(seed), "--json", out]
        return Invocation("bench-" + mode, argv, check)

    return [bench("private", list(range(1, THREADS + 1))), bench("tagged", [THREADS])]


def generate_barrel_shared_trace(seed, tmp):
    cells = gen.shared_program(seed).cells()
    return cells, _write(os.path.join(tmp, "shared.img"), gen.image_text(cells))


def prepare_barrel_shared_trace(seed, tmp, inputs, pins):
    cells, image = inputs
    prefix = os.path.join(tmp, "shared")
    final = oracle.interpret(cells)
    h = final.cycles
    thread = {"halted": True, "cycles": h, "registers": final.regs,
              "memory_diff": oracle.memory_diff(cells, final.memory)}
    # Every thread runs the same code on the same cells and each read
    # follows the previous micro-step's writes of all threads, so the eight
    # threads stay in lock-step: the run is one program's run, eight times.
    expected = {"c": THREADS, "mode": "shared", "cycles": h,
                "per_thread_cycles": [h] * THREADS, "rounds": h,
                "fast_cycles_total": THREADS * h, "occupancy": 1.0,
                "vertical_waste": 0.0, "sequential_sum": h, "speedup": 1.0,
                "threads": [thread] * THREADS}
    pin = pins.get("barrel-shared-trace", {}).get(str(seed))

    def check(code, stdout):
        outcome = Outcome(sim_cycles=(THREADS + 1) * h)
        if code != 0:
            outcome.failed = True
            outcome.wrong.append("run-cslow exited %d" % code)
            return outcome
        if json.loads(stdout) != expected:
            outcome.wrong.append("run-cslow report differs from the oracle")
        traces = []
        for t in range(THREADS):
            with open("%s.t%d.trc" % (prefix, t), "rb") as fh:
                traces.append(fh.read())
        lines = traces[0].splitlines()
        if any(tr != traces[0] for tr in traces):
            outcome.wrong.append("per-thread traces differ")
        if (len(lines) != h or lines[0] != b"0 0 00 00 00 00 00 0 0"
                or int(lines[-1].split()[0]) != h - 1):
            outcome.wrong.append("trace is not %d micro-steps from reset" % h)
        if pin is not None and (pin["cycles"] != h
                                or pin["report_sha256"] != sha256(stdout.encode())
                                or pin["trace_sha256"] != sha256(traces[0])):
            outcome.wrong.append("output differs from the digests pinned for seed %d" % seed)
        outcome.failed = bool(outcome.wrong)
        return outcome

    argv = ["run-cslow", image, "--mode", "shared", "--c", str(THREADS),
            "--trace", prefix]
    return [Invocation("run-cslow-shared", argv, check)]


def _netlist_facts(text):
    registers = sum(int(f[4]) for f in (line.split() for line in text.splitlines())
                    if f and f[0] == "wire")
    nodes = sum(1 for line in text.splitlines() if line.split()[:1] in
                (["input"], ["output"], ["gate"]))
    return registers, nodes


def generate_retime(seed, tmp):
    # The seed draws the gate kinds and (through --seed) the check's input
    # streams; each netlist's shape is the same for every seed.  The
    # solver's time depends on the shape alone, and over shapes drawn per
    # seed it ranged from 0.7 s to 1.8 s at 600 nodes: no bound could hold
    # a spread like that from seed to seed.
    def net(name, gates, io, safe_loops):
        return gen.random_netlist(random.Random("shape:" + name), gen.stream(seed, name),
                                  gates, io, safe_loops)

    nets = {"big": net("big", BIG_GATES, 8, False),
            "checked-safe": net("checked-safe", CHECKED_GATES, 16, True),
            "checked-any": net("checked-any", CHECKED_GATES, 16, False)}
    return {name: (text, _write(os.path.join(tmp, name + ".net"), text))
            for name, text in nets.items()}


def prepare_retime(seed, tmp, inputs, pins):
    pin = pins.get("retime", {}).get(str(seed), {})
    invocations = []
    for name, (text, path) in inputs.items():
        registers, nodes = _netlist_facts(text)
        period, max_delay = oracle.critical_period(text)
        argv = ["retime", path, "--cslow", str(RETIME_C), "--seed", str(seed)]
        cycles = None
        if name != "big":
            # Past the flush warm-up (registers + nodes of the larger circuit)
            # unless retiming more than doubles the C-slowed register count.
            cycles = 2 * (RETIME_C * registers + nodes)
            argv += ["--check", str(CHECK_TRIALS), "--cycles", str(cycles)]
        invocations.append(Invocation(name, argv, _retime_check(
            name, registers, period, max_delay, cycles, pin.get(name), seed)))
    return invocations


def _retime_check(name, registers, period_before, max_delay, cycles, pin, seed):
    def check(code, stdout):
        outcome = Outcome()
        judge(outcome, json.loads(stdout), code)
        outcome.failed = outcome.failed or bool(outcome.wrong) or code != 0
        return outcome

    def judge(outcome, report, code):
        after = report["registers_after"]
        expect = {"period_before": period_before, "c": RETIME_C,
                  "registers_before": registers,
                  "ratio": float(Fraction(after, registers))}
        for key, value in expect.items():
            if report[key] != value:
                outcome.wrong.append("%s: %s is %r, expected %r"
                                     % (name, key, report[key], value))
        if not max_delay <= report["period_after"] <= period_before:
            outcome.wrong.append("%s: period_after %d outside [%d, %d]"
                                 % (name, report["period_after"], max_delay, period_before))
        if pin is not None and (pin["period_after"], pin["registers_after"]) != (
                report["period_after"], after):
            outcome.wrong.append("%s: period/registers differ from the pin for seed %d"
                                 % (name, seed))
        outcome.counts["registers_after"] = after
        verdict, warmup = report["equivalence"], report["warmup"]
        if cycles is None:
            if code != 0 or verdict is not None:
                outcome.wrong.append("%s: exit %d, equivalence %r" % (name, code, verdict))
            return
        if (code, verdict) not in ((0, "PASS"), (3, "FAIL")):
            outcome.wrong.append("%s: exit %d with equivalence %r" % (name, code, verdict))
            return
        if verdict == "FAIL" and name == "checked-safe":
            outcome.wrong.append("checked-safe failed its equivalence check")
        # Both checks simulate every cycle whatever the verdict: the C-slow
        # check runs the slowed circuit for C*cycles and the original C
        # times for cycles; the retime check runs two circuits.
        outcome.sim_cycles = 2 * RETIME_C * cycles + 2 * cycles
        outcome.counts["compared_cycles"] = max(cycles - warmup, 0)
        outcome.counts["checked_cycles"] = cycles
        # A warm-up at or past the cycle count compares nothing, yet the CLI
        # still prints PASS: that check is vacuous, and checked-safe's PASS
        # must not be.
        outcome.failed = warmup >= cycles
        if outcome.failed and name == "checked-safe":
            outcome.wrong.append("checked-safe: warm-up %d leaves none of %d cycles compared"
                                 % (warmup, cycles))

    return check


WORKLOADS = {
    "barrel-sweep": (generate_barrel_sweep, prepare_barrel_sweep),
    "barrel-shared-trace": (generate_barrel_shared_trace, prepare_barrel_shared_trace),
    "retime": (generate_retime, prepare_retime),
}


# ------------------------------------------------------------------ running

def scratch_dir():
    """A fresh directory under the checkout's ignored `.bench_tmp/`."""
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def import_package():
    """A fresh import of every `cslowsim` module (earlier copies dropped)."""
    for name in [n for n in sys.modules if n == "cslowsim" or n.startswith("cslowsim.")]:
        del sys.modules[name]
    cli = importlib.import_module("cslowsim.cli")
    return {name: getattr(cli, name) for name in
            ("cslow", "isa", "microcode", "netlist", "retime")} | {"cli": cli}


def set_up(workload, seed, tmp):
    """Import `cslowsim` afresh and write the seed's inputs into a new
    directory: (modules, inputs, directory, seconds taken)."""
    workdir = tempfile.mkdtemp(dir=tmp)
    start = time.perf_counter()
    modules = import_package()
    inputs = WORKLOADS[workload][0](seed, workdir)
    return modules, inputs, workdir, time.perf_counter() - start


def invoke(cli, argv):
    """One in-process CLI call with its output captured:
    (exit code, stdout, seconds inside `cli.main`)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def gauge_seconds():
    """Seconds a fixed pure-Python loop takes: the host's current speed.
    It is the benchmark's own code, so no change to `cslowsim` moves it."""
    mem = list(range(256))
    acc = 0
    start = time.perf_counter()
    for i in range(GAUGE_STEPS):
        acc = (acc + mem[acc] + i) & 255
        mem[i & 255] = acc
    return time.perf_counter() - start


def run_round(cli, invocations, gauges=None):
    """One pass over the workload: (invocation seconds, outcomes).  With a
    `gauges` list, the host gauge is timed before each invocation into it."""
    seconds = []
    outcomes = []
    for inv in invocations:
        # Each CLI process starts with a fresh heap; collecting the previous
        # invocation's garbage first keeps it from being billed to this one.
        gc.collect()
        if gauges is not None:
            gauges.append(gauge_seconds())
        code, stdout, sec = invoke(cli, inv.argv)
        seconds.append(sec)
        try:
            outcomes.append(inv.check(code, stdout))
        except (OSError, ValueError, LookupError, TypeError) as exc:
            outcomes.append(Outcome(failed=True, wrong=[
                "%s: exit %d, unreadable output (%s)" % (inv.name, code, exc)]))
    return seconds, outcomes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def round_seconds(rounds):
    """Seconds one round takes: the sum over its invocations of each one's
    median time across rounds.  On a shared host a call's time swings both
    ways with the neighbours' load, and the fastest call is a rare lucky
    one; the median over the whole run is the steadiest estimate."""
    return sum(statistics.median(sec[i] for sec, _ in rounds)
               for i in range(len(rounds[0][0])))


def end_to_end(setup_times, rounds, gauges):
    # Every round runs the same inputs, so its simulated cycles are fixed.
    cycles = sum(o.sim_cycles for o in rounds[0][1])
    # Cycles per host second, times the gauge's seconds: the cycles simulated
    # in the time the gauge loop takes on the same host at the same time.
    # The host's speed drifts by up to a third from one half-minute to the
    # next and moves both alike, so the product holds where cycles per
    # second does not.
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "sim_cycles_per_gauge": _metric(
            cycles / round_seconds(rounds) * statistics.median(gauges), "cycles/gauge"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced):
    """Per-round layer figures, as medians over the traced rounds."""
    rows = []
    for spans, outcomes, _ in traced:
        t = layer_totals(spans)

        def get(name, key="s"):
            return t.get(name, {}).get(key, 0)

        row = {
            "cli.main.s": get("cli.main"),
            "cli.main.self_s": get("cli.main", "self_s"),
            "isa.assemble.s": get("isa.assemble"),
            "isa.assemble.calls": get("isa.assemble", "calls"),
            "isa.MemoryImage.from_text.s": get("isa.MemoryImage.from_text"),
            "microcode.run.s": get("microcode.run"),
            "microcode.run.calls": get("microcode.run", "calls"),
            "microcode.run.steps": get("microcode.run", "steps"),
            "microcode.run.steps_per_s": _ratio(get("microcode.run", "steps"),
                                                get("microcode.run")),
            "microcode.write_trace.s": get("microcode.write_trace"),
            "microcode.write_trace.bytes": get("microcode.write_trace", "bytes"),
        }
        ticks = idle = 0
        for mode in ("private", "tagged", "shared"):
            name = "cslow.run_all." + mode
            row["cslow.run_all.s." + mode] = get(name)
            row["cslow.run_all.ticks." + mode] = get(name, "ticks")
            row["cslow.run_all.ticks_per_s." + mode] = _ratio(get(name, "ticks"), get(name))
            ticks += get(name, "ticks")
            idle += get(name, "idle_slots")
        compared = sum(o.counts.get("compared_cycles", 0) for o in outcomes)
        checked = sum(o.counts.get("checked_cycles", 0) for o in outcomes)
        row |= {
            "cslow.compare.s": get("cslow.compare"),
            "cslow.sequential_baseline.s": get("cslow.sequential_baseline"),
            "cslow.machine_report.s": get("cslow.machine_report"),
            "cslow.idle_slot_ratio": _ratio(idle, ticks),
            "netlist.parse.s": get("netlist.parse"),
            "netlist.critical_path.s": get("netlist.critical_path"),
            "netlist.critical_path.calls": get("netlist.critical_path", "calls"),
            "netlist.simulate.s": get("netlist.simulate"),
            "netlist.simulate.calls": get("netlist.simulate", "calls"),
            "netlist.simulate.node_cycles": get("netlist.simulate", "node_cycles"),
            "netlist.simulate.node_cycles_per_s": _ratio(
                get("netlist.simulate", "node_cycles"), get("netlist.simulate")),
            "retime.min_period_retime.s": get("retime.min_period_retime"),
            "retime.min_period_retime.nodes": get("retime.min_period_retime", "nodes"),
            "retime.min_period_retime.peak_alloc_mb":
                get("retime.min_period_retime", "peak_alloc_bytes") / 2**20,
            "retime.cslow_transform.s": get("retime.cslow_transform"),
            "retime.apply_retiming.s": get("retime.apply_retiming"),
            "retime.area_report.s": get("retime.area_report"),
            "retime.check_cslow_equivalence.self_s":
                get("retime.check_cslow_equivalence", "self_s"),
            "retime.check_equivalence.self_s": get("retime.check_equivalence", "self_s"),
            "retime.check.compared_ratio": _ratio(compared, checked),
            "retime.registers_after": sum(o.counts.get("registers_after", 0)
                                          for o in outcomes),
        }
        rows.append(row)
    metrics = {}
    for key in rows[0]:
        unit = ("s" if key.endswith(".s") or ".s." in key or key.endswith("self_s")
                else "1/s" if "_per_s" in key
                else "MB" if key.endswith("_mb")
                else "bytes" if key.endswith(".bytes")
                else "ratio" if key.endswith("ratio")
                else "count")
        metrics[key] = _metric(statistics.median([r[key] for r in rows]), unit)
    return metrics


def context(workload, seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    why = ""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}[workload]
    except (OSError, ValueError, KeyError):
        pass
    return {"workload": workload, "seed": seed, "why": why,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cslowsim", "cli.py")):
        print("error: no cslowsim package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tmp = scratch_dir()
    try:
        # Set-up is timed SETUP_REPEATS times before the first round and once
        # more after every round, so its median spans the run's slow and fast
        # spells; the first copy's modules and inputs are the ones used.
        setups = [set_up(args.workload, args.seed, tmp) for _ in range(SETUP_REPEATS)]
        modules, inputs, workdir, _ = setups[0]
        invocations = WORKLOADS[args.workload][1](args.seed, workdir, inputs, load_pins())
        setup_times = [sec for *_, sec in setups]
        tracer = Tracer(modules) if args.trace else None
        # One warm-up round, checked but not timed: it fills the caches and
        # lazy imports a run pays for once.
        warmup = run_round(modules["cli"], invocations)[1]
        rounds, traced = [], []  # traced: (spans, outcomes, seconds) per traced round
        gauges = []  # the host gauge's seconds, before each untraced invocation
        min_rounds = 2 if tracer else 1  # a traced run needs one round of each kind
        begin = time.perf_counter()
        while len(rounds) + len(traced) < min_rounds or time.perf_counter() - begin < args.seconds:
            if tracer is not None and len(rounds) > len(traced):
                tracer.install()
                try:
                    seconds, outcomes = run_round(modules["cli"], invocations)
                finally:
                    tracer.uninstall()
                traced.append((tracer.take(), outcomes, seconds))
            else:
                rounds.append(run_round(modules["cli"], invocations, gauges))
            setup_times.append(set_up(args.workload, args.seed, tmp)[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = warmup + [o for _, outs in rounds for o in outs] + [o for _, outs, _ in traced for o in outs]
    wrong = [w for o in outcomes for w in o.wrong]
    failed = sum(o.failed for o in outcomes)
    if tracer is None:
        metrics = end_to_end(setup_times, rounds, gauges)
    else:
        metrics = per_layer(traced)
        metrics["trace.overhead"] = _metric(
            round_seconds([(sec, outs) for _, outs, sec in traced]) / round_seconds(rounds),
            "ratio")

    info = context(args.workload, args.seed)
    info |= {"rounds": len(rounds), "traced_rounds": len(traced),
             "invocations_per_round": len(invocations), "setups": len(setup_times)}
    print("# context " + json.dumps(info))
    for i, inv in enumerate(invocations):
        times = sorted(sec[i] for sec, _ in rounds)
        print("# invocation %-20s fastest %.4f s, median %.4f s, slowest %.4f s over %d rounds"
              % (inv.name, times[0], statistics.median(times), times[-1], len(times)))
    for message in sorted(set(wrong)):
        print("# WRONG " + message)
    print("# fail_ratio %.4f (%d failed of %d attempted)"
          % (failed / len(outcomes), failed, len(outcomes)))
    cycles = sum(o.sim_cycles for o in rounds[0][1])
    print("# sim_cycles %d per round; round time %.6g s; %.6g cycles/s; gauge %.6g s"
          % (cycles, round_seconds(rounds), cycles / round_seconds(rounds),
             statistics.median(gauges)))
    if args.workload == "retime":
        # Informational: both move with the seed's verdicts and registers,
        # so they are not among the bounded metrics.
        ok = sum(not o.failed for _, outs in rounds for o in outs)
        spent = sum(sum(sec) for sec, _ in rounds)
        print("# ok_retimes_per_min %.6g (%d ok of %d in %.3f s)"
              % (60 * ok / spent, ok, len(rounds) * len(invocations), spent))
        print("# registers_after %d" % sum(o.counts["registers_after"] for o in rounds[0][1]))
    for name, m in metrics.items():
        print("# %-44s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not wrong, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    # Python salts string hashes per process, and the salt alone moves this
    # dict-heavy simulator by up to a tenth from one run to the next.  Fix
    # it by replacing this process with one that has a fixed salt.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
