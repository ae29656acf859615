"""Command-line front end.

Subcommands: asm, run, run-cslow, bench, retime.  Structured output is
JSON; all of it is byte-reproducible for fixed inputs and seed.  The
default seed is 0, overridable with the CSLOW_SEED environment variable or
a --seed flag.

Exit codes: 0 success, 1 input or usage error, 2 simulation cycle limit
exceeded, 3 internal invariant violation (including a failed equivalence
check, which a correct transformation must never produce).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import cslow, isa, microcode, netlist, retime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CYCLE_LIMIT = 2
EXIT_INTERNAL = 3

_INPUT_ERRORS = (
    isa.AssemblyError,
    netlist.NetlistError,
    cslow.BadThreadCount,
    cslow.ImageMismatch,
    retime.BadC,
    retime.NotFeedForward,
    retime.InterfaceMismatch,
    OSError,
    ValueError,
)


def _default_seed():
    return int(os.environ.get("CSLOW_SEED", "0"))


def _print_json(doc):
    print(json.dumps(doc, indent=2))


def _load_image(path) -> isa.MemoryImage:
    with open(path) as fh:
        return isa.MemoryImage.from_text(fh.read())


def cmd_asm(args) -> int:
    with open(args.source) as fh:
        text = fh.read()
    assembly = isa.assemble_program(text, origin=args.origin)
    with open(args.out, "w") as fh:
        fh.write(assembly.image.to_text())
    for entry in assembly.listing:
        addr = "    " if entry.address is None else "%02x: " % entry.address
        words = " ".join("%02x" % w for w in entry.words)
        print("%s%-6s %s" % (addr, words, entry.source.rstrip()))
    return EXIT_OK


def _run_report(images, config, trace_paths=None):
    machine = cslow.CslowMachine(config, images)
    if trace_paths:
        machine.enable_tracing()
    machine.run_all()
    if trace_paths:
        for path, log in zip(trace_paths, machine.traces):
            microcode.write_trace(path, log)
    return cslow.machine_report(machine, cslow.sequential_cycles(machine, images))


def cmd_run(args) -> int:
    image = _load_image(args.image)
    config = cslow.CslowConfig(1, cslow.MemoryMode.PRIVATE, args.max_cycles)
    report = _run_report([image], config, [args.trace] if args.trace else None)
    _print_json(report)
    return EXIT_OK


def cmd_run_cslow(args) -> int:
    if args.bundle:
        if args.images:
            raise ValueError("give either --bundle or image files, not both")
        c, mode, images = cslow.read_bundle(args.bundle)
        if args.c is not None:
            c = args.c
        if args.mode is not None:
            mode = cslow.MemoryMode(args.mode)
    else:
        if not args.images:
            raise ValueError("no memory images given")
        images = [_load_image(p) for p in args.images]
        c = args.c if args.c is not None else len(images)
        mode = cslow.MemoryMode(args.mode or "private")
    config = cslow.CslowConfig(c, mode, args.max_cycles)
    trace_paths = None
    if args.trace:
        trace_paths = ([args.trace] if c == 1 else
                       ["%s.t%d.trc" % (args.trace, t) for t in range(c)])
    report = _run_report(images, config, trace_paths)
    _print_json(report)
    return EXIT_OK


def cmd_bench(args) -> int:
    if not args.programs:
        raise ValueError("no programs given")
    images = []
    for path in args.programs:
        with open(path) as fh:
            images.append(isa.assemble(fh.read()))
    if args.c_values:
        c_values = [int(x) for x in args.c_values.split(",") if x]
    else:
        c_values = list(range(1, len(images) + 1))
    if not c_values:
        raise ValueError("empty thread-count list")
    mode = cslow.MemoryMode(args.mode)

    sweep = cslow.Sweep(images, mode, args.max_cycles)
    rows = []
    print("n_threads sequential_sum cslow_rounds fast_cycles speedup")
    for n in c_values:
        if not 1 <= n <= len(images):
            raise ValueError("thread count %d needs %d programs, have %d"
                             % (n, n, len(images)))
        result = sweep.compare(n)
        rows.append({
            "n_threads": n,
            "sequential_sum": result.sum,
            "cslow_rounds": result.max_rounds,
            "fast_cycles_total": result.fast_cycles,
            "speedup": float(result.speedup),
        })
        print("%9d %14d %12d %11d %7.3f"
              % (n, result.sum, result.max_rounds, result.fast_cycles,
                 float(result.speedup)))
    report = {"mode": mode.value, "seed": args.seed, "rows": rows}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_retime(args) -> int:
    if args.cslow is not None and args.pipeline is not None:
        raise ValueError("--cslow and --pipeline are mutually exclusive")
    with open(args.netlist) as fh:
        original = netlist.parse(fh.read())
    period_before = netlist.critical_path(original).period

    checks = []  # (kind, base, transformed, shift/factor)
    if args.pipeline is not None:
        final = retime.pipeline(original, args.pipeline)
        checks.append(("shifted", original, final, args.pipeline))
        c_factor = 1
    elif args.cslow is not None:
        c_factor = args.cslow
        slowed = retime.cslow_transform(original, c_factor)
        result = retime.min_period_retime(slowed)
        final = retime.apply_retiming(slowed, result.retiming)
        checks.append(("interleaved", original, slowed, c_factor))
        checks.append(("same", slowed, final, 0))
    else:
        c_factor = 1
        result = retime.min_period_retime(original)
        final = retime.apply_retiming(original, result.retiming)
        checks.append(("same", original, final, 0))

    period_after = netlist.critical_path(final).period
    area = retime.area_report(original, final)

    verdict = None
    warmup = None
    if args.check:
        verdict = "PASS"
        for kind, base, transformed, extra in checks:
            if kind == "interleaved":
                rep = retime.check_cslow_equivalence(
                    base, transformed, extra, trials=args.check,
                    cycles=args.cycles, seed=args.seed)
            else:
                rep = retime.check_equivalence(
                    base, transformed, trials=args.check, cycles=args.cycles,
                    shift=extra if kind == "shifted" else 0, seed=args.seed)
            warmup = rep.warmup if warmup is None else max(warmup, rep.warmup)
            if not rep.passed:
                verdict = "FAIL"

    _print_json({
        "period_before": period_before,
        "period_after": period_after,
        "c": c_factor,
        "registers_before": area.registers_before,
        "registers_after": area.registers_after,
        "ratio": None if area.ratio is None else float(area.ratio),
        "equivalence": verdict,
        "warmup": warmup,
        "area": area.to_json(),
    })
    return EXIT_INTERNAL if verdict == "FAIL" else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cslowsim",
        description="Microcoded accumulator core, C-slow barrel execution, "
                    "and netlist retiming tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble a source program to a memory image")
    p.add_argument("source")
    p.add_argument("out")
    p.add_argument("--origin", type=lambda s: int(s, 0), default=0)
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("run", help="run one image on the baseline core")
    p.add_argument("image")
    p.add_argument("--max-cycles", type=int, default=100_000)
    p.add_argument("--trace", help="write a cycle trace to this file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("run-cslow", help="run a C-slow machine")
    p.add_argument("images", nargs="*", help="memory image files, one per thread")
    p.add_argument("--bundle", help="cslow-bundle file instead of image files")
    p.add_argument("--c", type=int, help="thread count (default: image count)")
    p.add_argument("--mode", choices=[m.value for m in cslow.MemoryMode])
    p.add_argument("--max-cycles", type=int, default=1_000_000,
                   help="fast-cycle budget")
    p.add_argument("--trace", help="trace file (C=1) or prefix for per-thread files")
    p.set_defaults(func=cmd_run_cslow)

    p = sub.add_parser("bench", help="sequential-sum vs C-slow-rounds sweep")
    p.add_argument("programs", nargs="*", help="assembly source files")
    p.add_argument("--c-values", help="comma-separated thread counts (default 1..N)")
    p.add_argument("--mode", choices=[m.value for m in cslow.MemoryMode],
                   default="private")
    p.add_argument("--max-cycles", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", help="write the machine-readable report here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("retime", help="C-slow / pipeline / min-period retime a netlist")
    p.add_argument("netlist")
    p.add_argument("--cslow", type=int, metavar="C",
                   help="multiply every register C times before retiming")
    p.add_argument("--pipeline", type=int, metavar="K",
                   help="insert K input register ranks (feed-forward only)")
    p.add_argument("--check", type=int, metavar="TRIALS",
                   help="simulation equivalence check with this many trials")
    p.add_argument("--cycles", type=int, default=256,
                   help="cycles per equivalence trial")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_retime)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    try:
        return args.func(args)
    except microcode.CycleLimitExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CYCLE_LIMIT
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
