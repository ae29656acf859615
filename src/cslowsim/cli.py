"""Command-line front end.

Subcommands: asm, run, run-cslow, bench, retime.  Structured output is
JSON; all of it is byte-reproducible for fixed inputs and seed.  The
default seed is 0, overridable with the CSLOW_SEED environment variable or
a --seed flag.

Every file a command writes (the `asm` image, the `bench --json` report,
the `--trace` files) goes through `microcode.overwrite`: an existing file
is written in place and cut to its new length, which ends the same as
truncating it first, minus the writeback ext4 starts when a file truncated
to zero is closed.

Exit codes: 0 success, 1 input or usage error (bad arguments included),
2 simulation cycle limit exceeded, 3 internal invariant violation
(including a failed equivalence check, which a correct transformation
must never produce).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
    value = os.environ.get("CSLOW_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError("CSLOW_SEED must be an integer, got %r" % value) from None


def _print_json(doc):
    print(json.dumps(doc, indent=2))


def _load_image(path) -> isa.MemoryImage:
    with open(path) as fh:
        return isa.MemoryImage.from_text(fh.read())


def cmd_asm(args) -> int:
    with open(args.source) as fh:
        text = fh.read()
    assembly = isa.assemble_program(text, origin=args.origin)
    with microcode.overwrite(args.out, "w") as fh:
        fh.write(assembly.image.to_text())
    for entry in assembly.listing:
        addr = "    " if entry.address is None else "%02x: " % entry.address
        words = " ".join("%02x" % w for w in entry.words)
        print("%s%-6s %s" % (addr, words, entry.source.rstrip()))
    return EXIT_OK


def _print_run(config, images, trace_paths):
    machine = cslow.CslowMachine(config, images)
    _print_json(cslow.machine_report(machine, machine.run_all(trace_paths)))


def cmd_run(args) -> int:
    image = _load_image(args.image)
    config = cslow.CslowConfig(1, cslow.MemoryMode.PRIVATE, args.max_cycles)
    _print_run(config, [image], [args.trace] if args.trace else None)
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
    _print_run(config, images, trace_paths)
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
    for n in c_values:
        if not 1 <= n <= len(images):
            raise ValueError("thread count %d is outside [1, %d]: one program "
                             "per thread" % (n, len(images)))
    mode = cslow.MemoryMode(args.mode)

    memo = {}  # one run per distinct image over all rows
    rows = []
    for n in c_values:
        result = cslow.compare(images[:n], n, mode, args.max_cycles, memo)
        rows.append({
            "n_threads": n,
            "sequential_sum": result.sequential_sum,
            "cslow_rounds": result.rounds,
            "fast_cycles_total": result.fast_cycles_total,
            "speedup": float(result.speedup),
        })
    # Every row has run before any is printed: a row that fails leaves no table.
    print("n_threads sequential_sum cslow_rounds fast_cycles speedup")
    for row in rows:
        print("%9d %14d %12d %11d %7.3f" % tuple(row.values()))
    report = {"mode": mode.value, "seed": args.seed, "rows": rows}
    if args.json:
        with microcode.overwrite(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_retime(args) -> int:
    if args.cslow is not None and args.pipeline is not None:
        raise ValueError("--cslow and --pipeline are mutually exclusive")
    with open(args.netlist) as fh:
        original = netlist.parse(fh.read())

    c_factor = 1 if args.cslow is None else args.cslow
    if args.pipeline is not None:
        result = retime.pipeline(original, args.pipeline)
        check = {"shift": args.pipeline}
    else:
        slowed = retime.cslow_transform(original, c_factor)
        result = retime.min_period_retime(slowed)  # checked to meet its period
        # C-slow is exact from cycle 0, so only the retiming needs a
        # warm-up; final is checked against the original itself.
        check = {"factor": c_factor, "warmup": retime.flush_warmup(slowed, result.netlist)}
    # C-slow multiplies every weight by C >= 1, and pipelining stages only
    # wires out of inputs, so either way the retimer's `period_before` is
    # the original's period.
    final = result.netlist

    area = retime.area_report(original, final)

    verdict = warmup = None
    if args.check is not None:
        report = retime.check_equivalence(original, final, trials=args.check,
                                          cycles=args.cycles, seed=args.seed, **check)
        verdict, warmup = report.verdict, report.warmup

    _print_json({
        "period_before": result.period_before,
        "period_after": result.period,
        "c": c_factor,
        "registers_before": area.registers_before,
        "registers_after": area.registers_after,
        "ratio": None if area.ratio is None else float(area.ratio),
        "equivalence": verdict,
        "warmup": warmup,
        "area": area.to_json(),
    })
    return EXIT_INTERNAL if verdict == "FAIL" else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_USAGE on an argument error; argparse's 2 means a cycle limit here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def address(text) -> int:
    return int(text, 0)  # 10, 0x10, 0o20, ...


def cycle_limit(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _asm_arguments(p):
    p.add_argument("source")
    p.add_argument("out")
    p.add_argument("--origin", type=address, default=0)


def _run_arguments(p):
    p.add_argument("image")
    p.add_argument("--max-cycles", type=cycle_limit, default=100_000)
    p.add_argument("--trace", help="write a cycle trace to this file")


def _run_cslow_arguments(p):
    p.add_argument("images", nargs="*", help="memory image files, one per thread")
    p.add_argument("--bundle", help="cslow-bundle file instead of image files")
    p.add_argument("--c", type=int, help="thread count (default: image count)")
    p.add_argument("--mode", choices=[m.value for m in cslow.MemoryMode])
    p.add_argument("--max-cycles", type=cycle_limit, default=1_000_000,
                   help="fast-cycle budget")
    p.add_argument("--trace", help="trace file (C=1) or prefix for per-thread files")


def _bench_arguments(p):
    p.add_argument("programs", nargs="*", help="assembly source files")
    p.add_argument("--c-values", help="comma-separated thread counts (default 1..N)")
    p.add_argument("--mode", choices=[m.value for m in cslow.MemoryMode],
                   default="private")
    p.add_argument("--max-cycles", type=cycle_limit, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", help="write the machine-readable report here")


def _retime_arguments(p):
    p.add_argument("netlist")
    p.add_argument("--cslow", type=int, metavar="C",
                   help="multiply every register C times before retiming "
                        "(default 1: retime only)")
    p.add_argument("--pipeline", type=int, metavar="K",
                   help="insert K input register ranks (feed-forward only)")
    p.add_argument("--check", type=int, metavar="TRIALS",
                   help="simulation equivalence check with this many trials")
    p.add_argument("--cycles", type=int,
                   help="cycles per equivalence trial, on the final netlist's "
                        "clock (default: warm-up, plus pipeline shift, plus 256 "
                        "compared cycles)")
    p.add_argument("--seed", type=int, default=None)


# name -> (help, handler, the function adding its arguments)
COMMANDS = {
    "asm": ("assemble a source program to a memory image", cmd_asm, _asm_arguments),
    "run": ("run one image on the baseline core", cmd_run, _run_arguments),
    "run-cslow": ("run a C-slow machine", cmd_run_cslow, _run_cslow_arguments),
    "bench": ("sequential-sum vs C-slow-rounds sweep", cmd_bench, _bench_arguments),
    "retime": ("C-slow / pipeline / min-period retime a netlist", cmd_retime,
               _retime_arguments),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with a `command` of `COMMANDS`,
    one where only that subcommand has its arguments.  The others keep
    their names and help, and argparse parses a subcommand's arguments
    with that subcommand's parser alone, so a command line that starts
    with `command` parses, prints and fails the same either way."""
    parser = _Parser(
        prog="cslowsim",
        description="Microcoded accumulator core, C-slow barrel execution, "
                    "and netlist retiming tools")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command in (None, name):
            arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A call pays only for its own subcommand's arguments.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
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
