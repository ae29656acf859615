"""Regenerate `pins.json`: the outputs the benchmark's oracles pin per seed.

    python3 bench/pin.py [FIRST LAST]     (default: seeds 0..99)

Pins record what the package prints today for the benchmark's generated
inputs: the shared-memory run's cycle count, report digest and trace digest,
and each retime invocation's period and register count.  They guard the
byte-identical-output contract; regenerate them only when a change to the
outputs is intended, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def workload(name, seed, tmp):
    generate, prepare = run.WORKLOADS[name]
    return prepare(seed, tmp, generate(seed, tmp), {})


def pin_seed(modules, seed, tmp):
    cli = modules["cli"]
    (shared,) = workload("barrel-shared-trace", seed, tmp)
    code, stdout, _ = run.invoke(cli, shared.argv)
    if code != 0:
        raise SystemExit("seed %d: run-cslow exited %d" % (seed, code))
    prefix = shared.argv[shared.argv.index("--trace") + 1]
    with open(prefix + ".t0.trc", "rb") as fh:
        trace = fh.read()
    report = json.loads(stdout)
    shared_pin = {"cycles": report["cycles"], "report_sha256": run.sha256(stdout.encode()),
                  "trace_sha256": run.sha256(trace)}

    retime_pin = {}
    for inv in workload("retime", seed, tmp):
        # Period and register count do not depend on the equivalence check.
        argv = inv.argv[:inv.argv.index("--check")] if "--check" in inv.argv else inv.argv
        code, stdout, _ = run.invoke(cli, argv)
        if code != 0:
            raise SystemExit("seed %d: retime %s exited %d" % (seed, inv.name, code))
        report = json.loads(stdout)
        retime_pin[inv.name] = {"period_after": report["period_after"],
                                "registers_after": report["registers_after"]}
    return shared_pin, retime_pin


def main(argv):
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 99)
    sys.path.insert(0, run.SRC)
    modules = run.import_package()
    pins = {"barrel-shared-trace": {}, "retime": {}}
    tmp = run.scratch_dir()
    try:
        for seed in range(first, last + 1):
            shared_pin, retime_pin = pin_seed(modules, seed, tmp)
            pins["barrel-shared-trace"][str(seed)] = shared_pin
            pins["retime"][str(seed)] = retime_pin
            print("seed %d pinned" % seed, file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(run.HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
