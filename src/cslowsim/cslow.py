"""C-slow barrel execution: C replicated cores sharing one datapath.

A hardware thread counter selects the active register group each fast-clock
tick, strictly round-robin (thread = tick mod C, no skipping).  Memory comes
in three sharing classes:

  private  each thread owns a full 256-word image
  shared   one 256-word image visible to every thread
  tagged   one physical store of C*256 words; thread t's access to `addr`
           lands in cell t*256 + addr.  Addresses are 8-bit, so the
           partitions never overlap: it runs as per-thread copies, exactly
           like private memory.

Halted threads stay in the schedule and burn their slots on the halt
self-loop; those slots are the vertical waste reported in RunMetrics.

With private or tagged memory the threads never interact, so a run is C
independent single-core runs laid out on the fixed schedule: thread t takes
its k-th micro-step on fast cycle (k-1)*C + t, and one that halts after h_t
steps enters the halt row on fast cycle (h_t-1)*C + t.

Shared memory comes to the same thing, because three conditions hold: it
takes one image or C identical ones, every thread starts from reset, and no
control-store row both reads and writes memory.  Then thread t's k-th step
repeats thread 0's k-th step (induction on k and t).  The two start from the
same registers, and between them only threads 1..t-1 step, each repeating
that same step.  A row that reads memory writes none, so thread t reads the
store thread 0 read; a row that writes stores a register at a register
address, so thread t stores what thread 0 stored.  Every write thread 0 did
not make repeats one it did, so the store is always thread 0's memory run
alone.  The C threads run one program in lock-step, each on a copy of the
image as in private mode, and thread 0's copy, the one furthest ahead, is
the shared store, also when a cycle limit stops the run.

So in every mode, threads that start from equal images run once: they run
one program in lock-step, and in shared mode their group's memory, the
first thread's, is the one store.  `run_all` runs the first thread of each
group to its halt, or to its last slot under the limit, on its own memory
through `microcode.advance`: untraced, whole instructions at a time in the
generated instruction loop; traced, one row per step, logged.  A limit gives
the threads budgets that differ by at most one step, and each thread of the
group takes the first one's state, memory and log after its own budget: a
thread that halted shares them, the very log list included, and one stopped
a step behind gets copies from one step earlier.  The reference it is
tested against, in `tests/test_cslow.py`, steps C cores round-robin, one row
per fast cycle, over one store per thread (shared memory: one store for all).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .isa import MEMORY_SIZE, MemoryImage
from .microcode import CoreState, CycleLimitExceeded, advance, run

MAX_THREADS = 8
DEFAULT_MAX_FAST_CYCLES = 1_000_000


class BadThreadCount(Exception):
    pass


class ImageMismatch(Exception):
    pass


class MemoryMode(Enum):
    PRIVATE = "private"
    SHARED = "shared"
    TAGGED = "tagged"


@dataclass
class CslowConfig:
    c: int
    mode: MemoryMode = MemoryMode.PRIVATE
    max_fast_cycles: int = DEFAULT_MAX_FAST_CYCLES


@dataclass
class RunMetrics:
    per_thread_cycles: list
    rounds: int
    fast_cycles_total: int
    occupancy: Fraction
    vertical_waste: Fraction


def _thread_images(c: int, mode: MemoryMode, images) -> list:
    """The images the stores of `c` threads start from (no copies made), one
    per thread; in shared mode the one image, `c` times.  Raises
    BadThreadCount / ImageMismatch for a thread count or image list the
    machine does not take."""
    if not 1 <= c <= MAX_THREADS:
        raise BadThreadCount("thread count %r outside [1, %d]" % (c, MAX_THREADS))
    images = list(images)
    if mode is MemoryMode.SHARED:
        if len(images) not in (1, c):
            raise BadThreadCount(
                "shared mode takes 1 image or %d identical, got %d" % (c, len(images)))
        for i, img in enumerate(images[1:], start=1):
            if img.cells != images[0].cells:
                raise ImageMismatch(
                    "shared memory needs one image; image %d differs from image 0" % i)
        return images[:1] * c
    if len(images) != c:
        raise BadThreadCount("expected %d images, got %d" % (c, len(images)))
    return images


class CslowMachine:
    """C replicated CoreStates on the round-robin schedule, each on its own
    copy of its image; threads that start from equal images run once."""

    def __init__(self, config: CslowConfig, images):
        images = _thread_images(config.c, config.mode, images)
        self._memories = [img.copy() for img in images]
        self._initial = [img.copy() for img in images]
        self._shared = config.mode is MemoryMode.SHARED
        self.config = config
        self.c = config.c
        self.contexts = [CoreState() for _ in range(self.c)]
        self.fast_cycles = 0
        self.halt_cycle = [None] * self.c
        self.traces = None

    def thread_memory(self, thread) -> MemoryImage:
        """Snapshot of the memory as thread `thread` sees it (shared mode:
        the one store, thread 0's)."""
        return self._memories[0 if self._shared else thread].copy()

    def initial_image(self, thread) -> MemoryImage:
        return self._initial[thread]

    def run_all(self, trace: bool = False) -> RunMetrics:
        """Run from reset until every thread has halted; stops at the fast
        cycle that halts the last one, in the state the round-robin
        schedule reaches there.  With `trace`, `traces[t]` logs thread t's
        state before each of its slots.

        Each group of threads with equal starting images runs once
        (`_run_group`), for the slots the schedule gives it within the
        limit; then every thread that halted sits on the halt row, its
        traces padded, up to the end of the run.  Raises
        CycleLimitExceeded, naming the threads still running and carrying
        their states, when that takes more than `max_fast_cycles` fast
        cycles, and ValueError on a machine that has already run.
        """
        if self.fast_cycles:
            raise ValueError("run_all runs a machine once, from reset")
        c = self.c
        limit = self.config.max_fast_cycles
        budgets = [slots(limit, t, c) for t in range(c)]
        groups = {}
        for t, memory in enumerate(self._memories):
            groups.setdefault(bytes(memory.cells), []).append(t)
        logs = [None] * c
        for threads in groups.values():
            self._run_group(threads, budgets, trace, logs)
        if trace:
            self.traces = logs
        stuck = []
        for t, ctx in enumerate(self.contexts):
            if ctx.halted:
                self.halt_cycle[t] = ctx.cycles
            else:
                stuck.append(t)
        if stuck:  # the schedule stops at the limit, or at once below 1
            total = max(limit, 0)
        else:
            total = independent_metrics(self.halt_cycle).fast_cycles_total
        # Halted threads keep their slots, on the halt row, until the end;
        # a padded log is the thread's own, no longer its group's.
        for t, ctx in enumerate(self.contexts):
            end = slots(total, t, c)
            if logs[t] is not None and ctx.cycles < end:
                snap = ctx.snapshot()[1:]
                logs[t] = logs[t] + [(k,) + snap for k in range(ctx.cycles, end)]
            ctx.cycles = end
        self.fast_cycles = total
        if stuck:
            raise CycleLimitExceeded(
                "threads %s not halted within %d fast cycles" % (stuck, limit),
                state=[self.contexts[t] for t in stuck], threads=stuck)
        return self.metrics()

    def _run_group(self, threads, budgets, trace, logs) -> None:
        """Run the first of `threads` on its memory, and give every one its
        state, memory and log (into `logs`; None untraced) after its budget
        of steps.  Budgets fall with t by at most one step in all."""
        lead = self.contexts[threads[0]]
        memory = self._memories[threads[0]]
        high, low = budgets[threads[0]], budgets[threads[-1]]
        log = [] if trace else None
        advance(lead, memory.cells, low, log)
        behind, behind_memory, behind_log = copy.copy(lead), memory, log
        if not lead.halted and high > low:
            behind_memory = memory.copy()
            if log is not None:
                behind_log = log[:]
            advance(lead, memory.cells, high, log)
        for t in threads:
            ahead = budgets[t] == high
            if t != threads[0]:
                self.contexts[t] = copy.copy(lead if ahead else behind)
            self._memories[t] = memory if ahead else behind_memory
            logs[t] = log if ahead else behind_log

    def metrics(self) -> RunMetrics:
        if any(h is None for h in self.halt_cycle):
            raise ValueError("metrics requested before all threads halted")
        return _metrics(self.halt_cycle, self.fast_cycles)


def slots(fast_cycles: int, thread: int, c: int) -> int:
    """Micro-steps thread `thread` of C takes in the first `fast_cycles`
    fast cycles: one on each of cycles thread, thread + C, thread + 2C, ..."""
    return max(0, (fast_cycles - thread - 1) // c + 1)


def independent_metrics(per_thread_cycles) -> RunMetrics:
    """The closed form of a run whose C threads never interact: thread t,
    halting after per_thread_cycles[t] micro-steps of its own, enters the
    halt row on fast cycle (h_t - 1)*C + t, and the run ends after the
    last of those."""
    c = len(per_thread_cycles)
    total = max((h - 1) * c + t for t, h in enumerate(per_thread_cycles)) + 1
    return _metrics(per_thread_cycles, total)


def _metrics(per_thread_cycles, total) -> RunMetrics:
    per_thread = list(per_thread_cycles)
    busy = sum(per_thread)
    return RunMetrics(
        per_thread_cycles=per_thread,
        rounds=max(per_thread),
        fast_cycles_total=total,
        occupancy=Fraction(busy, total),
        vertical_waste=Fraction(total - busy, total),
    )


def sequential_baseline(images, max_cycles: int = DEFAULT_MAX_FAST_CYCLES) -> int:
    """Total cycles to run the images one after another on the plain core."""
    return sum(run(img, max_cycles).cycles for img in images)


def sequential_cycles(machine: CslowMachine, images) -> int:
    """`sequential_baseline` of the images `machine` was built from, after
    `run_all`.  Thread t's cycles are image t's run on the plain core (in
    shared mode every thread runs the one image), so the sum over the images
    given is h for one shared image and C*h for C identical ones."""
    return sum(machine.metrics().per_thread_cycles[:len(images)])


@dataclass
class CompareResult:
    sum: int
    max_rounds: int
    fast_cycles: int
    speedup: Fraction


def _compare_result(seq: int, metrics: RunMetrics) -> CompareResult:
    return CompareResult(
        sum=seq,
        max_rounds=metrics.rounds,
        fast_cycles=metrics.fast_cycles_total,
        speedup=Fraction(seq, metrics.rounds),
    )


def compare(images, c: int, mode: MemoryMode = MemoryMode.PRIVATE,
            max_cycles: int = DEFAULT_MAX_FAST_CYCLES) -> CompareResult:
    """Sequential-sum vs interleaved-rounds comparison for one thread count."""
    machine = CslowMachine(CslowConfig(c, mode, max_cycles), images)
    metrics = machine.run_all()
    return _compare_result(sequential_cycles(machine, images), metrics)


class Sweep:
    """`compare` on the first C images, for one thread count C after another.

    Each distinct starting image runs at most once, on the plain core within
    the whole `max_cycles`, when the first row with a thread on it comes up,
    and every row is the closed form of those runs (in shared mode every
    thread starts from the one image).  A row with a thread over its budget
    runs `compare`.
    """

    def __init__(self, images, mode: MemoryMode = MemoryMode.PRIVATE,
                 max_cycles: int = DEFAULT_MAX_FAST_CYCLES):
        self.images = list(images)
        self.mode = mode
        self.max_cycles = max_cycles
        # An image's cells -> its cycles to halt; None: not within max_cycles.
        self._halts = {}

    def compare(self, c: int) -> CompareResult:
        row = self.images[:c]
        cycles = []
        for image in _thread_images(c, self.mode, row):
            key = bytes(image.cells)
            if key not in self._halts:
                self._halts[key] = _cycles_to_halt(image, self.max_cycles)
            cycles.append(self._halts[key])
        budgets = [slots(self.max_cycles, t, c) for t in range(c)]
        if all(h is not None and h <= b for h, b in zip(cycles, budgets)):
            return _compare_result(sum(cycles[:len(row)]), independent_metrics(cycles))
        # A thread over its budget: the machine raises with its state.
        return compare(row, c, self.mode, self.max_cycles)


def _cycles_to_halt(image: MemoryImage, budget: int):
    """The image's cycles on the plain core; None past `budget` cycles."""
    if budget > 0:
        try:
            return run(image, budget).cycles
        except CycleLimitExceeded:
            pass
    return None


def machine_report(machine: CslowMachine, sequential_sum: int) -> dict:
    """The run-report document (shared by `run` and `run-cslow`)."""
    metrics = machine.metrics()
    threads = []
    for t in range(machine.c):
        initial = machine.initial_image(t)
        final = machine.thread_memory(t)
        diff = {
            "0x%02x" % addr: [initial.cells[addr], final.cells[addr]]
            for addr in range(MEMORY_SIZE)
            if initial.cells[addr] != final.cells[addr]
        }
        ctx = machine.contexts[t]
        threads.append({
            "halted": ctx.halted,
            "cycles": metrics.per_thread_cycles[t],
            "registers": ctx.registers(),
            "memory_diff": diff,
        })
    return {
        "c": machine.c,
        "mode": machine.config.mode.value,
        "cycles": metrics.rounds,
        "per_thread_cycles": metrics.per_thread_cycles,
        "rounds": metrics.rounds,
        "fast_cycles_total": metrics.fast_cycles_total,
        "occupancy": float(metrics.occupancy),
        "vertical_waste": float(metrics.vertical_waste),
        "sequential_sum": sequential_sum,
        "speedup": float(Fraction(sequential_sum, metrics.rounds)),
        "threads": threads,
    }


BUNDLE_MAGIC = "cslow-bundle"


def write_bundle(path, images, mode: MemoryMode) -> None:
    """Multi-image bundle: header line, then one memory image per thread."""
    with open(path, "w") as fh:
        fh.write("%s C=%d mode=%s\n" % (BUNDLE_MAGIC, len(images), mode.value))
        for img in images:
            fh.write(img.to_text())


def read_bundle(path):
    """Returns (c, mode, images)."""
    with open(path) as fh:
        header = fh.readline().strip()
        body = fh.read()
    fields = header.split()
    if len(fields) != 3 or fields[0] != BUNDLE_MAGIC:
        raise ValueError("not a cslow-bundle file: %r" % header)
    try:
        c = int(fields[1].removeprefix("C="))
        mode = MemoryMode(fields[2].removeprefix("mode="))
    except ValueError:
        raise ValueError("bad bundle header: %r" % header) from None
    tokens = body.split()
    if len(tokens) != c * MEMORY_SIZE:
        raise ValueError("bundle body holds %d bytes, expected %d"
                         % (len(tokens), c * MEMORY_SIZE))
    images = []
    for t in range(c):
        chunk = " ".join(tokens[t * MEMORY_SIZE:(t + 1) * MEMORY_SIZE])
        images.append(MemoryImage.from_text(chunk))
    return c, mode, images
