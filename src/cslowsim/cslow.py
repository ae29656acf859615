"""C-slow barrel execution: C replicated cores sharing one datapath.

A hardware thread counter selects the active register group each fast-clock
tick, strictly round-robin (thread = tick mod C, no skipping).  Memory comes
in three sharing classes:

  private  each thread owns a full 256-word image
  shared   one 256-word image visible to every thread
  tagged   one physical store of C*256 words; thread t's access to `addr`
           lands in cell t*256 + addr (address-space partitioning by
           thread id)

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

So `run_all` runs each thread to its halt, or to its last slot under the
limit, on its own memory through `microcode.advance`: untraced, whole
instructions at a time in the generated instruction loop; traced, one row
per step, logged.  `tick` is the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .isa import MEMORY_SIZE, MemoryImage
from .microcode import (
    HALT_SEQ,
    CoreState,
    CycleLimitExceeded,
    _STEP_TABLE,
    advance,
    run,
)

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


class TaggedMemory:
    """One physical store of C*256 bytes, partitioned by thread id."""

    def __init__(self, c):
        self.c = c
        self.store = bytearray(c * MEMORY_SIZE)

    def install(self, thread, image):
        base = thread * MEMORY_SIZE
        self.store[base:base + MEMORY_SIZE] = image.cells

    def view(self, thread):
        base = thread * MEMORY_SIZE
        return memoryview(self.store)[base:base + MEMORY_SIZE]

    def image(self, thread) -> MemoryImage:
        base = thread * MEMORY_SIZE
        return MemoryImage(self.store[base:base + MEMORY_SIZE])


class CslowMachine:
    """C replicated CoreStates advanced round-robin over a shared datapath."""

    def __init__(self, config: CslowConfig, images):
        c = config.c
        if not 1 <= c <= MAX_THREADS:
            raise BadThreadCount("thread count %r outside [1, %d]" % (c, MAX_THREADS))
        images = list(images)

        if config.mode is MemoryMode.SHARED:
            if len(images) not in (1, c):
                raise BadThreadCount(
                    "shared mode takes 1 image or %d identical, got %d" % (c, len(images)))
            for i, img in enumerate(images[1:], start=1):
                if img.cells != images[0].cells:
                    raise ImageMismatch(
                        "shared memory needs one image; image %d differs from image 0" % i)
            images = images[:1] * c  # lock-step copies: see the module docstring
        if len(images) != c:
            raise BadThreadCount("expected %d images, got %d" % (c, len(images)))
        if config.mode is MemoryMode.TAGGED:
            tagged = TaggedMemory(c)
            for t, img in enumerate(images):
                tagged.install(t, img)
            self._memories = [tagged]
            self._views = [tagged.view(t) for t in range(c)]
        else:
            copies = [img.copy() for img in images]
            self._memories = copies
            self._views = [m.cells for m in copies]
        self._initial = [img.copy() for img in images]

        self.config = config
        self.c = c
        self.contexts = [CoreState() for _ in range(c)]
        self.fast_cycles = 0
        self.halt_cycle = [None] * c
        self.traces = None

    @property
    def thread_counter(self):
        return self.fast_cycles % self.c

    def enable_tracing(self):
        self.traces = [[] for _ in range(self.c)]

    def thread_memory(self, thread) -> MemoryImage:
        """Snapshot of the memory as thread `thread` sees it.  The shared
        store is thread 0's copy, the one furthest ahead."""
        if self.config.mode is MemoryMode.TAGGED:
            return self._memories[0].image(thread)
        if self.config.mode is MemoryMode.SHARED:
            thread = 0
        return self._memories[thread].copy()

    def initial_image(self, thread) -> MemoryImage:
        return self._initial[thread]

    def tick(self):
        """Advance one fast-clock cycle: exactly one micro-step of the
        scheduled thread (the halt row when it has already halted)."""
        t = self.fast_cycles % self.c
        ctx = self.contexts[t]
        if self.traces is not None:
            self.traces[t].append(ctx.snapshot())
        _STEP_TABLE[ctx.micro_pc](ctx, self._views[t])
        if ctx.micro_pc == HALT_SEQ and self.halt_cycle[t] is None:
            self.halt_cycle[t] = ctx.cycles
        self.fast_cycles += 1

    def run_all(self, trace: bool = False) -> RunMetrics:
        """Run from reset until every thread has halted; stops at the fast
        cycle that halts the last one, in the state `tick` would reach there.

        Each thread runs alone on its memory for the slots the schedule
        gives it within the limit; then every thread that halted sits on the
        halt row, its traces padded, up to the end of the run.  Raises
        CycleLimitExceeded, naming the threads still running and carrying
        their states, when that takes more than `max_fast_cycles` fast
        cycles, and ValueError on a machine already advanced by `tick`.
        """
        if self.fast_cycles:
            raise ValueError("run_all needs a machine at reset")
        if trace and self.traces is None:
            self.enable_tracing()
        c = self.c
        limit = self.config.max_fast_cycles
        logs = self.traces or [None] * c
        stuck = []
        for t, ctx in enumerate(self.contexts):
            if advance(ctx, self._views[t], slots(limit, t, c), logs[t]):
                self.halt_cycle[t] = ctx.cycles
            else:
                stuck.append(t)
        if stuck:  # ticking stops at the limit, or at once below 1
            total = max(limit, 0)
        else:
            total = independent_metrics(self.halt_cycle).fast_cycles_total
        # Halted threads keep their slots, on the halt row, until the end.
        for t, (ctx, log) in enumerate(zip(self.contexts, logs)):
            end = slots(total, t, c)
            if log is not None:
                snap = ctx.snapshot()[1:]
                log.extend((k,) + snap for k in range(ctx.cycles, end))
            ctx.cycles = end
        self.fast_cycles = total
        if stuck:
            raise CycleLimitExceeded(
                "threads %s not halted within %d fast cycles" % (stuck, limit),
                state=[self.contexts[t] for t in stuck], threads=stuck)
        return self.metrics()

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

    In private and tagged mode each image runs at most once, on the plain
    core, when the first row that needs it comes up, and every row is the
    closed form of those runs.
    """

    def __init__(self, images, mode: MemoryMode = MemoryMode.PRIVATE,
                 max_cycles: int = DEFAULT_MAX_FAST_CYCLES):
        self.images = list(images)
        self.mode = mode
        self.max_cycles = max_cycles
        self._halts = []  # image t's cycles to halt; None: not within its budget

    def compare(self, c: int) -> CompareResult:
        row = self.images[:c]
        if self.mode is not MemoryMode.SHARED and 1 <= c <= MAX_THREADS and len(row) == c:
            budgets = [slots(self.max_cycles, t, c) for t in range(c)]
            for t in range(len(self._halts), c):
                self._halts.append(_cycles_to_halt(row[t], budgets[t]))
            cycles = self._halts[:c]
            if all(h is not None and h <= b for h, b in zip(cycles, budgets)):
                return _compare_result(sum(cycles), independent_metrics(cycles))
        # Shared memory, a bad thread count or a thread over its budget: the
        # machine gives the row, or raises with the stuck threads' states.
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
