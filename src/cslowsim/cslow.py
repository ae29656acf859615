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
through `microcode.advance`, whole instructions at a time in the generated
instruction loop.  A limit gives the threads budgets that differ by at most
one step, and each thread of the group takes the first one's state and
memory after its own budget: a thread that halted shares the memory, and
one stopped a step behind gets copies from one step earlier.

Traces are files, not logs, and only a run that halted writes them.  The
groups run untraced first; once every thread has halted, each group makes
one traced pass from reset on a copy of its starting cells up to the known
halt cycle (`microcode.write_trace`), writing each chunk to the files of
every thread in the group, and then each file gets its own halt-row lines.
A run that stops at its limit raises CycleLimitExceeded before any file is
opened, and every path is opened without truncation before any is written,
so a limit or a path that cannot be opened leaves existing files at the
trace paths as they were.  The reference `run_all` is tested against, in
`tests/test_cslow.py`, steps C cores round-robin, one row per fast cycle,
over one store per thread (shared memory: one store for all), keeping a
snapshot per step.

`compare`, one row of `cslowsim bench`, needs only the threads' cycles to
halt, so it is the closed form of plain-core runs (`microcode.run`), one
per distinct starting image, each within the budget of its first thread;
a dict of cycles to halt shared by the rows of a sweep runs each image
once in all.  Only a thread over its budget builds the machine, whose
`run_all` raises CycleLimitExceeded with the threads and their states.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import microcode
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

    def thread_memory(self, thread) -> MemoryImage:
        """Snapshot of the memory as thread `thread` sees it (shared mode:
        the one store, thread 0's)."""
        return self._memories[0 if self._shared else thread].copy()

    def initial_image(self, thread) -> MemoryImage:
        return self._initial[thread]

    def run_all(self, trace_paths=None) -> RunMetrics:
        """Run from reset until every thread has halted; stops at the fast
        cycle that halts the last one, in the state the round-robin
        schedule reaches there.  With `trace_paths`, one path per thread,
        thread t's trace, its state before each of its slots, goes to the
        file `trace_paths[t]`.

        Each group of threads with equal starting images runs once
        (`_run_group`), untraced, for the slots the schedule gives it
        within the limit; then every thread that halted sits on the halt
        row up to the end of the run.  Traced, once every thread has
        halted, each group's run is made again from reset by
        `microcode.write_trace` into the files of all its threads, each
        padded with halt-row lines up to its thread's last slot.
        Raises CycleLimitExceeded, naming the threads still running and
        carrying their states, when that takes more than `max_fast_cycles`
        fast cycles; then no trace file is opened.  A trace path that cannot
        be opened raises OSError before any file is written.  Raises
        ValueError on a machine that has already run.
        """
        if self.fast_cycles:
            raise ValueError("run_all runs a machine once, from reset")
        c = self.c
        limit = self.config.max_fast_cycles
        budgets = [slots(limit, t, c) for t in range(c)]
        groups = {}
        for t, memory in enumerate(self._memories):
            groups.setdefault(bytes(memory.cells), []).append(t)
        for threads in groups.values():
            self._run_group(threads, budgets)
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
            if trace_paths:
                # Open them all before writing any: a path that cannot be
                # opened raises with every existing file as it was.
                for path in trace_paths[:c]:
                    open(path, "ab").close()
                for cells, threads in groups.items():
                    ends = {trace_paths[t]: slots(total, t, c) for t in threads}
                    microcode.write_trace(trace_paths[threads[0]], cells,
                                          self.contexts[threads[0]], ends)
        # Halted threads keep their slots, on the halt row, until the end.
        for t, ctx in enumerate(self.contexts):
            ctx.cycles = slots(total, t, c)
        self.fast_cycles = total
        if stuck:
            raise CycleLimitExceeded(
                "threads %s not halted within %d fast cycles" % (stuck, limit),
                state=[self.contexts[t] for t in stuck], threads=stuck)
        return self.metrics()

    def _run_group(self, threads, budgets) -> None:
        """Run the first of `threads` on its memory and give every one its
        state and memory after its budget of steps.  Budgets fall with t
        by at most one step in all: the first runs to the smallest, a
        copy of its state and memory is kept for the threads a step
        behind, and it runs on to the largest."""
        lead = self.contexts[threads[0]]
        memory = self._memories[threads[0]]
        high, low = budgets[threads[0]], budgets[threads[-1]]
        advance(lead, memory.cells, low)
        behind, behind_memory = copy.copy(lead), memory
        if not lead.halted and high > low:
            behind_memory = memory.copy()
            advance(lead, memory.cells, high)
        for t in threads:
            ahead = budgets[t] == high
            if t != threads[0]:
                self.contexts[t] = copy.copy(lead if ahead else behind)
            self._memories[t] = memory if ahead else behind_memory

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


def compare(images, c: int, mode: MemoryMode = MemoryMode.PRIVATE,
            max_cycles: int = DEFAULT_MAX_FAST_CYCLES, halts=None) -> CompareResult:
    """Sequential-sum vs interleaved-rounds comparison for the machine of
    `c` threads on `images`, as `run_all` has it.

    The threads never interact, so this is the closed form of plain-core
    runs: each distinct starting image runs once, within the budget of its
    first thread, the largest any thread on it has.  `halts` maps an
    image's cells to its cycles to halt; give one dict to every call of a
    sweep and an image runs at most once in all.  It holds only runs that
    halted.  A thread over its budget raises CycleLimitExceeded from the
    machine, with the threads and their states.
    """
    halts = {} if halts is None else halts
    budgets = [slots(max_cycles, t, c) for t in range(c)]
    cycles = []
    for image, budget in zip(_thread_images(c, mode, images), budgets):
        key = bytes(image.cells)
        if key not in halts and budget > 0:
            try:
                halts[key] = run(image, budget).cycles
            except CycleLimitExceeded:
                pass
        h = halts.get(key)
        if h is None or h > budget:
            CslowMachine(CslowConfig(c, mode, max_cycles), images).run_all()
            raise AssertionError("thread %d ran past its budget of %d steps, "
                                 "yet the machine halted" % (len(cycles), budget))
        cycles.append(h)
    seq = sum(cycles[:len(images)])
    metrics = independent_metrics(cycles)
    return CompareResult(
        sum=seq,
        max_rounds=metrics.rounds,
        fast_cycles=metrics.fast_cycles_total,
        speedup=Fraction(seq, metrics.rounds),
    )


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
