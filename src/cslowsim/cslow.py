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
self-loop; those slots are the vertical waste reported in BarrelRun.

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
image as in private mode, and thread 0's copy is the shared store.

So in every mode, threads that start from equal images run once, and there
is one run path.  A `CslowMachine` describes a run: its config and the
images its threads start from.  `run_all` is the only code that runs
threads.  It runs each group of threads with equal starting cells once, on
one copy of the cells, through `microcode.advance`, whole instructions at a
time in the generated instruction loop, for the slots the schedule gives
the group's first thread within the limit.  A limit gives the threads
budgets that differ by at most one step in all, and each thread takes the
group's state and memory after its own budget.  A thread still running
after its budget makes `run_all` raise CycleLimitExceeded, the one place
that does, naming each stuck thread with its state, its pc and the
instruction it is in: the one at its pc until the Fetch rows have loaded
ir, then the one whose opcode ir holds.  Otherwise it returns a frozen
BarrelRun: the schedule's metrics, the sequential sum of the images given,
and each thread's state and memory as of its own halt.  A `memo`, one dict shared by the rows of a `bench`
sweep, maps starting cells to the state and memory of a run that halted;
a group whose entry halts within its smallest budget takes it, so each
distinct image runs once over the whole sweep, and a row whose groups all
hit copies nothing.

Traces are files, not logs, and only a run that halted writes them.  Once
every thread has halted, each group makes one traced pass from reset on a
copy of its starting cells up to the known halt cycle
(`microcode.write_trace`), writing each chunk to the files of every thread
in the group, and then each file gets its own halt-row lines up to its
thread's last slot.  A run that stops at its limit raises before any file
is opened, and every path is opened without truncation before any is
written, so a limit or a path that cannot be opened leaves existing files at
the trace paths as they were.  The reference `run_all` is tested against,
in `tests/test_cslow.py`, steps C cores round-robin, one row per fast
cycle, over one store per thread (shared memory: one store for all),
keeping a snapshot per step.

The benchmark's tracer (`bench/tracer.py`) wraps `run_all`, `compare`,
`machine_report`, `sequential_baseline` and `run` by name.  `compare`, one
`bench` row, is `run_all` with a memo; `sequential_baseline` and `run`
(imported here for it) have no other caller in the package.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import microcode
from .isa import MEMORY_SIZE, MemoryImage, decode, disassemble
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


@dataclass(frozen=True)
class BarrelRun:
    """A run in which every thread halted.  `states[t]` and `memories[t]`
    (cells) are thread t's as of its own halt, after `per_thread_cycles[t]`
    micro-steps; threads that start from equal cells share them.
    `sequential_sum` is the plain core's cycles over the images given: h
    for one shared image, C*h for C identical ones."""
    per_thread_cycles: tuple
    rounds: int
    fast_cycles_total: int
    occupancy: Fraction
    vertical_waste: Fraction
    sequential_sum: int
    speedup: Fraction
    states: tuple
    memories: tuple


def _thread_images(c: int, mode: MemoryMode, images: list) -> tuple:
    """The images the stores of `c` threads start from (no copies made), one
    per thread; in shared mode the one image, `c` times.  Raises
    BadThreadCount / ImageMismatch for a thread count or image list the
    machine does not take."""
    if not 1 <= c <= MAX_THREADS:
        raise BadThreadCount("thread count %r outside [1, %d]" % (c, MAX_THREADS))
    if mode is MemoryMode.SHARED:
        if len(images) not in (1, c):
            raise BadThreadCount(
                "shared mode takes 1 image or %d identical, got %d" % (c, len(images)))
        for i, img in enumerate(images[1:], start=1):
            if img.cells != images[0].cells:
                raise ImageMismatch(
                    "shared memory needs one image; image %d differs from image 0" % i)
        return tuple(images[:1] * c)
    if len(images) != c:
        raise BadThreadCount("expected %d images, got %d" % (c, len(images)))
    return tuple(images)


class CslowMachine:
    """A run of C threads on the round-robin schedule: its config, and in
    `images` the image each thread's store starts from.  It holds no run
    state; `run_all` runs it."""

    def __init__(self, config: CslowConfig, images):
        images = list(images)
        self.config = config
        self.images = _thread_images(config.c, config.mode, images)
        self._given = len(images)

    def run_all(self, trace_paths=None, memo=None) -> BarrelRun:
        """Run from reset until every thread has halted, and return the
        run.  With `trace_paths`, one path per thread, thread t's trace, its
        state before each of its slots up to the end of the run, goes to the
        file `trace_paths[t]`.

        Each group of threads with equal starting cells runs once
        (`_run_group`).  `memo`, if given, maps starting cells to the
        (state, memory) of a run that halted: a group takes its cells'
        entry if that halts within every budget of the group, and a group
        that runs and halts leaves its entry there.  Results and `memo`
        share those states and memories, so none may be changed.  Raises
        CycleLimitExceeded, naming the threads still running, their states
        and the instruction each one is in, when that takes more than
        `max_fast_cycles` fast cycles; then no trace file is opened.  A
        trace path that cannot be opened raises OSError before any file is
        written.
        """
        c, limit = self.config.c, self.config.max_fast_cycles
        budgets = [slots(limit, t, c) for t in range(c)]
        groups = {}
        for t, image in enumerate(self.images):
            groups.setdefault(bytes(image.cells), []).append(t)
        runs = [None] * c  # (state, memory) per thread
        for cells, threads in groups.items():
            high, low = budgets[threads[0]], budgets[threads[-1]]
            entry = None if memo is None else memo.get(cells)
            if entry is not None and entry[0].cycles <= low:
                ahead = behind = entry
            else:
                ahead, behind = _run_group(cells, low, high)
                if memo is not None and ahead[0].halted:
                    memo[cells] = ahead
            for t in threads:
                runs[t] = ahead if budgets[t] == high else behind
        states, memories = zip(*runs)
        stuck = [t for t, state in enumerate(states) if not state.halted]
        if stuck:
            message = "threads %s not halted within %d fast cycles" % (stuck, limit)
            for t in stuck:
                state = states[t]
                if state.micro_pc < microcode.DECODE:  # ir not loaded yet
                    word = disassemble(MemoryImage(memories[t]), state.pc, 2).split("\n")[0]
                else:
                    word = decode(state.ir)[0].value
                message += "; thread %d at pc 0x%02x: %s" % (t, state.pc, word)
            raise CycleLimitExceeded(message, state=[states[t] for t in stuck],
                                     threads=stuck)
        per_thread = tuple(state.cycles for state in states)
        total = max((h - 1) * c + t for t, h in enumerate(per_thread)) + 1
        if trace_paths:
            # Open them all, creating none but missing ones and truncating
            # none, before writing any: a path that cannot be opened raises
            # with every existing file as it was.  Then `write_trace` writes
            # each in place and cuts its old tail.
            for path in trace_paths[:c]:
                open(path, "ab").close()
            for cells, threads in groups.items():
                ends = {trace_paths[t]: slots(total, t, c) for t in threads}
                microcode.write_trace(trace_paths[threads[0]], cells,
                                      states[threads[0]], ends)
        busy = sum(per_thread)
        rounds = max(per_thread)
        sequential = sum(per_thread[:self._given])
        return BarrelRun(
            per_thread_cycles=per_thread,
            rounds=rounds,
            fast_cycles_total=total,
            occupancy=Fraction(busy, total),
            vertical_waste=Fraction(total - busy, total),
            sequential_sum=sequential,
            speedup=Fraction(sequential, rounds),
            states=states,
            memories=memories,
        )


def _run_group(cells, low, high):
    """The run of threads that start from `cells`, as (state, memory) after
    `high` micro-steps or at the halt, and after `low`: budgets fall with
    the thread by at most one step in all.  One run on one copy of the
    cells serves both unless it is still running after `low`; then a copy
    of its state and memory there is kept for the threads a step behind,
    which are stuck, and it runs on to `high`."""
    state, memory = CoreState(), bytearray(cells)
    advance(state, memory, low)
    if state.halted or high == low:
        return (state, memory), (state, memory)
    behind = (copy.copy(state), bytearray(memory))
    advance(state, memory, high)
    return (state, memory), behind


def slots(fast_cycles: int, thread: int, c: int) -> int:
    """Micro-steps thread `thread` of C takes in the first `fast_cycles`
    fast cycles: one on each of cycles thread, thread + C, thread + 2C, ..."""
    return max(0, (fast_cycles - thread - 1) // c + 1)


def sequential_baseline(images, max_cycles: int = DEFAULT_MAX_FAST_CYCLES) -> int:
    """Total cycles to run the images one after another on the plain core."""
    return sum(run(img, max_cycles).cycles for img in images)


def compare(images, c: int, mode: MemoryMode = MemoryMode.PRIVATE,
            max_cycles: int = DEFAULT_MAX_FAST_CYCLES, memo=None) -> BarrelRun:
    """One row of `cslowsim bench`: the run of `c` threads on `images`.
    Give one `memo` dict to every row of a sweep and each distinct image
    runs at most once in all."""
    return CslowMachine(CslowConfig(c, mode, max_cycles), images).run_all(memo=memo)


def machine_report(machine: CslowMachine, result: BarrelRun) -> dict:
    """The run-report document of `machine`'s run `result` (shared by `run`
    and `run-cslow`)."""
    threads = []
    for image, state, memory in zip(machine.images, result.states, result.memories):
        initial = image.cells
        diff = {
            "0x%02x" % addr: [initial[addr], memory[addr]]
            for addr in range(MEMORY_SIZE)
            if initial[addr] != memory[addr]
        }
        threads.append({
            "halted": state.halted,
            "cycles": state.cycles,
            "registers": state.registers(),
            "memory_diff": diff,
        })
    return {
        "c": machine.config.c,
        "mode": machine.config.mode.value,
        "cycles": result.rounds,
        "per_thread_cycles": result.per_thread_cycles,
        "rounds": result.rounds,
        "fast_cycles_total": result.fast_cycles_total,
        "occupancy": float(result.occupancy),
        "vertical_waste": float(result.vertical_waste),
        "sequential_sum": result.sequential_sum,
        "speedup": float(result.speedup),
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
