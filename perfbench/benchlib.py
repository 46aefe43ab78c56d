"""Shared helpers of the repository benchmark: statistics, digests, RSS,
shared-memory snapshots, set-up probes and child-process reaping.

Nothing here imports ``repro``: the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: ``/dev/shm`` on Linux; the leak checks are skipped where it is absent
SHM_DIR = Path("/dev/shm")

#: set-up is repeated this many times per run and reported as a median
SETUP_REPEATS = 3

#: Host-speed calibration.  On a shared host the machine's speed drifts
#: by up to a half within tens of seconds -- wall and CPU time alike, so
#: it is not steal -- and every timing of the program drifts with it.  A
#: fixed pure-Python loop that calls no repository code, timed between
#: the program's calls on as many CPUs as the workload keeps busy,
#: drifts the same way: scaled by it, the program's timings drift
#: several times less.  One loop run is noisy, so a run times it dozens
#: of times and takes the median.  The end-to-end timings are reported
#: *at reference speed*: as measured, times ``CAL_REF_S`` over the run's
#: median loop time (the loop runs on one CPU for ``offline`` and on
#: every CPU for ``serve`` and ``campaign``, so compare a workload only
#: with itself).
CAL_ITERATIONS = 150_000
CAL_REF_S = 0.010


@dataclass
class RunSpec:
    """What one invocation was asked to do."""

    root: Path  # checkout root (holds ``src/`` and ``BENCHMARK.json``)
    seed: int
    seconds: float
    trace: bool
    small: bool = False  # test scale: tiny inputs, same code paths
    tamper: bool = False  # corrupt one expected digest (self-test)

    @property
    def scratch(self) -> Path:
        """Per-process scratch directory inside the checkout."""
        path = self.root / ".perfbench_tmp" / str(os.getpid())
        path.mkdir(parents=True, exist_ok=True)
        return path


@dataclass
class Outcome:
    """What one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: correctness or hygiene failures; any entry fails the run
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: run context: versions, resolved engines, spreads, sample counts
    info: dict = field(default_factory=dict)
    #: seconds of each calibration loop run next to the timed work
    cals: list[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


#: top-level pipeline span name -> ``core.<stage>_s`` metric (``mm``,
#: ``pm`` and ``sm`` are the merge kernels; the root span's own time is
#: the pipeline's own set-up and epilogue)
CORE_STAGES = {
    "acspgemm": "setup",
    "setup": "setup",
    "glb": "glb",
    "estimate": "estimate",
    "esc": "esc",
    "merge": "merge",
    "mcc": "merge",
    "mm": "merge",
    "pm": "merge",
    "sm": "merge",
    "output": "output",
}
STAGE_NAMES = ("setup", "glb", "estimate", "esc", "merge", "output")


def core_seconds() -> dict[str, float]:
    return {stage: 0.0 for stage in STAGE_NAMES}


def credit_core(core: dict[str, float], profile) -> float:
    """Add a ``HostSpanProfile``'s seconds to ``core`` by stage; returns
    the seconds of span names outside the pipeline's stages."""
    other = 0.0
    for name, ent in profile.table().items():
        stage = CORE_STAGES.get(name.split(".")[0])
        if stage is None:
            other += ent["host_seconds"]
        else:
            core[stage] += ent["host_seconds"]
    return other


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def calibration_loops(runs: int) -> list[float]:
    """Seconds of each of ``runs`` back-to-back calibration loops."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_ITERATIONS):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return times


#: a calibration helper: per input line ``n``, runs the loop ``n`` times
#: and prints the seconds of each run; ends at the end of its input
_CAL_HELPER = """\
import sys
from benchlib import calibration_loops
for line in sys.stdin:
    print(" ".join(map(repr, calibration_loops(int(line)))), flush=True)
"""


class Calibrator:
    """Runs the calibration loop in this process and, at the same
    moment, in ``width - 1`` helper processes, so the loop meets the
    host as a workload that keeps ``width`` CPUs busy does: on a shared
    host with hyperthreaded virtual CPUs the single-CPU speed can flip
    between modes within seconds while the speed with every CPU busy
    does not follow it.  Calibrate only while the
    program is idle.  A context manager; leaving it ends the helpers.
    """

    def __init__(self, width: int, samples: list[float]):
        self.samples = samples
        self.procs = [
            subprocess.Popen([sys.executable, "-c", _CAL_HELPER],
                             cwd=Path(__file__).parent,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
            for _ in range(width - 1)
        ]

    def __call__(self, runs: int = 1) -> None:
        """Run the loop ``runs`` times on every CPU; keep the seconds."""
        for p in self.procs:
            p.stdin.write(f"{runs}\n")
            p.stdin.flush()
        self.samples += calibration_loops(runs)
        for p in self.procs:
            self.samples += [float(t) for t in p.stdout.readline().split()]

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        for p in self.procs:
            p.stdin.close()
        for p in self.procs:
            p.wait(timeout=30)
            p.stdout.close()


#: how a metric of each unit scales with the host's slowness
TIME_UNITS = {"s": 1, "ms": 1, "1/s": -1}


def at_ref_speed(value: float, unit: str, cal_s: float) -> float:
    """A metric measured next to calibrations of median ``cal_s``
    seconds, at reference speed (durations and rates; others as is)."""
    return value * (CAL_REF_S / cal_s) ** TIME_UNITS.get(unit, 0)


def csr_digest(m) -> str:
    """sha256 over a CSR matrix's shape, structure and value bytes."""
    h = hashlib.sha256()
    h.update(f"{m.rows}x{m.cols}|{m.values.dtype.str}".encode())
    h.update(m.row_ptr.tobytes())
    h.update(m.col_idx.tobytes())
    h.update(m.values.tobytes())
    return h.hexdigest()


def own_peak_rss_mb() -> float:
    """Max resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb() -> float:
    """Max resident set of this process or any waited-for descendant."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own_peak_rss_mb(), kids)


def shm_names(prefix: str) -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {n for n in os.listdir(SHM_DIR) if n.startswith(prefix)}


#: ``prctl`` option that makes orphaned descendants this process's children
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux only; returns whether it took).

    A helper a child leaves behind -- the ``repro serve`` daemon's own
    multiprocessing resource tracker outlives the daemon by a moment --
    then becomes this process's child, so :func:`reap_children` can wait
    for it instead of leaving it to init.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # the command name in parentheses may hold spaces: split after it
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children(grace_s: float = 20.0) -> list[int]:
    """Wait until this process has no child left; returns the pids that
    had to be signalled.

    Stops this process's multiprocessing resource tracker first (it
    would otherwise exit only after this process does).  Children still
    running ``grace_s`` later get SIGTERM, and SIGKILL after as long
    again.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    signalled: list[int] = []
    signals = [signal.SIGTERM, signal.SIGKILL]
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return signalled
        if pid:
            continue
        if time.monotonic() >= deadline and signals:
            sig = signals.pop(0)
            for pid in child_pids():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    continue
                if pid not in signalled:
                    signalled.append(pid)
            deadline = time.monotonic() + grace_s
        time.sleep(0.01)


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def import_seconds(root: Path, modules: tuple[str, ...]) -> float:
    """Cold import time of ``modules`` in a fresh interpreter.

    The child times only the imports (not interpreter start-up) and
    prints the seconds; a failed import raises ``CalledProcessError``.
    """
    code = (
        "import time; t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Stopwatch:
    """Accumulates host seconds of the calls it wraps, by bucket.

    ``wrap(fn, key)`` returns a function that adds each call of ``fn`` to
    ``seconds[(bucket, key)]``, where ``bucket`` is whatever the caller
    set last (which entry point is running).
    """

    def __init__(self) -> None:
        self.bucket = ""
        self.seconds: dict[tuple[str, str], float] = {}

    def wrap(self, fn, key: str):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = (self.bucket, key)
                self.seconds[slot] = (
                    self.seconds.get(slot, 0.0) + time.perf_counter() - t0
                )

        return timed

    def get(self, bucket: str, key: str) -> float:
        return self.seconds.get((bucket, key), 0.0)
