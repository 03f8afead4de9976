"""Helpers shared by the benchmark's workloads.

Everything here is independent of the ``repro`` package, so the
self-tests in ``test_harness.py`` exercise it without building any
instance: the speed reference and the closed loop, percentile choice,
open-loop scheduling, span bookkeeping, the golden-table comparator,
provenance and process memory.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# --------------------------------------------------------------------------
# workload results


class Reference:
    """A fixed computation whose duration tracks the machine's speed.

    The 2-core machines this benchmark runs on drift in speed by a third
    within minutes, as neighbours come and go.  Timing this computation
    next to each operation gives a factor, ``NOMINAL_S`` over its mean
    time before and after the operation, that rescales the operation to
    a machine on which the reference takes ``NOMINAL_S``.  It mixes what
    the workloads spend time on: a sort and a random gather in numpy,
    a loop in the interpreter, and a JSON parse.
    """

    NOMINAL_S = 0.05  # about its time on an idle 2-core machine

    def __init__(self) -> None:
        import json

        import numpy

        # Small enough (about 8 MiB at peak) not to move a workload's
        # memory high-water mark by much.
        self._values = numpy.random.default_rng(0).random(1 << 18)
        self._index = numpy.random.default_rng(1).integers(0, 1 << 18, 1 << 19, dtype=numpy.int32)
        self._payload = json.dumps(list(range(50_000)))
        self._loads = json.loads
        self.spent = 0.0

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            self._values.copy().sort()
            float(self._values[self._index].sum())
        total = 0
        for i in range(300_000):
            total += i & 7
        self._loads(self._payload)
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Median of three timings, so one interruption does not count."""
        times = [self._once() for _ in range(3)]
        self.spent += sum(times)
        return statistics.median(times)

    def scale(self, before: float, after: float) -> float:
        return self.NOMINAL_S / ((before + after) / 2)


@dataclass
class Measurement:
    """What one measured window of a workload produced.

    Per operation: its busy seconds, the work it did (in the workload's
    rate unit), its latency (the busy time unless the workload says
    otherwise) and the :class:`Reference` scale measured around it.
    """

    op_seconds: List[float] = field(default_factory=list)
    op_work: List[float] = field(default_factory=list)
    op_latency: List[float] = field(default_factory=list)
    op_scale: List[float] = field(default_factory=list)
    measured_rate: Optional[float] = None  # a rate the workload measures itself
    measured_scale: float = 1.0  # the Reference scale measured around it
    reference_s: float = 0.0  # time spent timing the reference
    # workload-specific metric name -> (value, unit, sample count)
    named: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.op_seconds)

    def record(self, seconds: float, work: float, latency: float, scale: float) -> None:
        self.op_seconds.append(seconds)
        self.op_work.append(work)
        self.op_latency.append(latency)
        self.op_scale.append(scale)

    def rate(self, normalised: bool) -> float:
        """Work per busy second (``measured_rate`` when that is set)."""
        if self.measured_rate is not None:
            return self.measured_rate / (self.measured_scale if normalised else 1.0)
        scales = self.op_scale if normalised else [1.0] * self.ops
        return sum(self.op_work) / sum(s * k for s, k in zip(self.op_seconds, scales))

    def p50_ms(self, normalised: bool) -> float:
        scales = self.op_scale if normalised else [1.0] * self.ops
        return 1000 * statistics.median(v * k for v, k in zip(self.op_latency, scales))


def closed_loop(
    out: Measurement,
    seconds: float,
    ops: Optional[int],
    op: Callable[[int], Tuple[float, Optional[float]]],
) -> None:
    """One caller runs ``op(k)`` back to back, timing each call.

    Runs for ``seconds`` (finishing the operation in flight) or, when
    ``ops`` is given, exactly ``ops`` operations.  ``op`` returns the
    work it did and, optionally, a latency other than its busy time.
    """
    reference = Reference()
    before = reference()
    start = time.perf_counter()
    while (ops is None and time.perf_counter() - start < seconds) or (
        ops is not None and out.ops < ops
    ):
        t0 = time.perf_counter()
        work, latency = op(out.ops)
        elapsed = time.perf_counter() - t0
        after = reference()
        out.record(elapsed, work, elapsed if latency is None else latency,
                   reference.scale(before, after))
        before = after
    out.reference_s += reference.spent


def derive(seed: int, stream: int) -> int:
    """A 32-bit seed for input ``stream`` of workload seed ``seed``."""
    import numpy

    return int(numpy.random.SeedSequence([seed, stream]).generate_state(1)[0])


# --------------------------------------------------------------------------
# percentiles


def tail_percentile(count: int, beyond: int = 10) -> Optional[int]:
    """Highest whole percentile with at least ``beyond`` samples above it.

    With ``count`` samples, percentile ``q`` leaves ``count * (100 - q) / 100``
    samples beyond it; this returns the largest ``q`` in ``[50, 99]`` for
    which that is ``>= beyond``, or ``None`` when even the median leaves
    fewer.  100 samples give 90; 200 give 95.
    """
    for q in range(99, 49, -1):
        if count * (100 - q) >= beyond * 100:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order stats."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# --------------------------------------------------------------------------
# open-loop load


@dataclass
class Sent:
    """One request of an open-loop schedule, timed from its due time."""

    index: int
    due: float
    sent: float
    done: float
    lag: float  # how late the sender itself started it (see OpenLoop)
    ok: bool
    value: object = None

    @property
    def latency(self) -> float:
        return self.done - self.due


class OpenLoop:
    """Send a fixed schedule over ``connections`` sender threads.

    Request ``i`` is due at ``start + i / rate``.  Each sender takes the
    next unsent index, sleeps until it is due and sends it; a request is
    timed from its due time, so a stall delays (and is charged to) every
    request queued behind it.  ``lag`` is the sender's own lateness: how
    far past ``max(due, moment the sender became free)`` the send began.
    A large lag means the generator, not the system, set the pace, and
    the run is not a valid measurement of the system.
    """

    def __init__(
        self,
        send: Callable[[int, int], Tuple[bool, object]],
        connections: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._send = send
        self._connections = connections
        self._clock = clock
        self._sleep = sleep

    def run(self, count: int, rate: float) -> List[Sent]:
        """Send ``count`` requests at ``rate`` per second; all are awaited."""
        lock = threading.Lock()
        cursor = [0]
        results: List[Optional[Sent]] = [None] * count
        start = self._clock()
        errors: List[BaseException] = []

        def sender(conn: int) -> None:
            try:
                while True:
                    with lock:
                        index = cursor[0]
                        if index >= count:
                            return
                        cursor[0] += 1
                    ready = self._clock()
                    due = start + index / rate
                    if due > ready:
                        self._sleep(due - ready)
                    sent = self._clock()
                    ok, value = self._send(conn, index)
                    done = self._clock()
                    results[index] = Sent(
                        index, due, sent, done, max(0.0, sent - max(due, ready)),
                        ok, value,
                    )
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=sender, args=(c,), daemon=True)
            for c in range(self._connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [r for r in results if r is not None]


# --------------------------------------------------------------------------
# spans


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


@dataclass
class Tracer:
    """In-memory span recorder; spans nest per thread."""

    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> List[str]:
        """Names of the spans open on this thread, outermost first."""
        return [name for _, name in self._stack()]

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(sid, name, 0.0, 0.0, None, 0))
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = Span(
                sid, name, start, end, parent, threading.get_ident()
            )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    spans: Sequence[Span], key: Callable[[Span], object] = lambda s: s.name
) -> Dict[object, float]:
    """Self time per ``key`` (the span name by default).

    A span's self time is its duration minus the union of the intervals
    its child spans cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[str, float] = {}
    for s in spans:
        covered = _union_length(
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.sid, ())
            if hi > s.start and lo < s.end
        )
        out[key(s)] = out.get(key(s), 0.0) + (s.end - s.start) - covered
    return out


# --------------------------------------------------------------------------
# golden tables

_WALL_LINE = re.compile(r"^\(wall time [^)]*\)$")
_HEADER = re.compile(r"^\[(?P<id>[A-Za-z0-9]+)\] ")
_RULE = re.compile(r"^-+(\+-+)*$")


def strip_wall_times(text: str) -> List[str]:
    """The lines of an experiment-table dump without ``(wall time …)`` lines."""
    return [line for line in text.splitlines() if not _WALL_LINE.match(line)]


def golden_diff(expected: str, actual: str) -> List[str]:
    """Lines that differ between two dumps, ignoring wall-time lines.

    Returns ``[]`` when the dumps agree byte for byte on every other line.
    """
    exp, act = strip_wall_times(expected), strip_wall_times(actual)
    diffs = [
        f"line {i + 1}: expected {e!r}, got {a!r}"
        for i, (e, a) in enumerate(zip(exp, act))
        if e != a
    ]
    if len(exp) != len(act):
        diffs.append(f"expected {len(exp)} lines, got {len(act)}")
    return diffs


@dataclass
class Table:
    columns: List[str]
    rows: List[List[str]]


def parse_tables(text: str) -> Dict[str, Table]:
    """Map experiment id -> its table (column names and cell strings)."""
    tables: Dict[str, Table] = {}
    current: Optional[str] = None
    lines = text.splitlines()
    for i, line in enumerate(lines):
        match = _HEADER.match(line)
        if match:
            current = match.group("id")
            continue
        if current and _RULE.match(line) and i > 0 and current not in tables:
            columns = [c.strip() for c in lines[i - 1].split("|")]
            rows = []
            for row in lines[i + 1:]:
                if "|" not in row or row.startswith(("observed:", "(wall")):
                    break
                rows.append([c.strip() for c in row.split("|")])
            tables[current] = Table(columns, rows)
    return tables


def probability_columns(columns: Sequence[str]) -> List[int]:
    """Indices of columns holding probabilities (``P_…`` / ``P[…]``)."""
    return [i for i, c in enumerate(columns) if c.startswith(("P_", "P["))]


def check_table(eid: str, table: Table, golden: Table) -> List[str]:
    """Structural gate for a table at any seed or scale."""
    problems = []
    if table.columns != golden.columns:
        problems.append(f"{eid}: columns {table.columns} != golden {golden.columns}")
    if not 1 <= len(table.rows) <= len(golden.rows):
        problems.append(
            f"{eid}: {len(table.rows)} rows, golden has {len(golden.rows)}"
        )
    for col in probability_columns(table.columns):
        for row in table.rows:
            try:
                value = float(row[col])
            except (IndexError, ValueError):
                problems.append(f"{eid}: unparsable {table.columns[col]} cell {row}")
                continue
            if not 0.0 <= value <= 1.0:
                problems.append(f"{eid}: {table.columns[col]}={value} outside [0,1]")
    return problems


# --------------------------------------------------------------------------
# provenance and memory


def source_digest(root: str) -> str:
    """SHA-256 over every file under ``src/`` (path and bytes, sorted)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _git(root: str, *args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(root: str, seed: int) -> Dict[str, object]:
    """Where and when a record was measured.

    ``commit`` and ``dirty`` come from git when the checkout is a
    repository and are ``None`` otherwise; ``source_digest`` identifies
    the measured code either way and is what records are matched on.
    """
    import numpy

    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_digest": source_digest(root),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "measured_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def vm_hwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, found through ``/proc``."""
    out: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as handle:
                    kids = [int(k) for k in handle.read().split()]
            except FileNotFoundError:
                continue
            out.extend(kids)
            frontier.extend(kids)
    return out
