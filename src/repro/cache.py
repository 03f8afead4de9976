"""Persistent content-addressed cache for Monte Carlo estimates.

Re-running an experiment sweep recomputes every grid point from scratch
even though nothing changed: the instance, the mechanism, the estimator
parameters and the seed fully determine the estimate.  This module keys
each estimate by a SHA-256 digest of exactly those inputs and stores the
result on disk (default ``.repro-cache/``), so repeated sweeps skip
already-computed grid points and interrupted runs resume where they
died.

Key schema (``SCHEMA_VERSION`` is part of the digest, so any change to
the semantics of a component invalidates old entries wholesale):

* **instance** — voter count, ``alpha``, a digest of the competency
  array bytes and of the graph's CSR adjacency;
* **mechanism** — :meth:`~repro.mechanisms.base.DelegationMechanism.
  cache_token`: a stable description of the mechanism's behaviour *on
  this instance* (threshold mechanisms tokenise their per-degree
  threshold values, so two lambdas computing the same ``j`` share
  entries; unpicklable mechanisms without a token bypass the cache);
* **seed** — the integer / ``SeedSequence`` identity, or for a live
  ``Generator`` its bit-generator state *at call time*;
* **estimator params** — estimator name, rounds, adaptive knobs,
  tie policy, ``exact_conditional``.  ``n_jobs`` is
  deliberately excluded: estimates are ``n_jobs``-invariant, so entries
  are shared across worker counts.

Entries additionally record the generator state *after* the estimate
when the caller passed a live ``Generator``: on a cache hit the caller's
generator is fast-forwarded to that state, so a cache-warm sweep leaves
every downstream stream — and therefore every downstream number —
bit-identical to the cold run.

Corrupt or truncated entries (killed mid-write, disk errors, stale
schema) are treated as misses and deleted; the estimate is recomputed
and rewritten.

**Concurrent writers.**  The store is safe for any number of concurrent
processes sharing one directory — the sharded estimation service points
every worker at the same cache.  Each write goes to an ``O_EXCL``
temporary file first, then *claims* the entry atomically: a hard link
from the temp file to the final name succeeds for exactly one writer
(first writer wins; losers discard their temp file — by construction
both hold the identical deterministic entry for that digest).  Where
hard links are unavailable the claim falls back to ``os.replace``,
which is still atomic (last writer wins, same bytes).  Readers never
see a partial entry: the final name either does not exist or holds a
fully-written file, and anything torn by a crash mid-``mkstemp`` stays
behind as an ignored ``.tmp-*`` file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

import numpy as np

from repro.voting.montecarlo import CorrectnessEstimate

SCHEMA_VERSION = 4
"""Bumped whenever digest components, the entry layout or the bits an
estimate is computed with change (2: exact PMFs through the FFT merge
ladder; 3: one Monte Carlo engine, live generators consumed; 4: each
round's exact tail computed from that round alone, so entries written
under 3 may hold values that depended on the server's history)."""

DEFAULT_CACHE_DIR = ".repro-cache"
"""Where estimates land unless the caller picks a directory."""

DEFAULT_OP = "estimate"
"""Op label charged for lookups outside any :func:`label_cache_ops`."""

OPSTATS_DIR = ".opstats"
"""Subdirectory of the cache root holding per-process op-stat sidecars."""

_OPSTATS_FLUSH_EVERY = 64
"""Lookups between sidecar flushes (also flushed on every ``stats()``)."""

_op_label = threading.local()
_sidecar_ids = itertools.count()


@contextmanager
def label_cache_ops(op: str) -> Iterator[None]:
    """Attribute cache lookups on this thread to operation ``op``.

    The estimation service wraps each request's compute in the request's
    op (``estimate``, ``sweep``, ``delta``, …) so hit/miss counters can
    be reported per operation.  Thread-local on purpose: the service
    runs each request synchronously on one worker thread, and a
    ``contextvars`` context would *not* propagate into executor threads.
    Nestable; the previous label is restored on exit.
    """
    previous = getattr(_op_label, "op", None)
    _op_label.op = op
    try:
        yield
    finally:
        _op_label.op = previous


def current_cache_op() -> str:
    """The op label charged for cache lookups on this thread."""
    return getattr(_op_label, "op", None) or DEFAULT_OP

def _sha256_hex(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def seed_token(seed: Any) -> Optional[Any]:
    """A JSON-able identity of ``seed``, or ``None`` when uncacheable.

    ``None`` seeds mean fresh entropy — two calls never see the same
    stream, so caching them would never hit and only pollute the store.
    A live :class:`~numpy.random.Generator` is identified by its
    bit-generator state at call time, which is exactly what determines
    the estimate: the estimator draws its root seed from that state
    (:func:`repro._util.rng.as_seed_sequence`).
    """
    if seed is None:
        return None
    if isinstance(seed, (int, np.integer)):
        return ["int", int(seed)]
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if entropy is None:
            return None
        if isinstance(entropy, (int, np.integer)):
            entropy_token: Any = int(entropy)
        else:
            entropy_token = [int(e) for e in entropy]
        return [
            "seed_sequence",
            entropy_token,
            [int(k) for k in seed.spawn_key],
            int(seed.pool_size),
        ]
    if isinstance(seed, np.random.Generator):
        return ["generator", seed.bit_generator.state]
    return None


def instance_token(instance: Any) -> Dict[str, Any]:
    """Digest components of a :class:`~repro.core.instance.ProblemInstance`."""
    indptr, indices = instance.graph.adjacency_csr()
    return {
        "num_voters": int(instance.num_voters),
        "alpha": float(instance.alpha),
        "competencies": _sha256_hex(
            np.ascontiguousarray(instance.competencies, dtype=np.float64).tobytes()
        ),
        "graph": _sha256_hex(
            np.ascontiguousarray(indptr, dtype=np.int64).tobytes(),
            np.ascontiguousarray(indices, dtype=np.int64).tobytes(),
        ),
    }


def estimate_digest(
    instance: Any,
    mechanism: Any,
    seed: Any,
    params: Mapping[str, Any],
) -> Optional[str]:
    """The cache key for one estimate, or ``None`` when uncacheable.

    Uncacheable means: fresh-entropy seed, or a mechanism whose
    behaviour cannot be tokenised stably (see
    :meth:`~repro.mechanisms.base.DelegationMechanism.cache_token`).
    """
    stoken = seed_token(seed)
    if stoken is None:
        return None
    token_fn = getattr(mechanism, "cache_token", None)
    mtoken = token_fn(instance) if token_fn is not None else None
    if mtoken is None:
        return None
    payload = {
        "schema": SCHEMA_VERSION,
        "instance": instance_token(instance),
        "mechanism": mtoken,
        "seed": stoken,
        "params": dict(params),
    }
    return _sha256_hex(_canonical_json(payload).encode())


class EstimateCache:
    """On-disk store of estimates, one JSON file per digest.

    The store layout is flat — ``<root>/<digest>.json`` — and the entry
    body repeats the digest and schema version so torn or foreign files
    are detected and discarded.  ``hits``/``misses`` count this object's
    lookups (the files themselves are shared by every cache instance
    pointed at the same directory).

    ``max_entries`` bounds the store: after every write the oldest
    entries (by file modification time, ties by name) are pruned until
    at most ``max_entries`` remain, so long-lived processes — the
    estimation service keeps one warm cache for its whole lifetime —
    cannot grow the directory without bound.  ``None`` (the default)
    means unbounded, the previous behaviour.
    """

    def __init__(
        self,
        root: Union[str, Path] = DEFAULT_CACHE_DIR,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.op_stats: Dict[str, Dict[str, int]] = {}
        self._sidecar_name = f"{os.getpid()}-{next(_sidecar_ids)}.json"
        self._unflushed = 0

    def path_for(self, digest: str) -> Path:
        """Where the entry for ``digest`` lives."""
        return self.root / f"{digest}.json"

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``digest``, or ``None``.

        Any defect — missing file, invalid JSON, wrong schema, wrong
        digest, missing estimate fields — is a miss; defective files
        are deleted so the recomputed entry replaces them cleanly.
        """
        path = self.path_for(digest)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            self._record("misses")
            return None
        except (OSError, ValueError):
            self._discard(path)
            self._record("misses")
            return None
        if not self._valid(data, digest):
            self._discard(path)
            self._record("misses")
            return None
        self._record("hits")
        return data

    def _record(self, kind: str) -> None:
        """Charge one lookup to the aggregate and per-op counters."""
        op = current_cache_op()
        per_op = self.op_stats.setdefault(op, {"hits": 0, "misses": 0})
        per_op[kind] += 1
        if kind == "hits":
            self.hits += 1
        else:
            self.misses += 1
        self._unflushed += 1
        if self._unflushed >= _OPSTATS_FLUSH_EVERY:
            self.flush_op_stats()

    def flush_op_stats(self) -> None:
        """Persist this object's per-op counters to its sidecar file.

        One file per cache object per process under ``.opstats/``,
        overwritten atomically, so any number of service workers sharing
        a cache directory publish their counters without coordination;
        ``repro info`` aggregates them via :func:`aggregate_op_stats`.
        Best-effort: an unwritable cache directory never fails a lookup.
        """
        self._unflushed = 0
        if not self.op_stats:
            return
        stats_dir = self.root / OPSTATS_DIR
        try:
            stats_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(stats_dir), prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump({"schema": SCHEMA_VERSION, "ops": self.op_stats}, handle)
            os.replace(tmp, stats_dir / self._sidecar_name)
        except OSError:  # pragma: no cover - stats are advisory
            pass

    def put(
        self,
        digest: str,
        estimate: Dict[str, Any],
        rng_state: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist ``estimate`` (and optionally a post-call RNG state).

        Safe under concurrent multi-process writers: the entry is
        written to an ``O_EXCL`` temp file and claimed with an atomic
        hard link — exactly one of N racing writers of the same digest
        lands the entry, the rest quietly discard their (identical)
        copies.  See the module docstring for the full story.
        """
        entry = {
            "schema": SCHEMA_VERSION,
            "digest": digest,
            "estimate": dict(estimate),
            "rng_state": rng_state,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.root), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            self._claim(tmp, self.path_for(digest))
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if self.max_entries is not None:
            self._prune()

    @staticmethod
    def _claim(tmp: str, final: Path) -> None:
        """Atomically install ``tmp`` at ``final`` (first writer wins).

        ``os.link`` is the claim: it fails with ``FileExistsError`` when
        another process already landed the entry, in which case this
        writer's copy is redundant (same digest → same deterministic
        content) and is simply dropped by the caller's cleanup.  On
        filesystems without hard links the claim degrades to the
        previous ``os.replace`` behaviour — still atomic, last writer
        wins with identical bytes.
        """
        try:
            os.link(tmp, final)
        except FileExistsError:
            return  # another writer landed the identical entry first
        except OSError:
            os.replace(tmp, final)

    def _entries(self) -> List[Path]:
        """All entry files (excluding in-flight ``.tmp-*`` writes)."""
        if not self.root.is_dir():
            return []
        return [
            path
            for path in self.root.glob("*.json")
            if not path.name.startswith(".")
        ]

    def _prune(self) -> None:
        """Drop oldest entries (mtime, then name) past ``max_entries``."""
        entries = []
        for path in self._entries():
            try:
                mtime = path.stat().st_mtime_ns
            except OSError:  # pragma: no cover - racing deletes are benign
                continue
            entries.append((mtime, path.name, path))
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        entries.sort()
        for _, _, path in entries[:excess]:
            self._discard(path)

    def stats(self) -> Dict[str, Any]:
        """Entry count, on-disk bytes, and this process's hit/miss counts.

        ``entries``/``bytes`` describe the shared on-disk store right
        now; ``hits``/``misses`` count this object's lookups only.
        Surfaced by the estimation service's ``/metrics`` endpoint and
        by ``repro info``.
        """
        entries = 0
        size = 0
        for path in self._entries():
            try:
                size += path.stat().st_size
            except OSError:  # pragma: no cover - racing deletes are benign
                continue
            entries += 1
        self.flush_op_stats()
        return {
            "entries": entries,
            "bytes": size,
            "hits": self.hits,
            "misses": self.misses,
            "max_entries": self.max_entries,
            "by_op": {op: dict(counts) for op, counts in sorted(self.op_stats.items())},
        }

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> None:
        """Delete every entry and reset the counters."""
        for path in self._entries():
            self._discard(path)
        stats_dir = self.root / OPSTATS_DIR
        if stats_dir.is_dir():
            for path in stats_dir.glob("*.json"):
                self._discard(path)
        self.hits = 0
        self.misses = 0
        self.op_stats = {}
        self._unflushed = 0

    @staticmethod
    def _valid(data: Any, digest: str) -> bool:
        if not isinstance(data, dict):
            return False
        if data.get("schema") != SCHEMA_VERSION or data.get("digest") != digest:
            return False
        estimate = data.get("estimate")
        if not isinstance(estimate, dict):
            return False
        return all(field.name in estimate for field in fields(CorrectnessEstimate))

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing deletes are benign
            pass


def aggregate_op_stats(root: Union[str, Path]) -> Dict[str, Dict[str, int]]:
    """Merge every process's op-stat sidecar under ``root``.

    Returns ``{op: {"hits": int, "misses": int}}`` summed across all
    sidecars in ``<root>/.opstats/`` — the store-wide per-operation view
    ``repro info`` reports.  Torn or foreign files are skipped.
    """
    stats_dir = Path(root) / OPSTATS_DIR
    merged: Dict[str, Dict[str, int]] = {}
    if not stats_dir.is_dir():
        return merged
    for path in sorted(stats_dir.glob("*.json")):
        if path.name.startswith("."):
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        ops = data.get("ops") if isinstance(data, dict) else None
        if not isinstance(ops, dict):
            continue
        for op, counts in ops.items():
            if not isinstance(counts, dict):
                continue
            bucket = merged.setdefault(str(op), {"hits": 0, "misses": 0})
            for kind in ("hits", "misses"):
                value = counts.get(kind)
                if isinstance(value, int) and value >= 0:
                    bucket[kind] += value
    return merged
