"""Random-number-generator plumbing.

Every stochastic entry point in :mod:`repro` accepts either a seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).
Centralising the coercion here keeps experiments reproducible: a single
integer seed at the top of a benchmark deterministically drives every
layer below it.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged so that callers can
    thread one generator through a whole experiment.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent child generators from ``seed``.

    Children are produced with :meth:`numpy.random.SeedSequence.spawn`, so
    they are statistically independent regardless of how ``seed`` was
    produced.  Used by parameter sweeps to give each grid point its own
    stream while staying reproducible under a single top-level seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Generators carry their own bit generator seed sequence.
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Coerce ``seed`` into a :class:`numpy.random.SeedSequence`.

    Used by the Monte Carlo estimator and the delta sessions, which need
    a *spawnable* root rather than a live generator so that per-round
    child streams can be re-derived identically inside worker processes.

    A live ``Generator`` is *consumed*: the root's entropy is drawn from
    its stream, so two calls sharing one generator get independent
    roots (as consecutive draws would), and the generator's
    bit-generator state at call time fully determines the root.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(
            [int(word) for word in seed.integers(2**63, size=4)]
        )
    return np.random.SeedSequence(seed)


def child_seed_sequence(
    root: np.random.SeedSequence, index: int
) -> np.random.SeedSequence:
    """The ``index``-th child of ``root``, by absolute position.

    Equivalent to the child that ``root.spawn`` would produce at
    position ``index`` on a fresh root, but stateless: it neither reads
    nor advances ``root``'s spawn counter, so any process can
    reconstruct any child from ``(root, index)`` alone.  This is the
    determinism contract that makes batched estimates independent of
    ``n_jobs`` and of how rounds are partitioned across workers.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + (index,),
        pool_size=root.pool_size,
    )


def derive_seed(seed: SeedLike, index: int) -> Optional[int]:
    """Return a stable derived integer seed for grid point ``index``.

    Unlike :func:`spawn_generators`, this is usable when the consumer wants
    to *store* the seed (e.g. in an experiment record) rather than hold a
    generator object.
    """
    if seed is None:
        return None
    if isinstance(seed, np.random.Generator):
        raise TypeError("cannot derive a storable seed from a live Generator")
    if isinstance(seed, np.random.SeedSequence):
        base = seed.entropy if isinstance(seed.entropy, int) else 0
    else:
        base = int(seed)
    # SplitMix-style mix keeps derived seeds well separated.
    mixed = (base + 0x9E3779B97F4A7C15 * (index + 1)) % (2**63)
    return int(mixed)
