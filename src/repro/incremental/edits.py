"""Edit types for the incremental delta engine, with canonical encoding.

An edit batch is an ordered list of edits applied atomically between two
estimates of a :class:`~repro.incremental.session.DeltaSession`.  Four
edit kinds cover live-election churn:

* :class:`Rewire` — change a voter's neighbourhood (the "re-delegation"
  of the dynamics literature: who the voter can approve changes, so its
  sampled delegate changes under the retained uniforms);
* :class:`SetCompetency` — update one voter's competency;
* :class:`Join` — a new voter arrives with a neighbour list (appended at
  index ``n``);
* :class:`Leave` — a voter departs (indices above it shift down by one).

Every edit has a canonical dict form (:func:`edit_to_dict` /
:func:`edit_from_dict`) used on the service wire and in the content
digests: :func:`edit_chain_digest` hashes a whole chain of batches, and
combined with the base-instance digest identifies a patched state for
the estimate cache and the ``/v1/delta`` coalescing key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union


@dataclass(frozen=True)
class Rewire:
    """Replace part of ``voter``'s neighbourhood: add/remove approval edges."""

    voter: int
    add: Tuple[int, ...] = ()
    remove: Tuple[int, ...] = ()

    kind = "rewire"

    def __post_init__(self) -> None:
        voter = _check_voter(self.voter, "voter")
        add = _check_voters(self.add, "add")
        remove = _check_voters(self.remove, "remove")
        if not add and not remove:
            raise ValueError("rewire edit must add or remove at least one edge")
        if voter in add or voter in remove:
            raise ValueError("rewire edit cannot reference the voter itself")
        overlap = set(add) & set(remove)
        if overlap:
            raise ValueError(
                f"rewire edit both adds and removes {sorted(overlap)}"
            )
        object.__setattr__(self, "voter", voter)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "remove", remove)


@dataclass(frozen=True)
class SetCompetency:
    """Set ``voter``'s competency to ``competency``."""

    voter: int
    competency: float

    kind = "competency"

    def __post_init__(self) -> None:
        object.__setattr__(self, "voter", _check_voter(self.voter, "voter"))
        object.__setattr__(
            self, "competency", _check_competency(self.competency, "competency")
        )


@dataclass(frozen=True)
class Join:
    """A new voter (index ``n``) arrives with the given neighbours."""

    neighbors: Tuple[int, ...]
    competency: float

    kind = "join"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "neighbors", _check_voters(self.neighbors, "neighbors")
        )
        object.__setattr__(
            self, "competency", _check_competency(self.competency, "competency")
        )


@dataclass(frozen=True)
class Leave:
    """``voter`` departs; voters above it shift down by one index."""

    voter: int

    kind = "leave"

    def __post_init__(self) -> None:
        object.__setattr__(self, "voter", _check_voter(self.voter, "voter"))


Edit = Union[Rewire, SetCompetency, Join, Leave]

_KINDS = {cls.kind: cls for cls in (Rewire, SetCompetency, Join, Leave)}


# Each edit validates itself on construction with these checks, so an
# edit object and its wire dict (parsed by constructing the object) pass
# the same ones.  NumPy scalars are accepted and stored as Python ints
# and floats.
def _check_voter(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"edit field {field!r} must be an integer")
    value = int(value)
    if value < 0:
        raise ValueError(f"edit field {field!r} must be non-negative, got {value}")
    return value


def _check_voters(value: Any, field: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"edit field {field!r} must be a list of voter indices")
    out = tuple(_check_voter(v, field) for v in value)
    if len(set(out)) != len(out):
        raise ValueError(f"edit field {field!r} contains duplicate voters")
    return out


def _check_competency(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"edit field {field!r} must be a number")
    p = float(value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edit field {field!r} must lie in [0, 1], got {p}")
    return p


def as_edit(edit: Union[Edit, Mapping[str, Any]]) -> Edit:
    """Coerce an edit object or its wire dict to a validated edit
    (objects validated themselves when they were constructed)."""
    if isinstance(edit, (Rewire, SetCompetency, Join, Leave)):
        return edit
    if isinstance(edit, Mapping):
        return edit_from_dict(edit)
    raise ValueError(f"not an edit: {edit!r}")


def edit_to_dict(edit: Edit) -> Dict[str, Any]:
    """Canonical wire form of one edit (sorted keys, plain JSON types)."""
    if isinstance(edit, Rewire):
        return {
            "kind": "rewire",
            "voter": edit.voter,
            "add": list(edit.add),
            "remove": list(edit.remove),
        }
    if isinstance(edit, SetCompetency):
        return {
            "kind": "competency",
            "voter": edit.voter,
            "competency": edit.competency,
        }
    if isinstance(edit, Join):
        return {
            "kind": "join",
            "neighbors": list(edit.neighbors),
            "competency": edit.competency,
        }
    if isinstance(edit, Leave):
        return {"kind": "leave", "voter": edit.voter}
    raise ValueError(f"not an edit: {edit!r}")


def edit_from_dict(data: Mapping[str, Any]) -> Edit:
    """Parse and strictly validate one edit's wire dict."""
    if not isinstance(data, Mapping):
        raise ValueError("each edit must be a JSON object")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ValueError(
            f"unknown edit kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    allowed = {
        "rewire": {"kind", "voter", "add", "remove"},
        "competency": {"kind", "voter", "competency"},
        "join": {"kind", "neighbors", "competency"},
        "leave": {"kind", "voter"},
    }[kind]
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unexpected edit fields for {kind!r}: {sorted(extra)}")
    if kind == "rewire":
        return Rewire(
            voter=data.get("voter"),
            add=data.get("add", []),
            remove=data.get("remove", []),
        )
    if kind == "competency":
        return SetCompetency(
            voter=data.get("voter"), competency=data.get("competency")
        )
    if kind == "join":
        return Join(
            neighbors=data.get("neighbors", []),
            competency=data.get("competency"),
        )
    return Leave(voter=data.get("voter"))


# reprolint: disable=K401
def invert_batch(instance: Any, edits: Sequence[Edit]) -> List[Edit]:
    """The inverse batch: applying ``edits`` then the result is a no-op.

    ``instance`` is the state the batch is *about to be applied to* — the
    inverse of a :class:`SetCompetency` needs the pre-edit competency and
    the inverse of a :class:`Join` needs the pre-edit voter count, neither
    of which the edit itself carries.  The attack-search driver uses this
    to evaluate candidate moves on one shared
    :class:`~repro.incremental.session.DeltaSession` (apply, estimate,
    un-apply) instead of forking a session per candidate; since a session
    is a pure function of its patched instance, ``apply(edits);
    apply(invert_batch(inst, edits))`` restores its estimates bitwise.

    :class:`Leave` edits are not invertible — the departed voter's
    neighbourhood is gone from the post state — and raise ``ValueError``.
    """
    count = instance.num_voters
    competencies = instance.competencies
    # Competency of each voter as of the *current* prefix of the batch:
    # in-batch SetCompetency/Join edits shadow the instance's values.
    shadow: Dict[int, float] = {}
    inverses: List[Edit] = []
    for edit in edits:
        edit = as_edit(edit)
        if isinstance(edit, Rewire):
            inverses.append(
                Rewire(voter=edit.voter, add=edit.remove, remove=edit.add)
            )
        elif isinstance(edit, SetCompetency):
            if edit.voter in shadow:
                old = shadow[edit.voter]
            elif edit.voter < count and edit.voter < len(competencies):
                old = float(competencies[edit.voter])
            else:
                raise ValueError(
                    f"cannot invert competency edit for unknown voter "
                    f"{edit.voter} (instance has {count})"
                )
            inverses.append(SetCompetency(voter=edit.voter, competency=old))
            shadow[edit.voter] = edit.competency
        elif isinstance(edit, Join):
            shadow[count] = edit.competency
            inverses.append(Leave(voter=count))
            count += 1
        else:  # Leave: the departed voter's edges are unrecoverable
            raise ValueError(
                "cannot invert a leave edit: the departed voter's "
                "neighbourhood is not recorded in the edit"
            )
    inverses.reverse()
    return inverses


# reprolint: disable=K401
def canonical_batch(edits: Sequence[Edit]) -> List[Dict[str, Any]]:
    """Canonical wire form of one edit batch (order preserved)."""
    return [edit_to_dict(as_edit(e)) for e in edits]


def batch_digest(edits: Sequence[Edit]) -> str:
    """SHA-256 hex digest of one batch's canonical JSON."""
    blob = json.dumps(
        canonical_batch(edits), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def edit_chain_digest(batches: Sequence[Sequence[Edit]]) -> str:
    """SHA-256 hex digest of a whole edit chain (list of batches).

    Combined with the *base* instance digest, this identifies a patched
    state content-addressably: the estimate cache and the ``/v1/delta``
    coalescing key both include it, so replayed chains hit warm entries.
    """
    blob = json.dumps(
        [canonical_batch(batch) for batch in batches],
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
