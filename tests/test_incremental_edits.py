"""Edit validation: an edit object and its wire dict pass the same checks.

Edits validate themselves on construction and ``edit_from_dict`` parses
by constructing the object, so every invalid edit below is rejected in
both forms with the same message — before any session or instance sees
it.  NumPy scalars (attack scenarios build edits from array elements)
are accepted and stored as plain Python numbers.
"""

import numpy as np
import pytest

from repro.incremental import (
    Join,
    Leave,
    Rewire,
    SetCompetency,
    edit_from_dict,
    edit_to_dict,
)

#: (case id, edit object factory, wire dict, expected message)
INVALID = [
    (
        "rewire-self-add",
        lambda: Rewire(voter=3, add=(3,)),
        {"kind": "rewire", "voter": 3, "add": [3]},
        "cannot reference the voter itself",
    ),
    (
        "rewire-self-remove",
        lambda: Rewire(voter=3, remove=(3,)),
        {"kind": "rewire", "voter": 3, "remove": [3]},
        "cannot reference the voter itself",
    ),
    (
        "rewire-duplicate",
        lambda: Rewire(voter=0, add=(1, 1)),
        {"kind": "rewire", "voter": 0, "add": [1, 1]},
        "duplicate voters",
    ),
    (
        "join-duplicate",
        lambda: Join(neighbors=(1, 1), competency=0.5),
        {"kind": "join", "neighbors": [1, 1], "competency": 0.5},
        "duplicate voters",
    ),
    (
        "rewire-overlap",
        lambda: Rewire(voter=0, add=(1, 2), remove=(2,)),
        {"kind": "rewire", "voter": 0, "add": [1, 2], "remove": [2]},
        "both adds and removes",
    ),
    (
        "rewire-empty",
        lambda: Rewire(voter=0),
        {"kind": "rewire", "voter": 0},
        "add or remove at least one edge",
    ),
    (
        "competency-above-one",
        lambda: SetCompetency(voter=0, competency=1.5),
        {"kind": "competency", "voter": 0, "competency": 1.5},
        r"must lie in \[0, 1\]",
    ),
    (
        "competency-nan",
        lambda: SetCompetency(voter=0, competency=float("nan")),
        {"kind": "competency", "voter": 0, "competency": float("nan")},
        r"must lie in \[0, 1\]",
    ),
    (
        "join-competency-below-zero",
        lambda: Join(neighbors=(1,), competency=-0.1),
        {"kind": "join", "neighbors": [1], "competency": -0.1},
        r"must lie in \[0, 1\]",
    ),
    (
        "negative-voter",
        lambda: Leave(voter=-1),
        {"kind": "leave", "voter": -1},
        "must be non-negative",
    ),
    (
        "bool-voter",
        lambda: Leave(voter=True),
        {"kind": "leave", "voter": True},
        "must be an integer",
    ),
    (
        "float-voter",
        lambda: SetCompetency(voter=1.0, competency=0.5),
        {"kind": "competency", "voter": 1.0, "competency": 0.5},
        "must be an integer",
    ),
]


@pytest.mark.parametrize(
    "make, wire, message", [case[1:] for case in INVALID],
    ids=[case[0] for case in INVALID],
)
def test_object_and_dict_forms_are_validated(make, wire, message):
    with pytest.raises(ValueError, match=message):
        make()
    with pytest.raises(ValueError, match=message):
        edit_from_dict(wire)


def test_numpy_scalars_are_stored_as_python_numbers():
    voters = np.arange(5)
    rewire = Rewire(voter=voters[3], add=[voters[4]], remove=(np.int32(1),))
    assert rewire == Rewire(voter=3, add=(4,), remove=(1,))
    assert hash(rewire) == hash(Rewire(voter=3, add=(4,), remove=(1,)))
    assert type(rewire.voter) is int
    assert all(type(v) is int for v in rewire.add + rewire.remove)
    join = Join(neighbors=tuple(voters[1:3]), competency=np.float32(0.5))
    assert join.neighbors == (1, 2)
    assert type(join.competency) is float
    competency = SetCompetency(voter=np.uint8(2), competency=np.float64(0.25))
    assert (type(competency.voter), type(competency.competency)) == (int, float)
    # the wire round trip is exact
    for edit in (rewire, join, competency, Leave(voter=np.int64(0))):
        assert edit_from_dict(edit_to_dict(edit)) == edit
