"""Known-bad: unsorted json feeding a hash (D203)."""

import hashlib
import json


def digest(payload):
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()
