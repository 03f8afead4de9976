"""Known-good digest flow through a laundering helper (D203).

``ordered`` sorts its argument, so a set handed to it comes back in a
fixed order: the helper launders the caller's set exactly as an inline
``sorted({a, b})`` does, also two calls deep.
"""

import hashlib


def ordered(values):
    return sorted(values)


def labels(a, b):
    return ordered({a, b})


def pair_digest(a, b):
    return hashlib.sha256(",".join(labels(a, b)).encode()).hexdigest()
