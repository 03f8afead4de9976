"""Known-bad: wall clock and id() returned from key-path functions (D203)."""

import time


def coalesce_key(payload):
    return f"{payload}:{time.time()}"


def cache_token(obj):
    return id(obj)
