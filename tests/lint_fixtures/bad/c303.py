"""Known-bad: nondeterministic shard routing (D203 return sinks).

Every function here routes by something other than request content —
the salted builtin ``hash()``, the process id, a wall clock, an
entropy draw — so the same request lands on different shards across
runs (or across workers).
"""

import os
import secrets
import time
import uuid


def pick_shard(payload, n_shards):
    # str hash() is salted per process: two front-ends disagree.
    return hash(payload) % n_shards


def shard_for(request, n_shards):
    return (os.getpid() + request) % n_shards


def route_request(n_shards):
    return int(time.monotonic()) % n_shards


def spread_routing(n_shards):
    return secrets.randbelow(n_shards)


def route_id():
    return uuid.uuid4().int
