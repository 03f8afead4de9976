"""Trace the processes of a served_mix fleet from the inside.

``served_mix`` puts this directory first on the fleet's ``PYTHONPATH``
and names an output directory in ``PERFBENCH_FLEET_TRACE`` when it boots
the fleet for a traced run.  Every Python process of the fleet (the
front-end and the shard workers, which inherit the environment) then
imports this module at start-up, wraps the same public functions as the
client side (``layers.install``) and, at exit, writes its per-layer
metrics and counters to ``<dir>/<pid>.json``.  Without the variable the
module does nothing.
"""

import os

_OUT = os.environ.get("PERFBENCH_FLEET_TRACE")

if _OUT:
    import atexit
    import json
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers
    from harness import Tracer

    _tracer = Tracer()
    _uninstall = layers.install(_tracer)

    def _dump() -> None:
        _uninstall()
        with open(os.path.join(_OUT, f"{os.getpid()}.json"), "w") as handle:
            json.dump(
                {"layers": layers.layer_metrics(_tracer), "counters": _tracer.counters},
                handle,
            )

    atexit.register(_dump)
