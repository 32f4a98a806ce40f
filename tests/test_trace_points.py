"""The benchmark's tracer wraps each traced method at ``vars(owner)[attr]``.

A refactor that moves one of those methods onto a base class, or renames it,
fails here in the unit tests, not only later in the benchmark.
"""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_every_trace_point_is_defined_directly_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in tracing.CLIENT_POINTS + tracing.SERVER_POINTS
               if attr not in vars(owner)]
    assert not missing, f"trace points not defined on their owner: {missing}"
