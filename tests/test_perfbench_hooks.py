"""The benchmark's tracer rebinds names in btvc by (owner, attribute), so
each must still exist: a deleted or renamed one would otherwise surface
only as an AttributeError from Tracer.install in a traced benchmark run."""

import pathlib
import sys

PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")


def test_every_traced_name_resolves():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.PATCHES
               if not callable(getattr(owner, attr, None))]
    assert missing == []
