"""The benchmark's tracer wraps patchx entry points by name from outside the
package. A renamed or removed entry point must fail here, not only in a traced
benchmark run."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_removes_every_hook():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        from workloads import CONV_LABELS
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = spans.Tracer(CONV_LABELS)
    installed = []
    try:
        with tracer.group():
            installed = list(tracer._undo)
            for owner, attr, original in installed:
                assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer._uninstall()  # an install that failed half way leaves wrappers behind
    assert installed
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} is still wrapped"
