"""The benchmark tracer still finds every name it patches in the package."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer

        traced = tracer.Tracer()
        try:
            traced.install()
        finally:
            traced.uninstall()
    finally:
        sys.path.remove(str(BENCH))
