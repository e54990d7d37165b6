"""The benchmark's layer trace replaces qcalc names by attribute lookup; a
rename under src/ must fail here rather than break `--trace 1` silently."""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "qbench" / "layertrace.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("qbench_layertrace",
                                                  LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    originals = layertrace.originals()
    assert originals
    for owner, attr, value in originals:
        assert callable(value), f"{owner!r}.{attr} is not callable"
