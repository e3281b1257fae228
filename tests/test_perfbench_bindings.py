"""The traced benchmark's layer bindings resolve on this tree.

``perfbench/layers.py`` wraps choquard entry points by owner and attribute
name.  A binding whose owner or attribute is gone is left unwrapped, so its
per-layer metric reads zero without failing the benchmark; a refactor that
moves an entry point must fail here instead.  The benchmark files are only
read: the import writes no bytecode next to them.
"""

import importlib.util
import sys
from pathlib import Path

import choquard as cq
import choquard.cli  # noqa: F401  (entry_points reads cq.cli)

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def load_layers():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    had_tracer = "tracer" in sys.modules
    sys.path.insert(0, str(BENCH_DIR))  # layers.py imports its sibling tracer.py
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers", BENCH_DIR / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        if not had_tracer:
            sys.modules.pop("tracer", None)
    return module


def test_every_entry_point_resolves():
    bindings = load_layers().entry_points(cq)
    assert bindings
    unresolved = [
        (getattr(owner, "__name__", owner), attr, span)
        for owner, attr, span, _ in bindings
        if owner is None or not callable(getattr(owner, attr, None))
    ]
    assert unresolved == []
