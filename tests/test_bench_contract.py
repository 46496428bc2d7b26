"""What the benchmark binds before it takes a metric.

A bench round ends with exit 1, before any metric is taken, when its worker
cannot start: `import natalg.cli` no longer loads a traced layer, a traced
name has moved, or a workload's job list cannot be built.  These tests make
the same lookups.  The bench modules are imported by path and run as they
are.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import natalg
import natalg.cli  # noqa: F401  (the worker's only import of natalg)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(*names: str) -> list[types.ModuleType]:
    """Import bench modules by path.  `workloads` imports `oracles` by its
    bare name, so each stays in sys.modules only while the next loads."""
    mods = []
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            mod = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            mods.append(mod)
    finally:
        for name in names:
            sys.modules.pop(name, None)
    return mods


_, layertrace, workloads = _load("oracles", "layertrace", "workloads")


def _module(layer: str) -> types.ModuleType:
    return sys.modules[f"natalg.{layer}"]


def test_importing_the_cli_loads_every_traced_layer():
    env = dict(os.environ, PYTHONPATH=str(Path(natalg.__file__).parents[1]))
    probe = ("import json, sys; import natalg.cli; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('natalg.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {f"natalg.{layer}" for layer in layertrace.LAYERS} <= loaded


def test_traced_names_resolve():
    # the tracer wraps what each layer's __all__ exports, plus the parser
    # builder, which it wraps by name
    by_name = {"cli._build_parser"}
    for names in layertrace.HOT_CALLS.values():
        for qualname in names:
            layer, name, *attrs = qualname.split(".")
            assert qualname in by_name or name in _module(layer).__all__, qualname
            obj = getattr(_module(layer), name)
            for attr in attrs:
                obj = getattr(obj, attr)
            assert callable(obj), qualname
    for qualname in layertrace.HIT_RATIOS:
        layer, name = qualname.split(".")
        assert name in _module(layer).__all__, qualname
        assert hasattr(getattr(_module(layer), name), "cache_info"), qualname


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_job_lists_build(workload):
    na = types.SimpleNamespace(**{layer: _module(layer) for layer in layertrace.LAYERS})
    for seed in range(1, 11):
        jobs = workloads.WORKLOADS[workload](random.Random(seed), na)
        assert jobs and all(callable(job.call) and callable(job.check) for job in jobs), seed
