"""The benchmark harness binds package functions by name; keep those names."""

import importlib
import importlib.util
import inspect
import json
import os

import selfsim.transforms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_exist():
    """Every (module, name) pair perfbench/spans.py wraps is a callable."""
    wrapped = _load_spans().WRAPPED
    assert wrapped
    for mod_name, attr, _hook in wrapped:
        module = importlib.import_module(f"selfsim.{mod_name}")
        assert callable(getattr(module, attr, None)), f"selfsim.{mod_name}.{attr}"


def test_load_measure_spec_takes_one_path(tmp_path):
    """perfbench/worker.py calls load_measure_spec(path) with one argument."""
    load = selfsim.transforms.load_measure_spec
    inspect.signature(load).bind("doc.json")
    path = tmp_path / "c13.json"
    path.write_text(json.dumps({"ambient_dim": 1, "ratio": 1 / 3, "sign": 1,
                                "translations": [0.0, 2 / 3]}))
    assert load(str(path)).histogram(4).total_upper() >= 1.0 - 1e-12
