"""The benchmark's span wrappers (bench/tracing.py) must still find what they
wrap: each traced function or method by module and name, and its points
argument at the same position."""

import importlib
import importlib.util
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_entries():
    spec = importlib.util.spec_from_file_location("_bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_functions_resolve():
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    problems = []
    for name, mod_name, attr, cls_name, points_arg in _traced_entries():
        owner = importlib.import_module(mod_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            problems.append(f"{name}: {attr} not found in {mod_name} {cls_name or ''}")
            continue
        if points_arg is None:
            continue
        params = list(inspect.signature(fn).parameters.values())
        if len(params) <= points_arg or params[points_arg].kind not in positional:
            problems.append(f"{name}: no positional parameter at index {points_arg}")
    assert not problems, problems
