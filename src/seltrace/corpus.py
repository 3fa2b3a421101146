"""Test-function corpus: named core presets plus JSON (de)serialization.

Corpus schema (one function):
    {"name": str,
     "core": {"preset": "log_gaussian"|"zero", ...params},
     "terms": [{"exponent": [re, im], "log_poly": [[re, im], ...],
                "side": "zero"|"infinity", "carrier": "sharp"|"smooth"}, ...]}
"""

from __future__ import annotations

import json
from importlib import resources

from .torus import AsymptoticallyFiniteFunction, ExponentTerm, log_gaussian_core

__all__ = ["core_from_spec", "function_from_spec", "load_corpus", "default_corpus"]


def core_from_spec(spec: dict | None):
    if spec is None or spec.get("preset") == "zero":
        return None
    preset = spec.get("preset")
    if preset == "log_gaussian":
        return log_gaussian_core(
            mu=float(spec.get("mu", 0.0)),
            sigma=float(spec.get("sigma", 1.0)),
            amp=complex(spec.get("amp", 1.0)),
        )
    raise ValueError(f"unknown core preset: {preset!r}")


def function_from_spec(spec: dict) -> AsymptoticallyFiniteFunction:
    terms = []
    for t in spec.get("terms", ()):
        poly = tuple(complex(c[0], c[1]) for c in t.get("log_poly", [[1.0, 0.0]]))
        terms.append(
            ExponentTerm(
                exponent=complex(t["exponent"][0], t["exponent"][1]),
                log_poly=poly,
                side=t.get("side", "zero"),
                carrier=t.get("carrier", "sharp"),
            )
        )
    return AsymptoticallyFiniteFunction(
        core=core_from_spec(spec.get("core")),
        terms=tuple(terms),
    )


def load_corpus(path_or_file) -> dict[str, AsymptoticallyFiniteFunction]:
    if hasattr(path_or_file, "read"):
        data = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            data = json.load(fh)
    return {spec["name"]: function_from_spec(spec) for spec in data["functions"]}


def default_corpus() -> dict[str, AsymptoticallyFiniteFunction]:
    with resources.files("seltrace").joinpath("data/torus_corpus.json").open() as fh:
        return load_corpus(fh)
