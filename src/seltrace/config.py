"""Run configuration: flat dotted-key text files plus CLI overrides."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .util import SeltraceError

__all__ = ["ConfigError", "RunConfig", "load_config", "DEFAULT_TOLERANCES"]

ENV_CONFIG = "SELTRACE_CONFIG"

# matched to the quadrature budgets: analytic-path identities, quadrature vs
# closed form, fundamental-domain quadrature, cross-side trace-formula checks
DEFAULT_TOLERANCES = {
    "analytic": 1e-8,
    "quadrature": 1e-6,
    "fd": 1e-4,
    "tf": 1e-6,
}


# "" runs clean; "c_sign" flips the sign of c inside the functional-equations
# checks, so that suite must fail
FAULT_MODES = ("", "c_sign")


class ConfigError(SeltraceError):
    pass


@dataclass
class RunConfig:
    """The knobs that change suite results; every field is echoed into each
    report's `config` block."""

    tolerances: dict = field(default_factory=dict)  # per-check-class overrides
    ms_T: tuple = (1.0, 2.0)
    corpus: tuple = ()  # empty means the default selection per suite
    seed: int = 1234
    fault_injection: str = ""

    def __post_init__(self):
        for k, v in self.tolerances.items():
            if k not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance class {k!r}; expected one of {tuple(DEFAULT_TOLERANCES)}")
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConfigError(f"tolerance {k!r} must be finite and positive, got {v!r}")
        if not all(math.isfinite(T) and T >= 0.0 for T in self.ms_T):
            raise ConfigError(f"ms_T entries must be finite and non-negative, got {self.ms_T!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed!r}")
        if self.fault_injection not in FAULT_MODES:
            raise ConfigError(
                f"unknown fault_injection {self.fault_injection!r}; expected one of {FAULT_MODES}"
            )

    def tol(self, kind: str) -> float:
        return float(self.tolerances.get(kind, DEFAULT_TOLERANCES[kind]))


# how each key's text becomes a RunConfig value; `tol.<class>` keys parse as float
_PARSERS = {
    "ms_T": lambda val: tuple(float(v) for v in str(val).split(",")),
    "corpus": lambda val: tuple(v.strip() for v in str(val).split(",") if v.strip()),
    "seed": int,
    "fault_injection": str,
}


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Parse a flat `key = value` file (dotted keys for tolerances) and apply
    overrides on top.  A missing path falls back to $SELTRACE_CONFIG, then to
    defaults."""
    pairs = []
    path = path or os.environ.get(ENV_CONFIG)
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        for ln, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key = value")
            pairs.append(tuple(part.strip() for part in line.split("=", 1)))
    pairs += (overrides or {}).items()
    fields, tolerances = {}, {}
    try:
        for key, val in pairs:
            if key.startswith("tol."):
                tolerances[key[4:]] = float(val)
            elif key in _PARSERS:
                fields[key] = _PARSERS[key](val)
            else:
                raise ConfigError(f"unknown config key {key!r}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {val!r}") from exc
    return RunConfig(tolerances=tolerances, **fields)
