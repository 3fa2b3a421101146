"""Run configuration: flat dotted-key text files plus CLI overrides."""

from __future__ import annotations

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
            if not (isinstance(v, (int, float)) and v > 0):
                raise ConfigError(f"tolerance {k!r} must be positive, got {v!r}")
        if self.fault_injection not in FAULT_MODES:
            raise ConfigError(
                f"unknown fault_injection {self.fault_injection!r}; expected one of {FAULT_MODES}"
            )

    def tol(self, kind: str) -> float:
        if kind in self.tolerances:
            return float(self.tolerances[kind])
        if kind not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance class {kind!r}")
        return DEFAULT_TOLERANCES[kind]


_SCALAR_FIELDS = {
    "seed": int,
    "fault_injection": str,
}


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Parse a flat `key = value` file (dotted keys for tolerances) and apply
    overrides on top.  A missing path falls back to $SELTRACE_CONFIG, then to
    defaults."""
    cfg = RunConfig()
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
            key, val = (part.strip() for part in line.split("=", 1))
            _apply_kv(cfg, key, val)
    for key, val in (overrides or {}).items():
        _apply_kv(cfg, key, val)
    cfg.__post_init__()
    return cfg


def _apply_kv(cfg: RunConfig, key: str, val):
    if key.startswith("tol."):
        try:
            cfg.tolerances[key[4:]] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value for {key}: {val!r}") from exc
        return
    if key == "ms_T":
        cfg.ms_T = tuple(float(v) for v in str(val).split(","))
        return
    if key == "corpus":
        cfg.corpus = tuple(v.strip() for v in str(val).split(",") if v.strip())
        return
    if key in _SCALAR_FIELDS:
        typ = _SCALAR_FIELDS[key]
        try:
            setattr(cfg, key, typ(val))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {val!r}") from exc
        return
    raise ConfigError(f"unknown config key {key!r}")
