"""Seeded inputs of the benchmark's workloads.

Inputs are plain numbers, lists and dicts.  The worker process turns them
into library objects; the parent process computes every reference from the
same dicts without importing seltrace.  Round ``r`` of a run with seed ``n``
draws from ``numpy.random.default_rng([n, r])``, so a seed fixes the inputs
of every round however many rounds a run reaches.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("torus-automorphic", "trace-formula")

# partners from the library's default corpus; their transforms are built once
# per process and reused by every pairing.  Both are pure log-Gaussian cores:
# a sharp zero-side partner such as sharp_sqrt makes the direct pairing of a
# smooth-carrier function raise TailDecayError on some seeds (CHANGES.md)
TORUS_PARTNERS = ("gauss_unit", "gauss_shifted")

# pairing abscissae: 0 and one right of every zero-side pole, so the second
# contour moves the zero-side residue from one side to the other
PAIRING_SIGMA0 = 0.0
PAIRING_SIGMA1_RANGE = (0.85, 1.0)
INVERSE_SIGMA_RANGES = ((-0.25, 0.25), (0.85, 1.1))

# transform samples: real parts at least 0.25 from every generated pole
TRANSFORM_POINTS = (0.1 + 0.4j, 0.1 - 2.5j, 1.1 + 1.0j, -0.2 - 0.7j, 0.1 + 6.0j)
INVERSE_X_LOG_RANGE = (-3.0, 3.0)
INVERSE_X_POINTS = 40

# Maass-Selberg truncation height; the case costs 2.5-4 s over this range,
# a few per cent of a round
MS_T_RANGE = (1.0, 2.0)
# boundary widths of the pseudo-Eisenstein pair: the coset count grows
# steeply with the width, so it is fixed and only mu and amp are seeded
PAIR_SIGMAS = (0.45, 0.55)
TF_WIDTH_RANGE = (0.45, 0.5)


def _rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(round_index)])


def _signed(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform on [lo, hi] with a random sign: keeps |value| >= lo."""
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def to_pair(z) -> list:
    """A complex number as the JSON pair [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


def from_pair(pair) -> complex:
    return complex(pair[0], pair[1])


def _torus_function(rng: np.random.Generator, carrier: str) -> dict:
    core = {
        "mu": float(rng.uniform(-0.4, 0.4)),
        "sigma": float(rng.uniform(0.5, 0.9)),
        "amp": float(rng.uniform(0.5, 1.5)),
    }
    terms = []
    for side, sign in (("zero", 1.0), ("infinity", -1.0)):
        depth = int(rng.integers(1, 3))
        exponent = complex(sign * rng.uniform(0.35, 0.75), _signed(rng, 0.2, 1.0))
        log_poly = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(depth)]
        terms.append({
            "exponent": to_pair(exponent),
            "log_poly": [to_pair(c) for c in log_poly],
            "side": side,
            "carrier": carrier,
        })
    return {"core": core, "terms": terms, "carrier": carrier}


def _torus_inputs(rng: np.random.Generator) -> dict:
    """Two asymptotically finite functions, each a log-Gaussian core plus a
    zero-side and an infinity-side exponent term, and the abscissae they are
    paired and inverted at.

    One function has sharp carriers and the other smooth ones.  A function
    mixing a sharp term (polynomial decay on verticals) with a smooth one
    fails the inversion's contour-decay certificate.  Exponents have real
    parts in +-[0.35, 0.75] and imaginary parts in +-[0.2, 1.0]: no critical
    exponent sum, and no pole within 0.1 of any abscissa.
    """
    functions = [_torus_function(rng, carrier) for carrier in ("sharp", "smooth")]
    sigma1 = float(rng.uniform(*PAIRING_SIGMA1_RANGE))
    inv_sigmas = [float(rng.uniform(lo, hi)) for lo, hi in INVERSE_SIGMA_RANGES]
    return {
        "functions": functions,
        "pairing_sigmas": [PAIRING_SIGMA0, sigma1],
        "inverse_sigmas": inv_sigmas,
        "x": np.exp(np.linspace(*INVERSE_X_LOG_RANGE, INVERSE_X_POINTS)).tolist(),
        "s_points": [to_pair(s) for s in TRANSFORM_POINTS],
    }


def _automorphic_inputs(rng: np.random.Generator) -> dict:
    """One Maass-Selberg case, s1 and s2 near the unitary line with
    |s1 +- s2| >= 0.3, and one pair of log-Gaussian boundary functions for
    the pseudo-Eisenstein checks."""
    while True:
        s1 = complex(rng.uniform(-0.3, 0.3), _signed(rng, 0.8, 3.0))
        s2 = complex(rng.uniform(-0.3, 0.3), _signed(rng, 0.8, 3.0))
        if min(abs(s1 + s2), abs(s1 - s2)) >= 0.3:
            break
    ms = {"s1": to_pair(s1), "s2": to_pair(s2), "T": float(rng.uniform(*MS_T_RANGE))}
    pair = [{"mu": float(rng.uniform(-0.15, 0.15)), "sigma": sigma, "amp": float(rng.uniform(0.6, 1.4))}
            for sigma in PAIR_SIGMAS]
    return {"maass_selberg": [ms], "pairs": [pair]}


def torus_automorphic_round(seed: int, r: int) -> dict:
    """The torus functions of the round, then its modular-surface cases."""
    rng = _rng(seed, r)
    inp = _torus_inputs(rng)
    inp.update(_automorphic_inputs(rng))
    return inp


def trace_formula_round(seed: int, r: int) -> dict:
    """One Gaussian width for ``seltrace tf report``."""
    rng = _rng(seed, r)
    return {"width": float(rng.uniform(*TF_WIDTH_RANGE))}


ROUNDS_BY_WORKLOAD = {
    "torus-automorphic": torus_automorphic_round,
    "trace-formula": trace_formula_round,
}


def round_inputs(workload: str, seed: int, r: int) -> dict:
    return ROUNDS_BY_WORKLOAD[workload](seed, r)

