"""References for the benchmark's checks, computed without seltrace.

Closed forms where they exist, and mpmath quadrature where they do not.  The
only definitions shared with the library are those of the inputs themselves:
the log-Gaussian core, the exponent terms and their carriers (the C^inf bump
that is 1 on (0, 1/2] and 0 on [1, inf), as the library's README states).
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np

from inputs import from_pair

mp.mp.dps = 20
LOG2 = math.log(2.0)


# ----------------------------------------------------------------------------
# torus functions


def bump(x):
    """The smooth carrier: 1 on (0, 1/2], 0 on [1, inf), a/(a + b) between."""
    x = np.asarray(x, dtype=float)
    out = np.where(x <= 0.5, 1.0, 0.0)
    mid = (x > 0.5) & (x < 1.0)
    t = np.where(mid, 2.0 * x - 1.0, 0.5)
    a = np.exp(-1.0 / (1.0 - t))
    b = np.exp(-1.0 / t)
    return np.where(mid, a / (a + b), out)


def _mp_bump(x):
    if x <= 0.5:
        return mp.mpf(1)
    if x >= 1:
        return mp.mpf(0)
    t = 2 * x - 1
    a = mp.exp(-1 / (1 - t))
    b = mp.exp(-1 / t)
    return a / (a + b)


def _mp_carrier(term, u):
    """Carrier of an exponent term at x = e^u."""
    zero = term["side"] == "zero"
    if term["carrier"] == "sharp":
        return mp.mpf(1) if (u < 0) == zero else mp.mpf(0)
    return _mp_bump(mp.exp(u if zero else -u))


def _mp_poly(term, u):
    return mp.fsum(from_pair(c) * u**k for k, c in enumerate(term["log_poly"]))


def mp_function(spec, u):
    """f(e^u) for a function spec (core dict or None, exponent terms)."""
    total = mp.mpc(0)
    core = spec.get("core")
    if core:
        total += core["amp"] * mp.exp(-((u - core["mu"]) ** 2) / (2 * core["sigma"] ** 2))
    for term in spec.get("terms", ()):
        carrier = _mp_carrier(term, u)
        if carrier:
            total += carrier * mp.exp(from_pair(term["exponent"]) * u) * _mp_poly(term, u)
    return total


def function_values(spec, x) -> np.ndarray:
    """f(x) on an array, in double precision."""
    x = np.asarray(x, dtype=float)
    u = np.log(x)
    out = np.zeros(x.shape, dtype=complex)
    core = spec.get("core")
    if core:
        out += core["amp"] * np.exp(-((u - core["mu"]) ** 2) / (2.0 * core["sigma"] ** 2))
    for term in spec.get("terms", ()):
        zero = term["side"] == "zero"
        if term["carrier"] == "sharp":
            carrier = (x < 1.0) if zero else (x >= 1.0)
        else:
            carrier = bump(x if zero else 1.0 / x)
        poly = sum(from_pair(c) * u**k for k, c in enumerate(term["log_poly"]))
        out += carrier * np.exp(from_pair(term["exponent"]) * u) * poly
    return out


def transform_values(spec, s_points) -> np.ndarray:
    """F(s) = int f(x) x^-s dx/x at each s: the log-Gaussian closed form
    amp sigma sqrt(2 pi) exp(-mu s + sigma^2 s^2 / 2), the exact poles of the
    sharp parts, and for smooth carriers the integral of (bump - sharp
    carrier) x^a (log x)^k x^-s over the bump's interval."""
    out = []
    core = spec.get("core")
    for sp in s_points:
        s = mp.mpc(*sp)
        total = mp.mpc(0)
        if core:
            mu, sg = core["mu"], core["sigma"]
            total += core["amp"] * sg * mp.sqrt(2 * mp.pi) * mp.exp(-mu * s + sg**2 * s**2 / 2)
        for term in spec.get("terms", ()):
            a = mp.mpc(*term["exponent"])
            zero = term["side"] == "zero"
            for k, c in enumerate(term["log_poly"]):
                # int_0^1 x^(a-s) (log x)^k d*x = (-1)^k k! / (a-s)^(k+1);
                # int_1^inf x^(a-s) (log x)^k d*x = k! / (s-a)^(k+1)
                if zero:
                    total += from_pair(c) * (-1) ** k * mp.factorial(k) / (a - s) ** (k + 1)
                else:
                    total += from_pair(c) * mp.factorial(k) / (s - a) ** (k + 1)
            if term["carrier"] == "smooth":
                lo, hi = (-LOG2, 0) if zero else (0, LOG2)

                def corr(u, term=term, a=a, zero=zero):
                    diff = _mp_bump(mp.exp(u if zero else -u)) - 1
                    return diff * mp.exp((a - s) * u) * _mp_poly(term, u)

                total += mp.quad(corr, [lo, hi])
        out.append(complex(total))
    return np.array(out)


def corpus_specs(path) -> dict:
    """The library's torus corpus file as specs for mp_function, with the
    loader's defaults (mu 0, sigma 1, amp 1, log_poly [1], zero side, sharp)
    filled in."""
    with open(path) as fh:
        data = json.load(fh)
    out = {}
    for f in data["functions"]:
        core = f.get("core") or {"preset": "zero"}
        out[f["name"]] = {
            "core": None if core.get("preset") == "zero" else {
                "mu": float(core.get("mu", 0.0)),
                "sigma": float(core.get("sigma", 1.0)),
                "amp": float(core.get("amp", 1.0)),
            },
            "terms": [
                {
                    "exponent": t["exponent"],
                    "log_poly": t.get("log_poly", [[1.0, 0.0]]),
                    "side": t.get("side", "zero"),
                    "carrier": t.get("carrier", "sharp"),
                }
                for t in f.get("terms", ())
            ],
        }
    return out


def pairing(spec1, spec2) -> complex:
    """int_0^inf f1 f2 dx/x.  With the benchmark's partners the product
    decays at both ends, so the regularized pairing is this plain integral."""

    def integrand(u):
        return mp_function(spec1, u) * mp_function(spec2, u)

    return complex(mp.quad(integrand, [-mp.inf, -LOG2, 0, LOG2, mp.inf]))


# ----------------------------------------------------------------------------
# level-1 modular surface


def xi(s):
    """Completed zeta pi^(-s/2) Gamma(s/2) zeta(s)."""
    return mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def scattering_c(s):
    """c(s) = xi(s) / xi(s + 1)."""
    return xi(s) / xi(s + 1)


def maass_selberg_rhs(s1, s2, T) -> complex:
    s1, s2 = mp.mpc(*s1), mp.mpc(*s2)
    c1, c2 = scattering_c(s1), scattering_c(s2)
    return complex(
        mp.exp(T * (s1 + s2)) / (s1 + s2)
        + c1 * mp.exp(T * (-s1 + s2)) / (-s1 + s2)
        + c2 * mp.exp(T * (s1 - s2)) / (s1 - s2)
        + c1 * c2 * mp.exp(-T * (s1 + s2)) / (-s1 - s2)
    )


def _log_gaussian_transform(p, s):
    return p["amp"] * p["sigma"] * mp.sqrt(2 * mp.pi) * mp.exp(-p["mu"] * s + p["sigma"] ** 2 * s**2 / 2)


def rank_one_value(p1, p2) -> complex:
    """Spectral side of the pairing of two pseudo-Eisenstein series with
    log-Gaussian boundary data, normalized against dx dy / y^2:

        (1/pi) int_0^inf b1(it) b2(-it) dt + (12/pi) F1(1) F2(1),
        b(z) = F(z) + c(-z) F(-z),

    by 32-point Gauss-Legendre panels on [0, 24] (the integrand is below
    e^-100 past t = 24); c(-it) is the conjugate of c(it).
    """
    x, w = np.polynomial.legendre.leggauss(32)
    edges = (0, 1, 3, 6, 10, 16, 24)
    total = mp.mpc(0)
    for a, b in zip(edges[:-1], edges[1:]):
        h = (b - a) / 2
        for xk, wk in zip(x, w):
            z = mp.mpc(0, h * xk + (a + b) / 2)
            c = scattering_c(z)
            b1 = _log_gaussian_transform(p1, z) + mp.conj(c) * _log_gaussian_transform(p1, -z)
            b2 = _log_gaussian_transform(p2, -z) + c * _log_gaussian_transform(p2, z)
            total += h * wk * b1 * b2
    resid = 12 / mp.pi * _log_gaussian_transform(p1, 1) * _log_gaussian_transform(p2, 1)
    return complex(total / mp.pi + resid)


# ----------------------------------------------------------------------------
# trace formula, Gaussian h(it) = exp(-(W t)^2 / 4)


def tf_first_coefficient(width: float) -> float:
    """-(1/2 pi) int h(it)^2 dt = -1 / (W sqrt(2 pi))."""
    return -1.0 / (width * math.sqrt(2.0 * math.pi))


def tf_residual(width: float) -> float:
    """h(1)^2 = exp(W^2 / 2)."""
    return math.exp(0.5 * width * width)


def tf_identity(width: float) -> float:
    """(pi/3) k(0) with k(0) = (1/4 pi) int_R r tanh(pi r) e^(-2 W^2 r^2) dr,
    the Selberg transform of h1 h2 at the spectral parameter r, s = 2ir."""
    w2 = mp.mpf(width) ** 2
    half = mp.quad(lambda r: r * mp.tanh(mp.pi * r) * mp.exp(-2 * w2 * r * r), [0, 1, 3, mp.inf])
    return float(mp.pi / 3 * (2 * half) / (4 * mp.pi))
