"""Mellin calculus for asymptotically finite functions on the multiplicative
half-line.

Conventions:
    mellin(f)(s)   = int_0^inf f(x) x^(-s) dx/x      (equivariant sign)
    zero-side term x^a (log x)^k on (0,1)            -> plus pole at a,
                                                         coefficient -k! c_k
                                                         at order -(k+1)
    infinity-side term x^a (log x)^k on [1,inf)      -> minus pole at a,
                                                         coefficient +k! c_k
    inversion      f(x) = (1/2 pi i) int F(s) x^s ds - sum_{Re<sigma} x^a Res+
                          + sum_{Re>sigma} x^a Res-  (PV + half residues on
                          the contour itself)

Rational pole terms are carried exactly; the smooth core goes through
composite Gauss-Legendre panels in the log variable u = log x, which are
spectrally accurate for the rapidly decaying cores this module requires.
Every sum over those nodes (and the inversion's sum over the contour) is one
`util.exp_sum` call, which factors vertical lines into block products.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .charged import (
    ChargedLaurent,
    ChargedMeromorphicFunction,
    charged_product,
    negate_argument,
)
from .util import (
    DecayError,
    SeltraceError,
    exp_sum,
    gl_nodes,
    panel_gl_nodes,
    smooth_eta,
    smooth_eta_inf,
    trap_grid,
)

__all__ = [
    "TailDecayError",
    "CriticalExponentError",
    "ExponentTerm",
    "AsymptoticallyFiniteFunction",
    "TwoTermLaurent",
    "mellin",
    "mellin_inverse",
    "regularized_integral",
    "regularized_inner_product_direct",
    "plancherel_inner_product",
    "pw_decay_profile",
    "almost_l2_plancherel",
    "AlmostL2Data",
    "product_asfinite",
    "log_gaussian_core",
    "breakdown_to_csv",
]


class TailDecayError(SeltraceError):
    """The declared smooth core failed its sampled rapid-decay certificate."""


class CriticalExponentError(SeltraceError):
    """A zero exponent (or an exponent pair summing to zero) was hit."""


@dataclass(frozen=True)
class ExponentTerm:
    """One generalized eigenfunction term x^exponent * sum c_k (log x)^k.

    side "zero" means the term is active as x -> 0 (carrier on (0,1)), side
    "infinity" as x -> inf (carrier on [1, inf)).  Sharp carriers cut at
    x = 1 and have exact rational Mellin transforms; smooth carriers use the
    C^inf bump eta (1 on (0,1/2], 0 on [1,inf)) and fold the difference into
    the entire part of the transform.
    """

    exponent: complex
    log_poly: tuple = (1.0 + 0.0j,)
    side: str = "zero"
    carrier: str = "sharp"

    def __post_init__(self):
        object.__setattr__(self, "exponent", complex(self.exponent))
        object.__setattr__(self, "log_poly", tuple(complex(c) for c in self.log_poly))
        if self.side not in ("zero", "infinity"):
            raise ValueError("side must be 'zero' or 'infinity'")
        if self.carrier not in ("sharp", "smooth"):
            raise ValueError("carrier must be 'sharp' or 'smooth'")
        if len(self.log_poly) < 1:
            raise ValueError("log_poly must have at least one coefficient")

    def carrier_values(self, x):
        x = np.asarray(x, dtype=float)
        if self.carrier == "sharp":
            return (x < 1.0).astype(float) if self.side == "zero" else (x >= 1.0).astype(float)
        return smooth_eta(x) if self.side == "zero" else smooth_eta_inf(x)

    def bare_values(self, x):
        x = np.asarray(x, dtype=float)
        lx = np.log(x)
        poly = np.zeros_like(lx, dtype=complex)
        for c in reversed(self.log_poly):
            poly = poly * lx + c
        with np.errstate(over="ignore"):
            return poly * np.exp(self.exponent * lx)

    def __call__(self, x):
        return self.bare_values(x) * self.carrier_values(x)

    def charged_laurent(self) -> ChargedLaurent:
        """Exact pole data of the sharp-carrier Mellin transform."""
        coeffs = {}
        for k, c in enumerate(self.log_poly):
            if c == 0:
                continue
            sign = -1.0 if self.side == "zero" else 1.0
            coeffs[-(k + 1)] = sign * c * math.factorial(k)
        if self.side == "zero":
            return ChargedLaurent(location=self.exponent, plus=coeffs)
        return ChargedLaurent(location=self.exponent, minus=coeffs)


@dataclass(frozen=True)
class AsymptoticallyFiniteFunction:
    """Smooth rapidly-decaying core plus finitely many exponent terms."""

    core: Callable | None = None
    terms: tuple = ()
    tail_decay_hint: float = 8.0
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def core_values(self, x):
        x = np.asarray(x, dtype=float)
        if self.core is None:
            return np.zeros_like(x, dtype=complex)
        return np.asarray(self.core(x), dtype=complex)

    def __call__(self, x):
        out = self.core_values(x)
        for t in self.terms:
            out = out + t(x)
        return out

    def zero_exponents(self):
        return [t.exponent for t in self.terms if t.side == "zero"]

    def infinity_exponents(self):
        return [t.exponent for t in self.terms if t.side == "infinity"]

    def check_tail_decay(self, n_powers: int | None = None, u_samples=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0), tol: float = 1e-8):
        """Sampled certificate: core(x) x^(+-N) -> 0 at x = e^(+-u)."""
        n = int(n_powers if n_powers is not None else min(self.tail_decay_hint, 8))
        u = np.asarray(u_samples, dtype=float)
        for sgn in (+1.0, -1.0):
            # x -> inf: core * x^n must die; x -> 0: core * x^-n must die
            x = np.exp(sgn * u)
            vals = np.abs(self.core_values(x)) * x ** (sgn * n)
            if vals[-1] > tol and not np.all(np.diff(vals) <= 0):
                raise TailDecayError(
                    f"core fails x^{'+' if sgn>0 else '-'}{n} decay sampling: {vals}"
                )
        return True


@dataclass(frozen=True)
class TwoTermLaurent:
    """The germ a_{-1}/s + a_0 at s = 0."""

    a_minus1: complex
    a_0: complex

    def __iter__(self):
        yield self.a_minus1
        yield self.a_0


def log_gaussian_core(mu: float = 0.0, sigma: float = 1.0, amp: complex = 1.0):
    """amp * exp(-(log x - mu)^2 / (2 sigma^2)); Mellin transform
    amp * sigma * sqrt(2 pi) * exp(-mu s + sigma^2 s^2 / 2)."""

    def core(x):
        lx = np.log(np.asarray(x, dtype=float))
        return amp * np.exp(-((lx - mu) ** 2) / (2.0 * sigma**2))

    return core


# ----------------------------------------------------------------------------
# Mellin transform


@dataclass
class MellinOptions:
    u_max: float = 36.0
    du: float = 0.02
    strip: tuple[float, float] = (-8.0, 8.0)


def _core_transform(f: AsymptoticallyFiniteFunction, opts: MellinOptions):
    # composite Gauss-Legendre panels with an edge pinned at u = 0: cores are
    # smooth except possibly for a sharp-carrier jump at x = 1, and panel
    # width 0.25 keeps the rule spectrally accurate for |Im s| <= ~40
    n_panels = int(math.ceil(opts.u_max / 0.25))
    edges_pos = np.linspace(0.0, opts.u_max, n_panels + 1)
    u_pos, w_pos = panel_gl_nodes(edges_pos, 16)
    u = np.concatenate([-u_pos[::-1], u_pos])
    w = np.concatenate([w_pos[::-1], w_pos])
    nodes = [u]
    weighted = [f.core_values(np.exp(u)) * w]

    # smooth-carrier corrections (term minus its sharp twin) are entire but
    # live on a jump-bounded interval around x = 1; quadrature them on exact
    # Gauss-Legendre panels so the 1/s boundary tails cancel the rational
    # pole terms to spectral accuracy
    for t in f.terms:
        if t.carrier != "smooth":
            continue
        sharp = ExponentTerm(t.exponent, t.log_poly, t.side, "sharp")
        lo, hi = (-math.log(2.0), 0.0) if t.side == "zero" else (0.0, math.log(2.0))
        un, uw = gl_nodes(lo, hi, 96)
        xn = np.exp(un)
        nodes.append(un)
        weighted.append((t(xn) - sharp(xn)) * uw)

    u_all = np.concatenate(nodes)
    c_all = np.concatenate(weighted)

    def ev(s):
        return exp_sum(s, u_all, c_all)

    return ev


_MELLIN_CACHE: dict = {}


def mellin(
    f: AsymptoticallyFiniteFunction,
    opts: MellinOptions | None = None,
    check_decay: bool = True,
) -> ChargedMeromorphicFunction:
    """Charged Mellin transform: entire quadrature part + exact pole terms.

    Default-option transforms are memoized per function object (they are
    immutable), which makes repeated pairings against a fixed corpus cheap.
    """
    if opts is None and id(f) in _MELLIN_CACHE:
        cached_f, cached_F = _MELLIN_CACHE[id(f)]
        if cached_f is f:
            return cached_F
    cache_key = id(f) if opts is None else None
    opts = opts or MellinOptions()
    if check_decay and f.core is not None:
        f.check_tail_decay()
    core_ev = _core_transform(f, opts)

    def merge(pole_map, lau):
        key = next((k for k in pole_map if abs(k - lau.location) < 1e-12), None)
        if key is None:
            pole_map[lau.location] = lau
            return
        old = pole_map[key]
        plus = dict(old.plus)
        minus = dict(old.minus)
        for k, v in lau.plus.items():
            plus[k] = plus.get(k, 0.0) + v
        for k, v in lau.minus.items():
            minus[k] = minus.get(k, 0.0) + v
        pole_map[key] = ChargedLaurent(location=key, plus=plus, minus=minus)

    poles: dict[complex, ChargedLaurent] = {}
    sharp: dict[complex, ChargedLaurent] = {}
    for t in f.terms:
        lau = t.charged_laurent()
        if not lau.is_polar():
            continue
        merge(poles, lau)
        if t.carrier == "sharp":
            merge(sharp, lau)

    pole_list = tuple(p for p in poles.values() if p.is_polar())
    sharp_list = tuple(p for p in sharp.values() if p.is_polar())

    def ev(s):
        s = np.asarray(s, dtype=complex)
        out = core_ev(s)
        for p in pole_list:
            out = out + p.polar_eval(s)
        return out

    sharp_depths = [
        len(t.log_poly) for t in f.terms if t.carrier == "sharp" and any(c != 0 for c in t.log_poly)
    ]
    decay = ("polynomial", min(sharp_depths)) if sharp_depths else ("rapid", 0)
    out = ChargedMeromorphicFunction(
        evaluator=ev,
        poles=pole_list,
        strip=opts.strip,
        decay_class=decay,
        label=f.label,
        sharp_poles=sharp_list,
    )
    if cache_key is not None:
        if len(_MELLIN_CACHE) > 256:
            _MELLIN_CACHE.clear()
        _MELLIN_CACHE[cache_key] = (f, out)
    return out


# ----------------------------------------------------------------------------
# Inversion and Plancherel


@dataclass
class ContourOptions:
    t_max: float = 40.0
    dt: float = 1e-2
    tail_tol: float = 1e-9


@dataclass
class InversionContourOptions(ContourOptions):
    # sub-exponential (bump-carrier) remainders need a longer contour than
    # the pairing integrals; 120 stays inside the core quadrature's accurate
    # band (panel width 0.25, order 16)
    t_max: float = 120.0


def _polar_inverse_value(p: ChargedLaurent, x: float, sigma: float):
    """Closed-form (1/2 pi i) int over Re s = sigma of (polar part) x^s ds.

    Each monomial a (s-s0)^(-m) inverts to a x^s0 (log x)^(m-1) / (m-1)!,
    supported on x > 1 when the pole lies left of the contour and on x < 1
    (with a minus sign) when it lies right; on-contour poles take the
    principal-value half of both."""
    lx = math.log(x)
    base = 0.0 + 0.0j
    for m, a in p.total().items():
        k = -m - 1
        base += a * x**p.location.real * np.exp(1j * p.location.imag * lx) * lx**k / math.factorial(k)
    dre = p.location.real - sigma
    if abs(dre) < 1e-12:
        w = 0.5 * ((x > 1.0) - (x < 1.0))
    elif dre < 0:
        w = 1.0 if x > 1.0 else 0.0
    else:
        w = -1.0 if x < 1.0 else 0.0
    return w * base


def _charged_res_with_power(coeffs: dict, x: float) -> complex:
    """Res at s0 of (polar part) * x^s, divided by x^s0: for a coefficient a
    at order -(k+1) this is a (log x)^k / k!."""
    lx = math.log(x)
    out = 0.0 + 0.0j
    for m, a in coeffs.items():
        k = -m - 1
        out += a * lx**k / math.factorial(k)
    return out


def _residue_corrections_inverse(p: ChargedLaurent, x: float, sigma: float):
    """- Res+ of F(s) x^s (poles left of the contour) + Res- (right side),
    with principal-value halves on the contour itself."""
    rp = _charged_res_with_power(p.plus, x)
    rm = _charged_res_with_power(p.minus, x)
    xa = x**p.location.real * np.exp(1j * p.location.imag * math.log(x))
    dre = p.location.real - sigma
    if abs(dre) < 1e-12:
        return 0.5 * xa * (rm - rp)
    if dre < 0:
        return -xa * rp
    return xa * rm


def _line_remainder(F: ChargedMeromorphicFunction, sigma: float, t: np.ndarray, dt: float, pole_set=None):
    """F - (polar part over pole_set) on a vertical line, patched across the
    subtracted pole ordinates.

    The remainder is analytic there, but evaluating it as a difference at a
    node sitting (nearly) on a pole produces inf - inf; such nodes are
    replaced by the average of their clean neighbors."""
    pole_set = F.poles if pole_set is None else pole_set
    s = sigma + 1j * t
    with np.errstate(all="ignore"):
        vals = _line_values(F, sigma, t).copy()
        for p in pole_set:
            vals = vals - p.polar_eval(s)
    bad = ~np.isfinite(vals)
    for p in pole_set:
        bad |= np.abs(s - p.location) < 0.51 * dt
    if np.any(bad):
        idx = np.nonzero(bad)[0]
        for i in idx:
            lo = i - 1
            hi = i + 1
            while lo >= 0 and bad[lo]:
                lo -= 1
            while hi < len(t) and bad[hi]:
                hi += 1
            if lo >= 0 and hi < len(t):
                vals[i] = 0.5 * (vals[lo] + vals[hi])
            elif lo >= 0:
                vals[i] = vals[lo]
            elif hi < len(t):
                vals[i] = vals[hi]
            else:
                vals[i] = 0.0
    return vals


def _check_contour_decay(remainder_vals, ctr: ContourOptions, decay_class):
    band = remainder_vals[-max(8, len(remainder_vals) // 50):]
    level = float(np.max(np.abs(band)))
    # crude tail estimate: level * remaining width under 1/t^2 decay
    est = level * ctr.t_max
    if decay_class[0] == "rapid":
        return
    if est > ctr.tail_tol * 1e3 and level > ctr.tail_tol:
        raise DecayError(
            f"contour remainder level {level:.2e} near t_max={ctr.t_max} too large"
        )


def mellin_inverse(
    F: ChargedMeromorphicFunction,
    sigma: float,
    x,
    ctr: ContourOptions | None = None,
):
    """Inverse transform at abscissa sigma with charged residue bookkeeping."""
    ctr = ctr or InversionContourOptions()
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    rational = F.rational_poles
    for p in F.poles:
        if p not in rational and abs(p.location.real - sigma) < 1e-12:
            raise DecayError(
                "abscissa passes through a non-rational pole; shift sigma"
            )
    t, w = trap_grid(ctr.t_max, ctr.dt)
    remainder = _line_remainder(F, sigma, t, ctr.dt, rational)
    _check_contour_decay(remainder, ctr, F.decay_class)
    contour = exp_sum(-1j * np.log(xs), t, remainder * w) / (2.0 * np.pi) * xs**sigma

    out = contour.astype(complex)
    for i, xv in enumerate(xs):
        for p in rational:
            out[i] += _polar_inverse_value(p, float(xv), sigma)
        for p in F.poles:
            out[i] += _residue_corrections_inverse(p, float(xv), sigma)
    return out[0] if scalar else out


def regularized_integral(f: AsymptoticallyFiniteFunction, opts: MellinOptions | None = None):
    """Regularized integral over the half-line = Mellin transform at s = 0."""
    for a in f.zero_exponents() + f.infinity_exponents():
        if abs(a) < 1e-12:
            raise CriticalExponentError("exponent 0 present; regularized integral undefined")
    F = mellin(f, opts)
    return complex(F(0.0))


def product_asfinite(
    f1: AsymptoticallyFiniteFunction, f2: AsymptoticallyFiniteFunction
) -> AsymptoticallyFiniteFunction:
    """Pointwise product as an asymptotically finite function.

    Same-side term products keep exact sharp-carrier bookkeeping; everything
    else (core x core, core x term, carrier mismatches, cross-side overlaps)
    decays rapidly and is folded into the product core.
    """
    new_terms = []
    for t1 in f1.terms:
        for t2 in f2.terms:
            if t1.side != t2.side:
                continue
            conv = np.convolve(np.asarray(t1.log_poly), np.asarray(t2.log_poly))
            new_terms.append(
                ExponentTerm(t1.exponent + t2.exponent, tuple(conv), t1.side, "sharp")
            )
    sharp_terms = tuple(new_terms)
    # pairs whose product is not captured (exactly) by a sharp term: same-side
    # smooth carriers, and cross-side smooth overlaps near x = 1
    leftover_pairs = []
    for t1 in f1.terms:
        for t2 in f2.terms:
            if t1.side == t2.side:
                if t1.carrier == "sharp" and t2.carrier == "sharp":
                    continue  # identical to the sharp product term
                conv = np.convolve(np.asarray(t1.log_poly), np.asarray(t2.log_poly))
                sharp = ExponentTerm(t1.exponent + t2.exponent, tuple(conv), t1.side, "sharp")
                leftover_pairs.append((t1, t2, sharp))
            elif t1.carrier == "smooth" or t2.carrier == "smooth":
                leftover_pairs.append((t1, t2, None))

    def core(x):
        # grouped to avoid the catastrophic cancellation of evaluating
        # f1 f2 - terms at the far tails
        x = np.asarray(x, dtype=float)
        total = f1.core_values(x) * f2(x)
        c2 = f2.core_values(x)
        for t1 in f1.terms:
            total = total + t1(x) * c2
        for t1, t2, sharp in leftover_pairs:
            prod = t1(x) * t2(x)
            if sharp is not None:
                prod = prod - sharp(x)
            total = total + prod
        return total

    hint = min(f1.tail_decay_hint, f2.tail_decay_hint)
    return AsymptoticallyFiniteFunction(
        core=core, terms=sharp_terms, tail_decay_hint=hint,
        label=f"({f1.label})*({f2.label})" if f1.label and f2.label else "",
    )


def regularized_inner_product_direct(
    f1: AsymptoticallyFiniteFunction,
    f2: AsymptoticallyFiniteFunction,
    opts: MellinOptions | None = None,
):
    """Bilinear regularized pairing via the product's regularized integral."""
    for a1 in f1.zero_exponents():
        for a2 in f2.zero_exponents():
            if abs(a1 + a2) < 1e-12:
                raise CriticalExponentError(f"zero-side exponents {a1} + {a2} = 0")
    for a1 in f1.infinity_exponents():
        for a2 in f2.infinity_exponents():
            if abs(a1 + a2) < 1e-12:
                raise CriticalExponentError(f"infinity-side exponents {a1} + {a2} = 0")
    return regularized_integral(product_asfinite(f1, f2), opts)


_LINE_CACHE: dict = {}
_NEG_CACHE: dict = {}


def _cached_negation(F: ChargedMeromorphicFunction) -> ChargedMeromorphicFunction:
    hit = _NEG_CACHE.get(id(F))
    if hit is not None and hit[0] is F:
        return hit[1]
    out = negate_argument(F)
    if len(_NEG_CACHE) > 128:
        _NEG_CACHE.clear()
    _NEG_CACHE[id(F)] = (F, out)
    return out


def _line_values(F: ChargedMeromorphicFunction, sigma: float, t: np.ndarray) -> np.ndarray:
    """F on a vertical-line grid, memoized per (function, line) pair."""
    key = (id(F), float(sigma), float(t[0]), float(t[-1]), len(t))
    hit = _LINE_CACHE.get(key)
    if hit is not None and hit[0] is F:
        return hit[1]
    with np.errstate(all="ignore"):
        vals = F(sigma + 1j * t)
    if len(_LINE_CACHE) > 64:
        _LINE_CACHE.clear()
    _LINE_CACHE[key] = (F, vals)
    return vals


def _rational_pair_contour(poles1, poles2, sigma: float) -> complex:
    """(1/2 pi i) PV-integral over Re s = sigma of P1(s) P2(s) for two exact
    rational polar sums.

    The product decays at least like 1/s^2, so the principal-value line
    integral equals the residue sum over poles left of the contour plus half
    of any residues sitting on it.  Residues are evaluated in closed form via
    the binomial expansion of (s-b)^(-n) around the other pole.
    """
    total = 0.0 + 0.0j
    for pa in poles1:
        for pb in poles2:
            a_loc, b_loc = pa.location, pb.location
            for m_ord, a in pa.total().items():
                m = -m_ord
                for n_ord, b in pb.total().items():
                    n = -n_ord
                    if abs(a_loc - b_loc) < 1e-12:
                        continue  # merged pole of order m+n >= 2: no residue
                    for loc, mm, other, nn in ((a_loc, m, b_loc, n), (b_loc, n, a_loc, m)):
                        k = mm - 1
                        coeff = (-1.0) ** k * math.comb(nn + k - 1, k) * (loc - other) ** (-(nn + k))
                        res = a * b * coeff
                        dre = loc.real - sigma
                        if abs(dre) < 1e-12:
                            total += 0.5 * res
                        elif dre < 0:
                            total += res
    return total


def _split_contour(
    F1: ChargedMeromorphicFunction,
    F2n: ChargedMeromorphicFunction,
    sigma: float,
    ctr: ContourOptions,
) -> complex:
    """(1/2 pi i) PV-integral of F1(s) F2n(s) over Re s = sigma.

    Factor split (E1 + P1)(E2 + P2), where P collects the sharp-carrier
    rational polar parts and E is everything else (rapidly decaying on
    verticals): the three E-containing pieces go through the trapezoid rule,
    P1 P2 is exact residue calculus over the full line.  A single simple pole
    on the contour is handled as a principal value by centering the grid on
    its ordinate (odd singular parts cancel pairwise; the center node takes
    the average of its neighbors, which is the regularized value).
    """
    online = [
        p
        for F in (F1, F2n)
        for p in F.poles
        if abs(p.location.real - sigma) < 1e-12 and p.is_polar()
    ]
    for p in online:
        if p.order < -1:
            raise DecayError("on-contour poles of order >= 2 are not integrable (PV)")
    ordinates = sorted({round(p.location.imag, 9) for p in online})
    if len(ordinates) > 1:
        raise DecayError("multiple distinct on-contour pole ordinates are unsupported")
    center = ordinates[0] if ordinates else 0.0

    n = int(round(ctr.t_max / ctr.dt))
    t = center + ctr.dt * np.arange(-n, n + 1)
    w = np.full(t.shape, ctr.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    s_line = sigma + 1j * t

    rp1 = F1.rational_poles
    rp2 = F2n.rational_poles
    e1 = _line_remainder(F1, sigma, t, ctr.dt, rp1)
    e2 = _line_remainder(F2n, sigma, t, ctr.dt, rp2)
    with np.errstate(all="ignore"):
        p1 = np.zeros_like(s_line)
        for p in rp1:
            p1 = p1 + p.polar_eval(s_line)
        p2 = np.zeros_like(s_line)
        for p in rp2:
            p2 = p2 + p.polar_eval(s_line)
    with np.errstate(all="ignore"):
        mixed = e1 * e2 + e1 * p2 + p1 * e2
    # the quadrature integrand must have decayed by the end of the contour
    band = np.abs(mixed[-40:])
    band = band[np.isfinite(band)]
    scale = 1.0 + float(np.nanmax(np.abs(np.where(np.isfinite(mixed), mixed, 0.0))))
    if band.size and np.max(band) > 2e-5 * scale:
        raise DecayError(
            "contour integrand has not decayed by t_max; declared decay is insufficient"
        )
    if ordinates:
        # patch the center node: for a simple pole the symmetric combination
        # of neighbors cancels the odd kernel; the 4-point rule is O(dt^4) on
        # the regular part
        mixed[n] = (4.0 * (mixed[n - 1] + mixed[n + 1]) - (mixed[n - 2] + mixed[n + 2])) / 6.0
    good = np.isfinite(mixed)
    if not np.all(good):
        mixed[~good] = np.interp(t[~good], t[good], mixed[good].real) + 1j * np.interp(
            t[~good], t[good], mixed[good].imag
        )
    contour = np.sum(mixed * w) / (2.0 * np.pi)
    contour += _rational_pair_contour(rp1, rp2, sigma)
    return complex(contour)


def plancherel_inner_product(
    f1: AsymptoticallyFiniteFunction,
    f2: AsymptoticallyFiniteFunction,
    sigma: float = 0.0,
    opts: MellinOptions | None = None,
    ctr: ContourOptions | None = None,
):
    """Spectral-side pairing: contour integral of F1(s) F2(-s) plus residues.

    The contour integrand is split by factors, F1 F2~ = (E1 + P1)(E2 + P2)
    with E entire/rapid-decay and P exact rational polar sums: the three
    pieces containing an E factor decay rapidly and go through the trapezoid
    rule, while P1 P2 is integrated exactly by residues.  This keeps every
    quadrature rapidly convergent regardless of sharp-carrier 1/s tails.

    Returns (value, breakdown); the breakdown reports the honest contour
    value at the requested abscissa plus one entry per charged pole, so
    moving sigma across a pole reallocates between entries while the total
    stays put.
    """
    ctr = ctr or ContourOptions()
    F1 = mellin(f1, opts)
    F2n = _cached_negation(mellin(f2, opts))
    H = charged_product(F1, F2n)
    contour_honest = _split_contour(F1, F2n, sigma, ctr)

    breakdown = []
    total = contour_honest
    for p in H.poles:
        rp = p.plus.get(-1, 0.0 + 0.0j)
        rm = p.minus.get(-1, 0.0 + 0.0j)
        dre = p.location.real - sigma
        if abs(dre) < 1e-12:
            term = 0.5 * (rm - rp)
            row = {"term_kind": "pv_half_residue", "location": p.location, "charge": "both", "value": term}
        elif dre < 0:
            term = -rp
            row = {"term_kind": "residue", "location": p.location, "charge": "plus", "value": term}
        else:
            term = rm
            row = {"term_kind": "residue", "location": p.location, "charge": "minus", "value": term}
        if term != 0:
            breakdown.append(row)
        total += term
    breakdown.insert(
        0, {"term_kind": "contour", "location": complex(sigma, 0.0), "charge": "", "value": contour_honest}
    )
    return complex(total), breakdown


def pw_decay_profile(
    f: AsymptoticallyFiniteFunction,
    strip: tuple[float, float] = (-1.0, 1.0),
    n_power: int = 6,
    opts: MellinOptions | None = None,
    t_bands=(2.0, 5.0, 10.0, 20.0, 40.0),
    exclusion_radius: float = 0.05,
) -> dict:
    """Sample sup |F(sigma+it)| (1+|t|)^N over a strip, flagging growth.

    The report carries the sup and a verdict: decay is "confirmed" when the
    weighted sup decreases from each t-band to the next past the first knee.
    """
    F = mellin(f, opts)
    sigmas = np.linspace(strip[0], strip[1], 9)
    band_sups = []
    for lo, hi in zip((0.0,) + tuple(t_bands[:-1]), t_bands):
        sup = 0.0
        t = np.linspace(lo, hi, 160)
        for sg in sigmas:
            s = sg + 1j * t
            mask = np.ones_like(t, dtype=bool)
            for p in F.poles:
                mask &= np.abs(s - p.location) > exclusion_radius
            if not np.any(mask):
                continue
            vals = np.abs(F(s[mask])) * (1.0 + np.abs(t[mask])) ** n_power
            sup = max(sup, float(np.max(vals)))
        band_sups.append(sup)
    overall = max(band_sups)
    tail = band_sups[1:]
    # quadrature noise times the polynomial weight sets an honest floor below
    # which band sups are indistinguishable from zero
    floor = 1e-12 * (1.0 + t_bands[-1]) ** n_power * (1.0 + overall)
    decaying = all(b <= max(a * 1.05, floor) for a, b in zip(tail[:-1], tail[1:]))
    return {
        "sup": overall,
        "band_sups": band_sups,
        "bounded_looking": bool(decaying),
        "n_power": n_power,
        "strip": strip,
    }


@dataclass(frozen=True)
class AlmostL2Data:
    """Transform-side data for a function that is only asymptotically finite
    near infinity: an evaluator valid on Re s <= 0 and the charged minus
    residues at infinity-side exponents with Re > 0 (defined even where the
    transform itself is not)."""

    transform: ChargedMeromorphicFunction
    infinity_residues: tuple = ()  # ((exponent, minus residue), ...)


def almost_l2_plancherel(
    f1: AsymptoticallyFiniteFunction,
    f2data: AlmostL2Data,
    ctr: ContourOptions | None = None,
    opts: MellinOptions | None = None,
):
    """Plancherel pairing at sigma = 0 using only Re <= 0 data for f2.

    f1 must decay rapidly toward 0 (no zero-side exponents); its transform is
    then analytic left of its infinity-side poles and the decomposition needs:
      * the PV contour integral of F1(it) F2(-it),
      * minus-residue terms from f1's infinity exponents with Re > 0,
      * plus-residue terms from f2's infinity exponents (stored residues).
    """
    if f1.zero_exponents():
        raise CriticalExponentError("f1 must be rapidly decaying near 0")
    ctr = ctr or ContourOptions()
    F1 = mellin(f1, opts)
    F2 = f2data.transform

    for a1 in f1.infinity_exponents():
        for a2, _ in f2data.infinity_residues:
            if abs(a1 + a2) < 1e-12:
                raise CriticalExponentError(f"infinity exponents {a1} + {a2} = 0")
    for p in F1.poles:
        if abs(p.location.real) < 1e-9 and p.location.imag != 0.0:
            raise DecayError("on-line exponents away from 0 are not supported here")

    t, w = trap_grid(ctr.t_max, ctr.dt)
    # honest contour integral of F1(s) F2(-s) on Re s = 0; the decay is
    # governed by the assumed strip estimate for F2
    s = 1j * t
    vals = F1(s) * F2(-s)
    contour = np.sum(vals * w) / (2.0 * np.pi)

    total = contour
    breakdown = [{"term_kind": "contour", "location": 0.0j, "charge": "", "value": contour}]
    # minus residues of F1 at f1's infinity exponents, Re > 0
    for p in F1.poles:
        rm = p.minus.get(-1, 0.0 + 0.0j)
        if rm == 0 or p.location.real <= 1e-12:
            continue
        term = rm * complex(F2(-p.location))
        total += term
        breakdown.append(
            {"term_kind": "residue", "location": p.location, "charge": "minus", "value": term}
        )
    for a2, r2 in f2data.infinity_residues:
        # F2(-s) carries a plus pole at -a2 with residue -r2; the Re < 0 plus
        # sum enters with a minus sign, contributing +r2 F1(-a2)
        term = complex(r2) * complex(F1(-complex(a2)))
        total += term
        breakdown.append(
            {"term_kind": "residue", "location": -complex(a2), "charge": "plus", "value": term}
        )
    return complex(total), breakdown


def breakdown_to_csv(breakdown: Iterable[dict], path: str):
    """Write a pairing breakdown as CSV (term_kind, location, charge, value)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["term_kind", "location_re", "location_im", "charge", "value_re", "value_im"])
        for row in breakdown:
            loc = complex(row["location"])
            val = complex(row["value"])
            wr.writerow(
                [
                    row["term_kind"],
                    f"{loc.real:.12e}",
                    f"{loc.imag:.12e}",
                    row["charge"],
                    f"{val.real:.12e}",
                    f"{val.imag:.12e}",
                ]
            )
