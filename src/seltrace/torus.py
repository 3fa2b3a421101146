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
`util.exp_sum` call, which factors a vertical line of s, or the contour's
uniform nodes, into block products and first drops the nodes whose terms add
up to at most 2^-60 of every row's absolute sum: a log-Gaussian core keeps
about 600-1,000 of its 4,608 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .charged import (
    ChargedLaurent,
    ChargedMeromorphicFunction,
    charged_product,
    merge_poles,
    negate_argument,
    same_pole,
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
    "mellin",
    "mellin_inverse",
    "regularized_integral",
    "regularized_inner_product_direct",
    "plancherel_inner_product",
    "pw_decay_profile",
    "product_asfinite",
    "log_gaussian_core",
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
    """Smooth rapidly-decaying core plus finitely many exponent terms.

    The terms' values are added into the core's in place, so `core` must
    return a new array (or a scalar) on every call."""

    core: Callable | None = None
    terms: tuple = ()

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
            out += t(x)
        return out

    def zero_exponents(self):
        return [t.exponent for t in self.terms if t.side == "zero"]

    def infinity_exponents(self):
        return [t.exponent for t in self.terms if t.side == "infinity"]

    def check_tail_decay(self):
        """Sampled certificate: core(x) x^(+-N) -> 0 at x = e^(+-u), for
        u = 5, 10, ..., 30 and N = 8; a core fails when the last sample
        exceeds 1e-8 and the samples do not decrease."""
        n = 8
        u = np.asarray((5.0, 10.0, 15.0, 20.0, 25.0, 30.0), dtype=float)
        for sgn in (+1.0, -1.0):
            # x -> inf: core * x^n must die; x -> 0: core * x^-n must die
            x = np.exp(sgn * u)
            vals = np.abs(self.core_values(x)) * x ** (sgn * n)
            if vals[-1] > 1e-8 and not np.all(np.diff(vals) <= 0):
                raise TailDecayError(
                    f"core fails x^{'+' if sgn>0 else '-'}{n} decay sampling: {vals}"
                )
        return True


def log_gaussian_core(mu: float = 0.0, sigma: float = 1.0, amp: complex = 1.0):
    """amp * exp(-(log x - mu)^2 / (2 sigma^2)); Mellin transform
    amp * sigma * sqrt(2 pi) * exp(-mu s + sigma^2 s^2 / 2).

    The core runs the chain log, -mu, square, negate, / 2 sigma^2, exp in
    place on one array, in the order of the formula, so its values are those
    of the formula bit for bit; a complex amp takes one more array."""

    def core(x):
        x = np.asarray(x, dtype=float)
        v = np.log(x, out=np.empty(x.shape))
        v -= mu
        np.square(v, out=v)
        np.negative(v, out=v)
        v /= 2.0 * sigma**2
        np.exp(v, out=v)
        if np.iscomplexobj(amp):
            return amp * v
        v *= amp
        return v

    return core


# ----------------------------------------------------------------------------
# Mellin transform


# half-width of the core quadrature in u = log x
_CORE_U_MAX = 36.0


def _core_transform(f: AsymptoticallyFiniteFunction):
    # composite Gauss-Legendre panels with an edge pinned at u = 0: cores are
    # smooth except possibly for a sharp-carrier jump at x = 1, and panel
    # width 0.25 keeps the rule spectrally accurate for |Im s| <= ~40
    n_panels = int(math.ceil(_CORE_U_MAX / 0.25))
    edges_pos = np.linspace(0.0, _CORE_U_MAX, n_panels + 1)
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
        sharp = replace(t, carrier="sharp")
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


@lru_cache(maxsize=32)
def mellin(f: AsymptoticallyFiniteFunction) -> ChargedMeromorphicFunction:
    """Charged Mellin transform: entire quadrature part + exact pole terms.

    The evaluator is the core quadrature plus the polar parts of the
    smooth-carrier poles; the sharp-carrier polar parts are the transform's
    rational part (`rational_poles`), held apart from it.  Transforms are
    memoized per function (functions are immutable), which makes repeated
    pairings against a fixed corpus cheap.
    """
    if f.core is not None:
        f.check_tail_decay()
    core_ev = _core_transform(f)
    pole_list = merge_poles(t.charged_laurent() for t in f.terms)
    sharp_list = merge_poles(t.charged_laurent() for t in f.terms if t.carrier == "sharp")
    smooth_list = merge_poles(t.charged_laurent() for t in f.terms if t.carrier == "smooth")

    def ev(s):
        s = np.asarray(s, dtype=complex)
        out = core_ev(s)
        for p in smooth_list:
            out = out + p.polar_eval(s)
        return out

    return ChargedMeromorphicFunction(evaluator=ev, poles=pole_list, rational_poles=sharp_list)


# ----------------------------------------------------------------------------
# Inversion and Plancherel


# Contour budgets: trapezoid step, line half-lengths and the decay tolerance
# of the inversion's tail band.  Sub-exponential (bump-carrier) remainders
# need a longer inversion line than the pairing integrals; 120 stays inside
# the core quadrature's accurate band (panel width 0.25, order 16)
_LINE_DT = 1e-2
_PAIRING_T_MAX = 40.0
_INVERSE_T_MAX = 120.0
_TAIL_TOL = 1e-9
# least distance from a contour to a pole whose polar part it samples: a
# smooth x^a on a log-Gaussian core inverts to the error floor (~5e-6) from
# 0.03 on, and misses by up to 4.5e-5 at 0.02 and 2.3e-2 at 0.01; paired
# against a log-Gaussian, it misses by 1.9e-8 at 0.03 and 1.5e-10 at 0.04
_POLE_CLEARANCE = 4 * _LINE_DT


def _side(location: complex, sigma: float) -> int:
    """-1, 0 or +1 as a pole at `location` lies left of, on or right of the
    contour Re s = sigma."""
    dre = location.real - sigma
    if abs(dre) < 1e-12:
        return 0
    return -1 if dre < 0 else 1


def _check_pole_clearance(poles, sigma: float):
    """Raise DecayError when a pole of `poles` lies within `_POLE_CLEARANCE`
    of the line Re s = sigma: a trapezoid rule at step `_LINE_DT` cannot
    resolve a polar part that close to its line."""
    for p in poles:
        dist = abs(p.location.real - sigma)
        if dist < _POLE_CLEARANCE:
            raise DecayError(
                f"pole at {p.location:.6g} lies {dist:.3g} from the abscissa "
                f"sigma = {sigma:.6g} (< {_POLE_CLEARANCE:.3g}); shift sigma"
            )


def _charged_term(side: int, res_plus, res_minus):
    """What a charged pole on `side` of the contour adds to the contour
    integral: -Res+ left of it, +Res- right of it, and the principal-value
    half (Res- - Res+)/2 on it."""
    if side == 0:
        return 0.5 * (res_minus - res_plus)
    return -res_plus if side < 0 else res_minus


def _x_power(s0: complex, x: np.ndarray):
    return x**s0.real * np.exp(1j * s0.imag * np.log(x))


def _charged_res_with_power(coeffs: dict, x: np.ndarray):
    """Res at s0 of (polar part) * x^s, divided by x^s0: for a coefficient a
    at order -(k+1) this is a (log x)^k / k!."""
    lx = np.log(x)
    out = np.zeros(x.shape, dtype=complex)
    for m, a in coeffs.items():
        k = -m - 1
        out = out + a * lx**k / math.factorial(k)
    return out


def _evaluator_poles(F: ChargedMeromorphicFunction) -> tuple:
    """F's poles less its rational part, chargewise: the polar parts that
    F's evaluator holds."""
    neg = [ChargedLaurent(p.location, *({k: -v for k, v in c.items()} for c in (p.plus, p.minus)))
           for p in F.rational_poles]
    return merge_poles([*F.poles, *neg])


def mellin_inverse(F: ChargedMeromorphicFunction, sigma: float, x):
    """Inverse transform at abscissa sigma with charged residue bookkeeping.

    The contour runs over |Im s| <= `_INVERSE_T_MAX` at step `_LINE_DT` and
    samples F's evaluator, whose poles take the residue corrections of their
    side of it.  Its nodes t are a progression, so the sum over them at every
    x is `util.exp_sum`'s factored node path: about 2 sqrt(n_t) exponentials
    per x in place of n_t.  A rational pole at a inverts to its sharp term in
    closed form, the same at every sigma: x^a R-(x) on x > 1, -x^a R+(x) on
    x < 1, half of each at x = 1 (R+- as in `_charged_res_with_power`).
    Raises DecayError when a transform with a rational part (sharp carriers,
    so polynomial decay) has not decayed by either end of it, or when a
    non-rational pole lies within `_POLE_CLEARANCE` of the abscissa: the
    evaluator holds its polar part (`_check_pole_clearance`).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    rational = F.rational_poles
    sampled = _evaluator_poles(F)
    _check_pole_clearance(sampled, sigma)
    t, w = trap_grid(_INVERSE_T_MAX, _LINE_DT)
    remainder = F.evaluator(sigma + 1j * t)
    if rational:
        n = max(8, len(remainder) // 50)
        level = float(max(np.max(np.abs(remainder[:n])), np.max(np.abs(remainder[-n:]))))
        # crude tail estimate: level * remaining width under 1/t^2 decay
        if level * _INVERSE_T_MAX > _TAIL_TOL * 1e3 and level > _TAIL_TOL:
            raise DecayError(
                f"contour remainder level {level:.2e} near t_max={_INVERSE_T_MAX} too large"
            )
    out = exp_sum(-1j * np.log(xs), t, remainder * w) / (2.0 * np.pi) * xs**sigma
    out = out.astype(complex)
    above, below = np.heaviside(xs - 1.0, 0.5), np.heaviside(1.0 - xs, 0.5)
    for p in rational:
        rp, rm = _charged_res_with_power(p.plus, xs), _charged_res_with_power(p.minus, xs)
        out = out + _x_power(p.location, xs) * (above * rm - below * rp)
    for p in sampled:
        rp, rm = _charged_res_with_power(p.plus, xs), _charged_res_with_power(p.minus, xs)
        out = out + _x_power(p.location, xs) * _charged_term(_side(p.location, sigma), rp, rm)
    return out[0] if scalar else out


def regularized_integral(f: AsymptoticallyFiniteFunction):
    """Regularized integral over the half-line = Mellin transform at s = 0."""
    for a in f.zero_exponents() + f.infinity_exponents():
        if abs(a) < 1e-12:
            raise CriticalExponentError("exponent 0 present; regularized integral undefined")
    F = mellin(f)
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
    same_side, cross_side = [], []
    for t1 in f1.terms:
        for t2 in f2.terms:
            if t1.side == t2.side:
                if t1.carrier == "sharp" and t2.carrier == "sharp":
                    continue  # identical to the sharp product term
                same_side.append((t1, t2, replace(t1, carrier="sharp"), replace(t2, carrier="sharp")))
            elif t1.carrier == "smooth" or t2.carrier == "smooth":
                cross_side.append((t1, t2))

    def core(x):
        # grouped to avoid the catastrophic cancellation of evaluating
        # f1 f2 - terms at the far tails
        x = np.asarray(x, dtype=float)
        total = f1.core_values(x) * f2(x)
        c2 = f2.core_values(x)
        for t1 in f1.terms:
            total = total + t1(x) * c2
        # t1 t2 - s1 s2 = (t1 - s1) t2 + s1 (t2 - s2) with s the sharp twins:
        # a term and its twin agree exactly wherever the smooth carrier is 0
        # or 1, so the leftover is exactly 0 off the transition bands
        for t1, t2, s1, s2 in same_side:
            total = total + ((t1(x) - s1(x)) * t2(x) + s1(x) * (t2(x) - s2(x)))
        for t1, t2 in cross_side:
            total = total + t1(x) * t2(x)
        return total

    return AsymptoticallyFiniteFunction(core=core, terms=sharp_terms)


def regularized_inner_product_direct(
    f1: AsymptoticallyFiniteFunction,
    f2: AsymptoticallyFiniteFunction,
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
    return regularized_integral(product_asfinite(f1, f2))


_cached_negation = lru_cache(maxsize=16)(negate_argument)


@lru_cache(maxsize=16)
def _cached_product(F1: ChargedMeromorphicFunction, F2n: ChargedMeromorphicFunction) -> ChargedMeromorphicFunction:
    """The charged product whose poles give a pairing's residue terms; it
    does not depend on the abscissa, so it is built once per transform pair."""
    return charged_product(F1, F2n)


@lru_cache(maxsize=16)
def _line_values(F: ChargedMeromorphicFunction, sigma: float, center: float) -> np.ndarray:
    """F's evaluator on the pairing line sigma + i (center + t), t the nodes
    of `trap_grid(_PAIRING_T_MAX, _LINE_DT)`, memoized per (function, line)
    pair."""
    with np.errstate(all="ignore"):
        return F.evaluator(sigma + 1j * (center + trap_grid(_PAIRING_T_MAX, _LINE_DT)[0]))


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
                    if same_pole(a_loc, b_loc):
                        continue  # merged pole of order m+n >= 2: no residue
                    for loc, mm, other, nn in ((a_loc, m, b_loc, n), (b_loc, n, a_loc, m)):
                        k = mm - 1
                        coeff = (-1.0) ** k * math.comb(nn + k - 1, k) * (loc - other) ** (-(nn + k))
                        res = a * b * coeff
                        # res as a plus charge: all of it left of the contour, half on it
                        total += _charged_term(_side(loc, sigma), -res, 0.0)
    return total


def _split_contour(
    F1: ChargedMeromorphicFunction,
    F2n: ChargedMeromorphicFunction,
    sigma: float,
) -> complex:
    """(1/2 pi i) PV-integral of F1(s) F2n(s) over Re s = sigma.

    Factor split (E1 + P1)(E2 + P2), where P is a transform's rational part
    and E its evaluator (rapidly decaying on verticals): the three
    E-containing pieces go through the trapezoid rule, P1 P2 is exact residue
    calculus over the full line.  A single simple pole on the contour is
    handled as a principal value by centering the grid on its ordinate (odd
    singular parts cancel pairwise; the center node takes a symmetric
    combination of its neighbors, which is the regularized value).  Every
    node but the center lies at least `_LINE_DT` from each pole on the
    contour and off the line from every other pole, so only the center can
    be non-finite.  The pieces sample both factors' polar parts, so a pole
    of either off the line but within `_POLE_CLEARANCE` of it raises
    DecayError (`_check_pole_clearance`), as does an integrand that has not
    decayed by either end of the line.
    """
    _check_pole_clearance([p for F in (F1, F2n) for p in F.poles if _side(p.location, sigma) != 0], sigma)
    online = [
        p
        for F in (F1, F2n)
        for p in F.poles
        if _side(p.location, sigma) == 0 and p.is_polar()
    ]
    for p in online:
        if p.order < -1:
            raise DecayError("on-contour poles of order >= 2 are not integrable (PV)")
    ordinates = sorted({round(p.location.imag, 9) for p in online})
    if len(ordinates) > 1:
        raise DecayError("multiple distinct on-contour pole ordinates are unsupported")
    center = ordinates[0] if ordinates else 0.0

    t, w = trap_grid(_PAIRING_T_MAX, _LINE_DT)
    n = t.size // 2
    s_line = sigma + 1j * (center + t)

    # partner transforms recur across pairings, so their lines are memoized
    line = (float(sigma), float(center))
    e1 = _line_values(F1, *line)
    e2 = _line_values(F2n, *line)
    with np.errstate(all="ignore"):
        p1 = F1.rational_part(s_line)
        p2 = F2n.rational_part(s_line)
        mixed = e1 * e2 + e1 * p2 + p1 * e2
    if ordinates:
        # patch the center node: for a simple pole the symmetric combination
        # of neighbors cancels the odd kernel; the 4-point rule is O(dt^4) on
        # the regular part
        mixed[n] = (4.0 * (mixed[n - 1] + mixed[n + 1]) - (mixed[n - 2] + mixed[n + 2])) / 6.0
    # the quadrature integrand must have decayed by both ends of the contour:
    # a tail band above 1e-10 of its scale means the cut at |t| = t_max
    # drops a visible part of the pairing
    band = float(max(np.max(np.abs(mixed[:40])), np.max(np.abs(mixed[-40:]))))
    scale = 1.0 + float(np.max(np.abs(mixed)))
    if band > 1e-10 * scale:
        raise DecayError(
            f"contour integrand is still {band:.2e} (scale {scale:.2e}) at "
            f"t_max={_PAIRING_T_MAX}; declared decay is insufficient"
        )
    contour = np.sum(mixed * w) / (2.0 * np.pi)
    contour += _rational_pair_contour(F1.rational_poles, F2n.rational_poles, sigma)
    return complex(contour)


def plancherel_inner_product(
    f1: AsymptoticallyFiniteFunction,
    f2: AsymptoticallyFiniteFunction,
    sigma: float = 0.0,
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
    F1 = mellin(f1)
    F2n = _cached_negation(mellin(f2))
    H = _cached_product(F1, F2n)
    contour_honest = _split_contour(F1, F2n, sigma)

    breakdown = []
    total = contour_honest
    for p in H.poles:
        side = _side(p.location, sigma)
        term = _charged_term(side, p.plus.get(-1, 0.0 + 0.0j), p.minus.get(-1, 0.0 + 0.0j))
        if term != 0:
            breakdown.append({
                "term_kind": "residue" if side else "pv_half_residue",
                "location": p.location,
                "charge": ("plus", "both", "minus")[side + 1],
                "value": term,
            })
        total += term
    breakdown.insert(
        0, {"term_kind": "contour", "location": complex(sigma, 0.0), "charge": "", "value": contour_honest}
    )
    return complex(total), breakdown


# the |t|-bands of `pw_decay_profile`, and the radius of the disks around
# poles that it leaves out
_PW_T_BANDS = (2.0, 5.0, 10.0, 20.0, 40.0)
_PW_EXCLUSION_RADIUS = 0.05


def pw_decay_profile(
    f: AsymptoticallyFiniteFunction,
    strip: tuple[float, float] = (-1.0, 1.0),
    n_power: int = 6,
) -> dict:
    """Sample sup |F(sigma+it)| (1+|t|)^N over a strip, flagging growth.

    Each of 9 sigmas is sampled once, on one line t in [0, 40] at step 0.05
    (a vertical progression, which `util.exp_sum` factors); a band's sup is
    the largest weighted sample of its slice [lo, hi] of the line, leaving
    out the samples within `_PW_EXCLUSION_RADIUS` of a pole.
    The report carries the sup and a verdict: decay is "confirmed" when the
    weighted sup decreases from each t-band to the next past the first knee.
    """
    F = mellin(f)
    sigmas = np.linspace(strip[0], strip[1], 9)
    # step 0.05: every band edge is a sample
    t = np.linspace(0.0, _PW_T_BANDS[-1], 801)
    weight = (1.0 + t) ** n_power
    bands = [(t >= lo) & (t <= hi) for lo, hi in zip((0.0,) + _PW_T_BANDS[:-1], _PW_T_BANDS)]
    band_sups = [0.0] * len(bands)
    for sg in sigmas:
        s = sg + 1j * t
        # samples on a pole are left out below, along with their neighbours
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.abs(F(s)) * weight
        live = np.ones_like(t, dtype=bool)
        for p in F.poles:
            live &= np.abs(s - p.location) > _PW_EXCLUSION_RADIUS
        for i, band in enumerate(bands):
            v = vals[band & live]
            if v.size:
                band_sups[i] = max(band_sups[i], float(np.max(v)))
    overall = max(band_sups)
    tail = band_sups[1:]
    # quadrature noise times the polynomial weight sets an honest floor below
    # which band sups are indistinguishable from zero
    floor = 1e-12 * (1.0 + _PW_T_BANDS[-1]) ** n_power * (1.0 + overall)
    decaying = all(b <= max(a * 1.05, floor) for a, b in zip(tail[:-1], tail[1:]))
    return {
        "sup": overall,
        "band_sups": band_sups,
        "bounded_looking": bool(decaying),
        "n_power": n_power,
        "strip": strip,
    }
