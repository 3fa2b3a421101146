"""Meromorphic functions on vertical strips with charged Laurent data.

A charged Laurent expansion splits the polar part of an ordinary Laurent
expansion into a "plus" and a "minus" part; the charge records on which side
of a Mellin inversion contour the pole is meant to sit.  Regular (order >= 0)
coefficients are shared between the two charges and are recovered numerically
by circle sampling when products need them.

This module holds every rule about Laurent data: when two poles are the same
pole (`same_pole`), how coincident poles merge (`merge_poles`), how
coefficients are sampled (`util.circle_coefficients`, `_CIRCLE_POINTS` points
per circle) and how a function's exact rational part is held.  That part is
the sum of the polar parts of its `rational_poles`; it is kept apart from the
evaluator, which computes everything else, and a call adds the two
(`ChargedMeromorphicFunction.rational_part`).  A contour can therefore
sample the evaluator, which stays finite at those poles, and integrate the
rational part in closed form, with nothing to subtract back out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .util import SeltraceError, PoleProximityError, as_complex_array, circle_coefficients

__all__ = [
    "AdmissibilityError",
    "ChargedLaurent",
    "ChargedMeromorphicFunction",
    "same_pole",
    "merge_poles",
    "charged_product",
    "negate_argument",
    "residue",
    "polar_consistency_check",
    "eval_vertical",
    "rational_from_poles",
]

# radius of the disk around each pole in which `eval_vertical` refuses to sample
EXCLUSION_RADIUS = 1e-3
# two pole locations closer than this are one pole
_SAME_POLE = 1e-10


def same_pole(a: complex, b: complex) -> bool:
    return abs(a - b) < _SAME_POLE


class AdmissibilityError(SeltraceError):
    """A plus pole met a minus pole at the same point (undefined product)."""


def _clean(coeffs: dict) -> dict:
    return {int(k): complex(v) for k, v in coeffs.items() if v != 0}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return _clean(out)


@dataclass(frozen=True)
class ChargedLaurent:
    """Charged Laurent data at one point.

    `plus` / `minus` map negative orders (<= -1) to coefficients of
    (s - location)^order.
    """

    location: complex
    plus: dict = field(default_factory=dict)
    minus: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "location", complex(self.location))
        object.__setattr__(self, "plus", _clean(self.plus))
        object.__setattr__(self, "minus", _clean(self.minus))
        if any(k > -1 for k in self.plus) or any(k > -1 for k in self.minus):
            raise ValueError("polar coefficients must have order <= -1")

    @property
    def order(self) -> int:
        polar = list(self.plus) + list(self.minus)
        return min(polar) if polar else 0

    def total(self) -> dict:
        return _add(self.plus, self.minus)

    def polar_eval(self, s):
        s = as_complex_array(s)
        out = np.zeros_like(s)
        ds = s - self.location
        for k, v in self.total().items():
            out = out + v * ds ** k
        return out

    def is_polar(self) -> bool:
        return bool(self.total())


def merge_poles(laurents) -> tuple:
    """Sum the Laurent data of coincident poles (`same_pole`), chargewise.

    Each point keeps the location at which it first appears, and the points
    keep the order of first appearance; a point whose coefficients all
    cancel is dropped."""
    merged: list[ChargedLaurent] = []
    for lau in laurents:
        i = next((i for i, m in enumerate(merged) if same_pole(m.location, lau.location)), None)
        if i is None:
            merged.append(lau)
        else:
            m = merged[i]
            merged[i] = ChargedLaurent(m.location, _add(m.plus, lau.plus), _add(m.minus, lau.minus))
    return tuple(m for m in merged if m.plus or m.minus)


@dataclass(frozen=True, eq=False)
class ChargedMeromorphicFunction:
    """Evaluator + exact rational part + charged pole table on a vertical
    strip.

    F(s) = evaluator(s) + rational_part(s), where rational_part is the sum of
    the polar parts of `rational_poles` (the sharp carriers of a Mellin
    transform, every pole of `rational_from_poles`, none for a product or a
    hand-built function).  The evaluator never includes those parts, so it is
    finite at them; `poles` lists every pole, rational or not.

    The evaluator is an opaque closure, so instances compare and hash by
    identity; memos keyed on a transform hit only for the same object.
    """

    evaluator: Callable
    poles: tuple = ()
    strip: tuple[float, float] = (-8.0, 8.0)
    # poles whose polar parts are held as exact rational terms outside the
    # evaluator; inversion and pairings integrate them by residue calculus
    rational_poles: tuple = ()

    def __call__(self, s):
        s = as_complex_array(s)
        return self.evaluator(s) + self.rational_part(s)

    def rational_part(self, s):
        """The sum of the polar parts of `rational_poles` at s."""
        s = as_complex_array(s)
        out = np.zeros_like(s)
        for p in self.rational_poles:
            out = out + p.polar_eval(s)
        return out

    def pole_at(self, s0: complex):
        return next((p for p in self.poles if same_pole(p.location, s0)), None)

    # -- serialization ------------------------------------------------------

    def to_pole_table(self) -> dict:
        """JSON-ready pole table (documented schema, see README)."""
        rows = []
        for p in self.poles:
            for charge, table in (("plus", p.plus), ("minus", p.minus)):
                for order, coeff in sorted(table.items()):
                    rows.append(
                        {
                            "location": {"re": p.location.real, "im": p.location.imag},
                            "order": order,
                            "charge": charge,
                            "coefficient": {"re": coeff.real, "im": coeff.imag},
                        }
                    )
        return {"strip": [self.strip[0], self.strip[1]], "poles": rows}

    def to_json(self) -> str:
        return json.dumps(self.to_pole_table(), sort_keys=True)


def from_pole_table(table: dict) -> ChargedMeromorphicFunction:
    """Rebuild from a pole table; the evaluator is the rational polar sum.

    Keys other than "strip" and "poles" are ignored."""
    if isinstance(table, str):
        table = json.loads(table)
    rows = (
        ChargedLaurent(
            complex(row["location"]["re"], row["location"]["im"]),
            **{row["charge"]: {row["order"]: complex(row["coefficient"]["re"], row["coefficient"]["im"])}},
        )
        for row in table["poles"]
    )
    return rational_from_poles(merge_poles(rows), strip=tuple(table.get("strip", (-8.0, 8.0))))


def rational_from_poles(poles, strip=(-8.0, 8.0)) -> ChargedMeromorphicFunction:
    """The rational polar sum over `poles`: every pole is rational, so the
    evaluator is zero."""
    poles = tuple(poles)

    def ev(s):
        return np.zeros_like(as_complex_array(s))

    return ChargedMeromorphicFunction(evaluator=ev, poles=poles, strip=strip, rational_poles=poles)


# ----------------------------------------------------------------------------
# circle sampling


# radius of the Laurent sampling circle when no other pole is near, and the
# number of points on it
_CIRCLE_RADIUS = 5e-2
_CIRCLE_POINTS = 256


def _circle_radius(h: ChargedMeromorphicFunction, s0: complex) -> float:
    dists = [abs(p.location - s0) for p in h.poles if not same_pole(p.location, s0)]
    r = _CIRCLE_RADIUS if not dists else min(_CIRCLE_RADIUS, 0.4 * min(dists))
    return max(r, 1e-6)


def taylor_coefficients(h: ChargedMeromorphicFunction, s0: complex, depth: int):
    """Laurent coefficients of orders 0..depth-1 of h at s0.

    Only the polar part at s0 itself is subtracted (other poles stay outside
    the sampling circle), so these are the a_i (i >= 0) of the Laurent
    expansion at s0, shared by both charges.
    """
    if depth <= 0:
        return {}
    own = h.pole_at(s0)
    r = _circle_radius(h, s0)

    def without_own_polar(s):
        vals = h(s)
        if own is not None:
            vals = vals - own.polar_eval(s)
        return vals

    return circle_coefficients(without_own_polar, s0, range(depth), r, _CIRCLE_POINTS)


# ----------------------------------------------------------------------------
# operations


def residue(h: ChargedMeromorphicFunction, s0: complex, charge: str = "total") -> complex:
    """a_{-1} of the requested charge at s0; non-poles return 0."""
    p = h.pole_at(complex(s0))
    if p is None:
        return 0.0 + 0.0j
    if charge == "plus":
        return p.plus.get(-1, 0.0 + 0.0j)
    if charge == "minus":
        return p.minus.get(-1, 0.0 + 0.0j)
    if charge == "total":
        return p.plus.get(-1, 0.0 + 0.0j) + p.minus.get(-1, 0.0 + 0.0j)
    raise ValueError("charge must be plus, minus or total")


# radius of the circle of `numeric_residue`
_RESIDUE_RADIUS = 1e-2


def numeric_residue(h, s0: complex) -> complex:
    """Contour-circle residue (1/2*pi*i) * loop integral of the callable h
    around s0, on `_CIRCLE_POINTS` points of a circle of radius
    `_RESIDUE_RADIUS`."""
    return circle_coefficients(h, complex(s0), (-1,), _RESIDUE_RADIUS, _CIRCLE_POINTS)[-1]


def negate_argument(h: ChargedMeromorphicFunction) -> ChargedMeromorphicFunction:
    """s -> h(-s); poles move to their negatives and the charges swap."""
    ev = h.evaluator

    def neg_ev(s):
        return ev(-as_complex_array(s))

    def flip(coeffs):
        return {k: (-1.0) ** k * v for k, v in coeffs.items()}

    def flip_pole(p):
        return ChargedLaurent(
            location=-p.location,
            plus=flip(p.minus),
            minus=flip(p.plus),
        )

    return ChargedMeromorphicFunction(
        evaluator=neg_ev,
        poles=tuple(flip_pole(p) for p in h.poles),
        strip=(-h.strip[1], -h.strip[0]),
        rational_poles=tuple(flip_pole(p) for p in h.rational_poles),
    )


def _poly_mul_window(a: dict, b: dict, lo: int, hi: int) -> dict:
    out: dict[int, complex] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            if lo <= k <= hi:
                out[k] = out.get(k, 0.0) + va * vb
    return out


def charged_product(h1: ChargedMeromorphicFunction, h2: ChargedMeromorphicFunction) -> ChargedMeromorphicFunction:
    """Pointwise product with chargewise multiplication of Laurent data.

    Laur^+(h1 h2) = Laur^+(h1) * Laur^+(h2) (same for minus), where each
    factor's charged expansion shares the regular coefficients.  Admissibility
    (no plus pole of one factor against a minus pole of the other at the same
    point) is enforced; violations mean the regularized pairing the product is
    meant to feed does not exist.
    """
    locations: list[complex] = []
    for p in list(h1.poles) + list(h2.poles):
        if not any(same_pole(p.location, q) for q in locations):
            locations.append(p.location)

    new_poles = []
    for s0 in locations:
        p1 = h1.pole_at(s0)
        p2 = h2.pole_at(s0)
        e1 = p1 or ChargedLaurent(location=s0)
        e2 = p2 or ChargedLaurent(location=s0)
        if (e1.plus and e2.minus) or (e1.minus and e2.plus):
            raise AdmissibilityError(
                f"plus/minus pole collision at s = {s0}: regularized product undefined"
            )
        # regular coefficients of each factor, deep enough to feed the other
        # factor's polar depth
        reg1 = taylor_coefficients(h1, s0, -e2.order)
        reg2 = taylor_coefficients(h2, s0, -e1.order)
        lo = e1.order + e2.order
        # the order <= -1 window of (polar + regular)(polar + regular) keeps
        # polar*polar and polar*regular cross terms only, which is exactly the
        # chargewise product rule
        plus = _poly_mul_window({**e1.plus, **reg1}, {**e2.plus, **reg2}, lo, -1)
        minus = _poly_mul_window({**e1.minus, **reg1}, {**e2.minus, **reg2}, lo, -1)
        lau = ChargedLaurent(location=s0, plus=plus, minus=minus)
        if lau.is_polar():
            new_poles.append(lau)

    def prod_ev(s):
        return h1(s) * h2(s)

    strip = (max(h1.strip[0], h2.strip[0]), min(h1.strip[1], h2.strip[1]))
    return ChargedMeromorphicFunction(evaluator=prod_ev, poles=tuple(new_poles), strip=strip)


def polar_consistency_check(h1: ChargedMeromorphicFunction, h2: ChargedMeromorphicFunction) -> dict:
    """Verify Laur^+ + Laur^- of the product matches its numerical polar part.

    At every pole of the charged product the polar coefficients are re-extracted
    from circle samples of the plain pointwise product and compared with the
    charged bookkeeping.  Returns {"max_deviation", "per_pole"}.
    """
    prod = charged_product(h1, h2)
    report = {"max_deviation": 0.0, "per_pole": []}
    for p in prod.poles:
        depth = -p.order
        r = _circle_radius(prod, p.location)
        sampled = circle_coefficients(prod, p.location, range(p.order, 0), r, _CIRCLE_POINTS)
        stored = p.total()
        dev = max(
            abs(sampled.get(k, 0.0) - stored.get(k, 0.0)) for k in range(p.order, 0)
        )
        report["per_pole"].append(
            {"location": p.location, "depth": depth, "deviation": float(dev)}
        )
        report["max_deviation"] = max(report["max_deviation"], float(dev))
    return report


def eval_vertical(h: ChargedMeromorphicFunction, sigma: float, t_grid):
    """Sample h(sigma + i t); points inside a pole exclusion disk raise."""
    if not (h.strip[0] - 1e-12 <= sigma <= h.strip[1] + 1e-12):
        raise ValueError(f"sigma = {sigma} outside declared strip {h.strip}")
    t = np.asarray(t_grid, dtype=float)
    s = sigma + 1j * t
    flagged = []
    for p in h.poles:
        near = np.abs(s - p.location) < EXCLUSION_RADIUS
        if np.any(near):
            flagged.extend(s[near].tolist())
    if flagged:
        raise PoleProximityError(flagged)
    return h(s)
