"""Torus Mellin calculus: transforms, inversion, regularized pairings."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seltrace import torus, util
from seltrace.torus import (
    AsymptoticallyFiniteFunction,
    CriticalExponentError,
    ExponentTerm,
    TailDecayError,
    log_gaussian_core,
    mellin,
    mellin_inverse,
    plancherel_inner_product,
    product_asfinite,
    pw_decay_profile,
    regularized_inner_product_direct,
    regularized_integral,
)
from seltrace.util import DecayError

GAUSS = AsymptoticallyFiniteFunction(core=log_gaussian_core())
SHARP_X = AsymptoticallyFiniteFunction(terms=(ExponentTerm(1.0, side="zero"),))
SHARP_INVSQRT = AsymptoticallyFiniteFunction(terms=(ExponentTerm(-0.5, side="zero"),))
SHARP_SQRT = AsymptoticallyFiniteFunction(terms=(ExponentTerm(0.5, side="zero"),))
_GAUSS_F = mellin(GAUSS)


def _twisted_core(beta, sigma=1.0):
    """A log-Gaussian core times x^(i beta): its transform moves up the line
    by beta."""
    core = log_gaussian_core(0.0, sigma)
    return lambda x: core(x) * np.asarray(x, dtype=float) ** (1j * beta)


class TestMellin:
    def test_gaussian_closed_form(self):
        F = mellin(GAUSS)
        assert abs(F(0.0) - math.sqrt(2 * math.pi)) < 1e-12
        assert abs(complex(F(0.0)) - 2.5066283) < 1e-6

    @settings(max_examples=10, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-10.0, 10.0))
    def test_gaussian_closed_form_everywhere(self, sig, t):
        s = complex(sig, t)
        assert abs(_GAUSS_F(s) - math.sqrt(2 * math.pi) * np.exp(s**2 / 2.0)) < 1e-9

    def test_evaluator_holds_no_rational_part(self):
        # the sharp polar parts live beside the evaluator, which stays finite
        # at their poles; a call adds them back
        f = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(),
            terms=(ExponentTerm(1.0, side="zero"), ExponentTerm(0.5 + 2j, (1.0, 0.5), side="infinity")),
        )
        F = mellin(f)
        assert np.all(np.isfinite(F.evaluator(np.array([1.0 + 0j, 0.5 + 2j]))))
        s = np.array([0.3 + 1j, 2.0 - 0.5j, -1.0 + 3j])
        polar = sum(p.polar_eval(s) for p in F.rational_poles)
        assert np.max(np.abs(F(s) - F.evaluator(s) - polar)) < 1e-12

    def test_sharp_power(self):
        F = mellin(SHARP_X)
        assert abs(F.poles[0].location - 1.0) < 1e-14
        assert abs(F.poles[0].plus[-1] + 1.0) < 1e-14
        assert abs(F(3.0) - 1.0 / (1.0 - 3.0)) < 1e-12

    def test_log_power_double_pole(self):
        f = AsymptoticallyFiniteFunction(terms=(ExponentTerm(0.5, (0.0, 1.0), side="infinity"),))
        F = mellin(f)
        assert abs(F.poles[0].minus[-2] - 1.0) < 1e-14
        assert abs(F(2.0) - 1.0 / 1.5**2) < 1e-12

    def test_tail_decay_error(self):
        bad = AsymptoticallyFiniteFunction(core=lambda x: 1.0 / (1.0 + np.asarray(x)))
        with pytest.raises(TailDecayError):
            mellin(bad)

    def test_derivative_identity(self):
        # mellin((x d/dx - s0) f)(s) = (s - s0) mellin(f)(s)
        s0 = 0.3 + 0.2j
        h = 1e-4

        def dcore(x):
            return (GAUSS(np.asarray(x) * math.exp(h)) - GAUSS(np.asarray(x) * math.exp(-h))) / (
                2 * h
            ) - s0 * GAUSS(x)

        Fd = mellin(AsymptoticallyFiniteFunction(core=dcore))
        Fg = mellin(GAUSS)
        s = np.array([0.1 + 1j, -0.5 + 2j, 1.0 - 0.7j])
        assert np.max(np.abs(Fd(s) - (s - s0) * Fg(s))) < 1e-6


class TestInversion:
    def test_rational_inversion(self):
        F = mellin(SHARP_X)
        assert abs(mellin_inverse(F, 0.0, 0.5) - 0.5) < 1e-12
        assert abs(mellin_inverse(F, 0.0, 2.0)) < 1e-12
        assert abs(mellin_inverse(F, 2.0, 0.5) - 0.5) < 1e-12

    def test_gaussian_sigma_independence(self):
        F = mellin(GAUSS)
        xs = np.exp(np.linspace(-3, 3, 21))
        vals = [mellin_inverse(F, sg, xs) for sg in (-2.0, 0.0, 2.0)]
        for v in vals:
            assert np.max(np.abs(v - GAUSS(xs))) < 1e-8
        assert np.max(np.abs(vals[0] - vals[2])) < 1e-8

    def test_pv_half_residue_branch(self):
        f0 = AsymptoticallyFiniteFunction(terms=(ExponentTerm(0.0, side="zero"),))
        F0 = mellin(f0)
        # the principal-value contour contributes 1/2 and the half-residue
        # term the other 1/2
        assert abs(mellin_inverse(F0, 0.0, 0.5) - 1.0) < 1e-10
        assert abs(mellin_inverse(F0, 0.0, 2.0)) < 1e-10

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    def test_sharp_x_left_on_and_right_of_its_pole(self, sigma):
        # 1/(1 - s) has its plus pole at 1: right of sigma = 0.5, on the
        # contour at 1.0 (principal value plus half residues), left of 1.5
        xs = np.array([0.05, 0.3, 0.7, 0.99, 1.01, 1.5, 4.0, 20.0])
        got = mellin_inverse(mellin(SHARP_X), sigma, xs)
        assert np.max(np.abs(got - SHARP_X(xs))) < 1e-12

    @pytest.mark.parametrize("side", ["zero", "infinity"])
    @pytest.mark.parametrize("a, sigma", [(1.0, 0.997), (0.5 + 2j, 0.496)])
    def test_core_plus_sharp_term_near_its_pole(self, a, sigma, side):
        # the line passes within half a step of the pole; the contour samples
        # only the evaluator, so no node near the pole is lost
        f = AsymptoticallyFiniteFunction(core=log_gaussian_core(), terms=(ExponentTerm(a, side=side),))
        xs = np.exp(np.linspace(-2.5, 2.5, 40))
        assert np.max(np.abs(mellin_inverse(mellin(f), sigma, xs) - f(xs))) <= 1e-9

    @pytest.mark.parametrize("a", [1.0, 0.5 + 2j])
    def test_smooth_pole_near_the_line_is_refused(self, a):
        # the evaluator holds a smooth carrier's polar part, which the
        # contour misses by up to 2.3e-2 at 0.01 from the line: refused there,
        # while at 0.05 from it the inversion meets f to its error floor
        f = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(0.0, 0.7, 1.0), terms=(ExponentTerm(a, side="zero", carrier="smooth"),)
        )
        F = mellin(f)
        xs = np.exp(np.linspace(-2.5, 2.5, 40))
        for offset in (-0.01, 0.01):
            with pytest.raises(DecayError, match="from the abscissa"):
                mellin_inverse(F, a.real + offset, xs)
        for offset in (-0.05, 0.05):
            assert np.max(np.abs(mellin_inverse(F, a.real + offset, xs) - f(xs))) <= 1e-5

    def test_undecayed_remainder_refused_at_either_end(self):
        # the sharp x gives the transform a rational part, so its remainder
        # must have decayed by |t| = 120 at both ends; the core rule's error
        # on x^(i beta) times a narrow log-Gaussian sits at the end of the line
        # far from beta, still 8.5e-4 there, and at beta = +90 (the lower end)
        # the inversion missed f by 5.8e-3 with no error
        xs = np.exp(np.linspace(-2.5, 2.5, 40))
        for beta in (90.0, -90.0):
            f = AsymptoticallyFiniteFunction(core=_twisted_core(beta, 0.5), terms=(ExponentTerm(1.0, side="zero"),))
            with pytest.raises(DecayError, match="t_max=120"):
                mellin_inverse(mellin(f), 0.0, xs)

    @pytest.mark.parametrize("side", ["zero", "infinity"])
    def test_sharp_jump_inverts_to_its_midpoint(self, side):
        # at x = 1 the contour integral converges to the midpoint of the
        # sharp carrier's jump, left of, on and right of the pole alike
        f = AsymptoticallyFiniteFunction(core=log_gaussian_core(), terms=(ExponentTerm(1.0, side=side),))
        F = mellin(f)
        vals = [mellin_inverse(F, sigma, 1.0) for sigma in (0.8, 1.0, 1.2)]
        assert max(abs(v - vals[1]) for v in vals) < 1e-10
        assert abs(vals[1] - (f.core_values(1.0) + 0.5)) < 1e-9

    def test_sharp_terms_invert_alike_at_every_abscissa(self):
        # only rational poles: the inversion is the sharp terms in closed form,
        # so moving the abscissa across the poles changes no bit
        f = AsymptoticallyFiniteFunction(terms=(
            ExponentTerm(1.0, (1.0, 0.5), side="zero"),
            ExponentTerm(0.0, side="zero"),
            ExponentTerm(-0.3 + 0.2j, side="infinity"),
        ))
        F = mellin(f)
        xs = np.array([0.05, 0.3, 0.99, 1.0, 1.01, 2.0, 20.0])
        vals = [mellin_inverse(F, sigma, xs) for sigma in (-0.5, 0.0, 0.5, 1.5)]
        for v in vals[1:]:
            assert np.array_equal(v, vals[0])
        off = xs != 1.0
        assert np.max(np.abs(vals[0][off] - f(xs[off]))) < 1e-14
        # the midpoint of each jump at x = 1
        assert abs(vals[0][xs == 1.0][0] - 1.5) < 1e-15

    def test_sharp_and_smooth_term_at_one_exponent(self):
        # both polar parts merge into one pole: the sharp part inverts in
        # closed form, and only the smooth part takes residue corrections.
        # The smooth term is small, so the 1/t tail of its polar part passes
        # the decay band that the sharp term's rational part switches on
        f = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(0.0, 0.7, 1.0),
            terms=(ExponentTerm(0.5, side="zero"), ExponentTerm(0.5, (3e-7, 2e-7), side="zero", carrier="smooth")),
        )
        F = mellin(f)
        assert len(F.poles) == 1 and len(F.rational_poles) == 1
        xs = np.exp(np.linspace(-2.5, 2.5, 40))
        for sigma in (0.0, 1.0):
            assert np.max(np.abs(mellin_inverse(F, sigma, xs) - f(xs))) <= 1e-9

    def test_one_exponent_on_both_sides_keeps_its_charges(self):
        # x^a on (0, 1) and on [1, inf): the polar parts cancel but the
        # charges do not, and the inversion returns x^a on either side of a
        a = 0.3 + 0.2j
        f = AsymptoticallyFiniteFunction(terms=(ExponentTerm(a, side="zero"), ExponentTerm(a, side="infinity")))
        F = mellin(f)
        assert len(F.poles) == 1
        xs = np.array([0.5, 2.0])
        for sigma in (0.0, 1.0):
            assert np.max(np.abs(mellin_inverse(F, sigma, xs) - f(xs))) < 1e-12


class TestRegularizedIntegral:
    def test_sharp_x(self):
        assert abs(regularized_integral(SHARP_X) - 1.0) < 1e-12

    def test_split_against_quadrature(self):
        f = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(0.5, 0.6, 0.8),
            terms=(ExponentTerm(0.5, side="zero"),),
        )
        # direct oracle: rational part + log-grid quadrature of the core
        u = np.linspace(-40, 40, 160001)
        du = u[1] - u[0]
        x = np.exp(u)
        oracle = 2.0 + np.sum(log_gaussian_core(0.5, 0.6, 0.8)(x)) * du
        assert abs(regularized_integral(f) - oracle) < 1e-9

    def test_critical_exponent(self):
        f0 = AsymptoticallyFiniteFunction(terms=(ExponentTerm(0.0, side="zero"),))
        with pytest.raises(CriticalExponentError):
            regularized_integral(f0)


class TestDirectPairing:
    def test_gaussian_pair(self):
        assert abs(regularized_inner_product_direct(GAUSS, GAUSS) - math.sqrt(math.pi)) < 1e-10

    def test_worked_pair(self):
        assert abs(regularized_inner_product_direct(SHARP_X, SHARP_INVSQRT) - 2.0) < 1e-12

    def test_sqrt_pair_not_critical(self):
        # exponents 1/2 + 1/2 = 1 != 0, value int_0^1 x d*x = 1
        assert abs(regularized_inner_product_direct(SHARP_SQRT, SHARP_SQRT) - 1.0) < 1e-12

    def test_critical_pair_raises(self):
        with pytest.raises(CriticalExponentError):
            regularized_inner_product_direct(SHARP_SQRT, SHARP_INVSQRT)

    def test_smooth_depth2_term_against_sharp_partner(self):
        # the product's leftover core cancels exactly below x = 1/2, so it
        # passes the x^-8 tail sampling that its rounding residue used to fail
        mp = pytest.importorskip("mpmath")
        a, poly = 0.475 + 0.539j, (0.8 - 0.1j, 0.7 + 0.9j)
        f = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(0.1, 0.7, 1.1), terms=(ExponentTerm(a, poly, "zero", "smooth"),)
        )
        got = regularized_inner_product_direct(f, SHARP_SQRT)

        def eta(x):
            if x <= 0.5:
                return 1
            t = 2 * x - 1
            return 1 / (1 + mp.exp(1 / (1 - t) - 1 / t))

        def integrand(x):
            lx = mp.log(x)
            term = eta(x) * x ** mp.mpc(a) * (mp.mpc(poly[0]) + mp.mpc(poly[1]) * lx)
            return (1.1 * mp.exp(-((lx - 0.1) ** 2) / (2 * 0.7**2)) + term) * x ** -0.5

        # the product is integrable at 0 and vanishes past x = 1
        want = complex(mp.quad(integrand, [0, 0.5, 1]))
        assert abs(got - want) < 1e-9

    def test_bilinear_symmetry(self):
        a = regularized_inner_product_direct(GAUSS, SHARP_X)
        b = regularized_inner_product_direct(SHARP_X, GAUSS)
        assert abs(a - b) < 1e-10


class TestPlancherel:
    def test_worked_pair_breakdown(self):
        val, bd = plancherel_inner_product(SHARP_X, SHARP_INVSQRT, 0.0)
        assert abs(val - 2.0) < 1e-10
        contour = next(r for r in bd if r["term_kind"] == "contour")
        resid = next(r for r in bd if r["term_kind"] == "residue")
        assert abs(contour["value"]) < 1e-10
        assert abs(resid["value"] - 2.0) < 1e-10
        assert abs(resid["location"] - 0.5) < 1e-12

    def test_two_abscissae_build_one_product(self, monkeypatch):
        from seltrace import torus

        original = torus.charged_product
        calls = []

        def counting(F1, F2n):
            calls.append((F1, F2n))
            return original(F1, F2n)

        monkeypatch.setattr(torus, "charged_product", counting)
        torus._cached_product.cache_clear()
        a, _ = plancherel_inner_product(SHARP_X, SHARP_INVSQRT, 0.0)
        b, _ = plancherel_inner_product(SHARP_X, SHARP_INVSQRT, 0.75)
        assert len(calls) == 1
        assert abs(a - b) < 1e-8

    def test_gaussian_pair_empty_residues(self):
        val, bd = plancherel_inner_product(GAUSS, GAUSS, 0.0)
        assert abs(val - math.sqrt(math.pi)) < 1e-10
        assert [r["term_kind"] for r in bd] == ["contour"]

    def test_sigma_reallocation(self):
        vals = {}
        contours = {}
        for sg in (0.0, 0.75, 2.0):
            v, bd = plancherel_inner_product(SHARP_X, SHARP_INVSQRT, sg)
            vals[sg] = v
            contours[sg] = next(r["value"] for r in bd if r["term_kind"] == "contour")
        assert abs(vals[0.0] - vals[0.75]) < 1e-8
        assert abs(vals[0.0] - vals[2.0]) < 1e-8
        # the contour term visibly absorbs the pole once sigma crosses 1/2
        assert abs(contours[0.0]) < 1e-8
        assert abs(contours[0.75] - 2.0) < 1e-8

    def test_direct_equals_spectral_on_corpus(self):
        m1 = AsymptoticallyFiniteFunction(core=log_gaussian_core(0.0, 0.5))
        m2 = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(0.0, 0.5, 0.7),
            terms=(ExponentTerm(0.5, (1.0,), side="infinity", carrier="smooth"),),
        )
        pairs = [(GAUSS, GAUSS), (m1, m2), (SHARP_X, SHARP_INVSQRT)]
        for f1, f2 in pairs:
            d = regularized_inner_product_direct(f1, f2)
            s, _ = plancherel_inner_product(f1, f2, 0.0)
            assert abs(d - s) < 1e-6

    def test_undecayed_contour_refused(self):
        # a smooth zero-side term against a sharp zero-side partner: the
        # pairing integrand is still 1.3e-5 (scale 7.2) at |t| = 40, and the
        # cut there would miss the direct value by 2.1e-5
        f = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(0.1, 0.7, 1.1),
            terms=(ExponentTerm(0.475 + 0.539j, (0.8 - 0.1j, 0.7 + 0.9j), "zero", "smooth"),),
        )
        with pytest.raises(DecayError, match="t_max=40"):
            plancherel_inner_product(f, SHARP_SQRT, 0.0)

    def test_undecayed_contour_refused_at_either_end(self):
        # x^(+-i beta) moves a log-Gaussian pair's integrand to t = beta, where
        # it is still 6.9e-3 at the nearer end of the line; at beta = -37 (the
        # lower end) the cut missed the direct value by 2.0e-5 with no error
        for beta in (37.0, -37.0):
            f = AsymptoticallyFiniteFunction(core=_twisted_core(beta))
            mirror = AsymptoticallyFiniteFunction(core=_twisted_core(-beta))
            with pytest.raises(DecayError, match="t_max=40"):
                plancherel_inner_product(f, mirror, 0.0)

    @pytest.mark.parametrize("carrier", ["smooth", "sharp"])
    @pytest.mark.parametrize("a", [0.5, 0.3 + 1j])
    def test_pole_near_the_line_is_refused(self, a, carrier):
        # the pieces with an evaluator sample the other factor's polar parts,
        # sharp (the rational part) or smooth (the evaluator) alike: at 0.01
        # from the line the pairing missed the direct value by up to 5.3e-3
        # and at 0.03 by up to 1.9e-8, with no error; at 0.05 it meets it
        f = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(0.0, 0.7, 1.0), terms=(ExponentTerm(a, side="zero", carrier=carrier),)
        )
        direct = regularized_inner_product_direct(f, GAUSS)
        for offset in (-0.03, -0.01, 0.01, 0.03):
            with pytest.raises(DecayError, match="from the abscissa"):
                plancherel_inner_product(f, GAUSS, a.real + offset)
        for offset in (-0.05, 0.05):
            got, _ = plancherel_inner_product(f, GAUSS, a.real + offset)
            assert abs(got - direct) <= 1e-9

    def test_admissibility_propagates(self):
        from seltrace.charged import AdmissibilityError

        with pytest.raises((AdmissibilityError, CriticalExponentError)):
            plancherel_inner_product(SHARP_SQRT, SHARP_INVSQRT, 0.0)


class TestSuperunitaryRule:
    @settings(max_examples=6, deadline=None)
    @given(st.floats(-0.9, 0.9).filter(lambda a: abs(a) > 0.05))
    def test_discrete_term_iff_superunitary(self, a):
        f = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(), terms=(ExponentTerm(complex(a), side="zero"),)
        )
        _, bd = plancherel_inner_product(f, GAUSS, 0.0)
        n_res = sum(1 for r in bd if r["term_kind"] == "residue")
        if a < 0:  # |x^a| > 1 toward 0: superunitary
            assert n_res == 1
        else:
            assert n_res == 0

    def test_unitary_half_residue(self):
        f = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(), terms=(ExponentTerm(0.3j, side="zero", carrier="smooth"),)
        )
        _, bd = plancherel_inner_product(f, GAUSS, 0.0)
        assert sum(1 for r in bd if r["term_kind"] == "pv_half_residue") == 1


class TestPWProfile:
    def test_gaussian_bounded(self):
        prof = pw_decay_profile(GAUSS, 6)
        assert prof["bounded_looking"]

    def test_sharp_flagged(self):
        prof = pw_decay_profile(SHARP_X, 2)
        assert not prof["bounded_looking"]

    def test_zero_function(self):
        zero = AsymptoticallyFiniteFunction()
        prof = pw_decay_profile(zero, 4)
        assert prof["sup"] == 0.0

    def test_one_factored_line_per_sigma(self, monkeypatch):
        # each of the 9 sigmas is one 801-point vertical line, which exp_sum
        # factors; sharp_x's pole at s = 1 sits on the last line, and its
        # neighbours are left out of the band sups
        seen = []

        def spy(f):
            F = mellin(f)

            def ev(s):
                seen.append(np.asarray(s))
                return F.evaluator(s)

            return replace(F, evaluator=ev)

        monkeypatch.setattr(torus, "mellin", spy)
        prof = pw_decay_profile(SHARP_X, 2)
        assert len(seen) == 9
        assert all(s.size == 801 and util._progression_step(s) is not None for s in seen)
        assert np.all(np.isfinite(prof["band_sups"]))
        assert not prof["bounded_looking"]


class TestInPlaceValues:
    """The in-place value chains give the formulas' values bit for bit."""

    X = np.random.default_rng(23).uniform(1e-6, 50.0, 5000)

    @pytest.mark.parametrize("amp", [1.0, 0.7, 0.8 - 0.3j, 2 + 0j])
    @pytest.mark.parametrize("shape", ["array", "0-d"])
    def test_log_gaussian_core(self, amp, shape):
        x = self.X if shape == "array" else np.asarray(self.X[7])
        mu, sigma = 0.3, 0.6
        got = log_gaussian_core(mu, sigma, amp)(x)
        assert np.shape(got) == np.shape(x)
        assert np.array_equal(got, amp * np.exp(-((np.log(x) - mu) ** 2) / (2.0 * sigma**2)))

    @pytest.mark.parametrize("shape", ["array", "0-d"])
    def test_model_with_exponent_terms(self, shape):
        x = self.X if shape == "array" else np.asarray(self.X[7])
        terms = (
            ExponentTerm(0.5, (1.0, 0.2), side="infinity", carrier="smooth"),
            ExponentTerm(-0.4 + 1j, side="infinity"),
        )
        f = AsymptoticallyFiniteFunction(core=log_gaussian_core(0.1, 0.5, 0.8 - 0.3j), terms=terms)
        got = f(x)
        assert np.shape(got) == np.shape(x)
        assert np.array_equal(got, f.core_values(x) + terms[0](x) + terms[1](x))


class TestProductAsFinite:
    def test_exponent_bookkeeping(self):
        p = product_asfinite(SHARP_X, SHARP_INVSQRT)
        assert [t.exponent for t in p.terms] == [0.5 + 0j]
        x = np.array([0.3, 0.7])
        assert np.max(np.abs(p(x) - SHARP_X(x) * SHARP_INVSQRT(x))) < 1e-14
