"""Charged meromorphic core: products, charges, residues, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seltrace.charged import (
    AdmissibilityError,
    ChargedLaurent,
    ChargedMeromorphicFunction,
    charged_product,
    eval_vertical,
    from_pole_table,
    merge_poles,
    negate_argument,
    numeric_residue,
    polar_consistency_check,
    rational_from_poles,
    residue,
)
from seltrace.util import PoleProximityError


def one_over_one_minus_s():
    # 1/(1-s) = -1/(s-1): plus pole at 1, residue -1
    return rational_from_poles([ChargedLaurent(1.0, plus={-1: -1.0})])


def constant(value: complex) -> ChargedMeromorphicFunction:
    # entire, with no pole
    return ChargedMeromorphicFunction(evaluator=lambda s: np.full_like(np.asarray(s, dtype=complex), value))


def one_over_s_minus_half():
    return rational_from_poles([ChargedLaurent(0.5, minus={-1: 1.0})])


class TestChargedProduct:
    def test_constant_factor(self):
        h1 = one_over_one_minus_s()
        prod = charged_product(h1, constant(2.0))
        assert abs(residue(prod, 1.0, "plus") + 2.0) < 1e-12
        assert abs(prod(0.0) - 2.0) < 1e-12

    def test_partial_fractions_pair(self):
        # product of 1/(s-1/2) [minus] and 1/(1-s) [plus]: by partial
        # fractions 2/(s-1/2) + 2/(1-s), i.e. Laurent residues +2 and -2
        prod = charged_product(one_over_s_minus_half(), one_over_one_minus_s())
        assert abs(residue(prod, 0.5, "minus") - 2.0) < 1e-10
        assert abs(residue(prod, 1.0, "plus") + 2.0) < 1e-10
        assert residue(prod, 0.5, "plus") == 0.0

    def test_admissibility_rejected(self):
        h_plus = one_over_one_minus_s()
        h_minus_at_1 = rational_from_poles([ChargedLaurent(1.0, minus={-1: 3.0})])
        with pytest.raises(AdmissibilityError):
            charged_product(h_plus, h_minus_at_1)

    def test_square_has_double_pole(self):
        h1 = one_over_one_minus_s()
        sq = charged_product(h1, h1)
        assert abs(sq.poles[0].plus[-2] - 1.0) < 1e-12
        assert sq.poles[0].plus.get(-1, 0.0) == 0.0 or abs(sq.poles[0].plus.get(-1, 0.0)) < 1e-10

    def test_non_pole_residue_is_zero(self):
        assert residue(one_over_one_minus_s(), 3.0, "total") == 0.0


class TestPolarConsistency:
    def test_rational_pair(self):
        rep = polar_consistency_check(one_over_s_minus_half(), one_over_one_minus_s())
        assert rep["max_deviation"] < 1e-9

    def test_entire_pair_vacuous(self):
        rep = polar_consistency_check(constant(1.5), constant(-2.0))
        assert rep["max_deviation"] == 0.0
        assert rep["per_pole"] == []

    def test_square(self):
        h1 = one_over_one_minus_s()
        rep = polar_consistency_check(h1, h1)
        assert rep["max_deviation"] < 1e-9


class TestNegateArgument:
    def test_simple(self):
        # 1/(a-s) with plus pole at a maps to 1/(a+s) with minus pole at -a
        a = 0.7
        h = rational_from_poles([ChargedLaurent(a, plus={-1: -1.0})])
        n = negate_argument(h)
        assert abs(n.poles[0].location + a) < 1e-14
        assert n.poles[0].plus == {}
        assert abs(n.poles[0].minus[-1] - 1.0) < 1e-14
        assert abs(n(0.2) - 1.0 / (a + 0.2)) < 1e-12

    def test_involution(self):
        h = rational_from_poles(
            [ChargedLaurent(1.0, plus={-1: -1.0}), ChargedLaurent(-0.3 + 1j, minus={-2: 0.5})]
        )
        nn = negate_argument(negate_argument(h))
        s = np.array([0.2 + 0.1j, 2.0 - 1j])
        assert np.max(np.abs(nn(s) - h(s))) < 1e-12
        for p, q in zip(nn.poles, h.poles):
            assert abs(p.location - q.location) < 1e-14
            assert p.plus == q.plus and p.minus == q.minus

    def test_double_pole(self):
        h = rational_from_poles([ChargedLaurent(0.5, minus={-2: 1.0})])
        n = negate_argument(h)
        assert abs(n.poles[0].location + 0.5) < 1e-14
        assert abs(n.poles[0].plus[-2] - 1.0) < 1e-14
        assert abs(n(0.25) - 1.0 / (0.75) ** 2) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
        st.integers(1, 3),
    )
    def test_involution_property(self, re, im, coeff, order):
        h = rational_from_poles([ChargedLaurent(complex(re, im), plus={-order: coeff})])
        nn = negate_argument(negate_argument(h))
        s = complex(re + 1.7, im - 0.9)
        assert abs(nn(s) - h(s)) < 1e-10 * (1 + abs(h(s)))


class TestResidues:
    def test_stored_vs_contour(self):
        h = rational_from_poles(
            [ChargedLaurent(1.0, plus={-1: -1.0}), ChargedLaurent(-0.5 + 0.3j, minus={-1: 2.2})]
        )
        for loc in (1.0, -0.5 + 0.3j):
            num = numeric_residue(h, loc)
            assert abs(num - residue(h, loc, "total")) < 1e-8


class TestEvalVertical:
    def test_entire_gaussian(self):
        def ev(s):
            return np.exp(np.asarray(s) ** 2 / 2.0)

        from seltrace.charged import ChargedMeromorphicFunction

        h = ChargedMeromorphicFunction(evaluator=ev)
        t = np.linspace(-3, 3, 7)
        vals = eval_vertical(h, 0.0, t)
        assert np.max(np.abs(vals - np.exp(-(t**2) / 2.0))) < 1e-14

    def test_pole_proximity(self):
        h = one_over_one_minus_s()
        with pytest.raises(PoleProximityError):
            eval_vertical(h, 1.0, [0.0, 5.0])

    def test_outside_strip(self):
        h = one_over_one_minus_s()
        with pytest.raises(ValueError):
            eval_vertical(h, 100.0, [0.0])


class TestSerialization:
    def test_roundtrip(self):
        h = rational_from_poles(
            [ChargedLaurent(1.0 + 0.5j, plus={-1: -1.0, -2: 0.3}), ChargedLaurent(-0.5, minus={-1: 2.0})]
        )
        table = json.loads(h.to_json())
        assert {row["charge"] for row in table["poles"]} == {"plus", "minus"}
        back = from_pole_table(table)
        s = np.array([0.1 + 2j, -2.0 - 1j])
        assert np.max(np.abs(back(s) - h(s))) < 1e-12

    def test_equal_rows_sum(self):
        table = one_over_one_minus_s().to_pole_table()
        table["poles"] = table["poles"] * 2
        back = from_pole_table(table)
        assert len(back.poles) == 1
        assert back.poles[0].plus == {-1: -2.0}

    def test_old_tables_still_read(self):
        # a table that carries the retired "label" and "decay_class" keys
        # reads as the same table without them
        table = one_over_one_minus_s().to_pole_table()
        old = {**table, "label": "1/(1-s)", "decay_class": {"kind": "polynomial", "order": 1}}
        back = from_pole_table(json.dumps(old))
        assert back.strip == tuple(table["strip"])
        assert back.poles == one_over_one_minus_s().poles
        s = np.array([0.1 + 2j, -2.0 - 1j])
        assert np.array_equal(back(s), one_over_one_minus_s()(s))

    def test_schema_fields(self):
        h = one_over_one_minus_s()
        assert set(h.to_pole_table()) == {"strip", "poles"}
        row = h.to_pole_table()["poles"][0]
        assert set(row) == {"location", "order", "charge", "coefficient"}
        assert set(row["location"]) == {"re", "im"}
        assert set(row["coefficient"]) == {"re", "im"}


class TestMergePoles:
    def test_near_poles_merge_at_first_location(self):
        a = ChargedLaurent(0.5, plus={-1: 1.0})
        b = ChargedLaurent(0.5 + 1e-11, plus={-1: 2.0, -2: 1.0}, minus={-1: 3.0})
        (m,) = merge_poles([a, b])
        assert m.location == 0.5
        assert m.plus == {-1: 3.0, -2: 1.0}
        assert m.minus == {-1: 3.0}

    def test_distinct_poles_stay_apart(self):
        merged = merge_poles([ChargedLaurent(0.5, plus={-1: 1.0}), ChargedLaurent(0.5 + 1e-9, plus={-1: 1.0})])
        assert len(merged) == 2

    def test_cancelling_data_dropped_and_order_kept(self):
        merged = merge_poles(
            [
                ChargedLaurent(2.0, minus={-1: 1.0}),
                ChargedLaurent(1.0, plus={-1: 1.0}),
                ChargedLaurent(3.0, plus={-2: 1.0}),
                ChargedLaurent(1.0, plus={-1: -1.0}),
                ChargedLaurent(2.0, minus={-2: 4.0}),
            ]
        )
        assert [m.location for m in merged] == [2.0, 3.0]
        assert merged[0].minus == {-1: 1.0, -2: 4.0}
