"""Tower arithmetic: frozen values, exact comparison, the inequality block."""

import copy
import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from thetakit import bigconst
from thetakit.bigconst import (
    DIGIT_CAP,
    TowerInt,
    digit_estimate,
    evaluate,
    nat,
    normalize,
    sigma,
    to_tower_str,
    tower_compare,
    tree_constants,
    verify_sigma_inequalities,
)
from thetakit.bigconst import _as_power, _mul_parts


def random_expr(rng: random.Random, budget: int) -> TowerInt:
    # Arbitrary well-formed tree; subtrahends never exceed what was added,
    # so every subtree denotes a natural.
    if budget <= 1 or rng.random() < 0.3:
        return nat(rng.randint(0, 10 ** rng.randint(0, 6)))
    op = rng.choice(["add", "mul", "pow", "sub"])
    if op == "pow":
        return random_expr(rng, budget // 4) ** nat(rng.randint(0, 40))
    if op == "sub":
        pad = rng.randint(1, 50)
        return (random_expr(rng, budget // 2) + pad).minus(rng.randint(0, pad))
    a = random_expr(rng, budget // 2)
    b = random_expr(rng, budget // 2)
    return a + b if op == "add" else a * b


class TestConstruction:
    def test_nat_rejects_negatives(self):
        with pytest.raises(ValueError):
            nat(-1)

    def test_minus_guard(self):
        with pytest.raises(ValueError):
            nat(5).minus(-2)

    def test_negative_value_caught_on_evaluation(self):
        with pytest.raises(ValueError):
            evaluate(nat(2).minus(5))

    def test_operators_coerce_ints(self):
        assert evaluate(nat(2) + 3) == 5
        assert evaluate(2 * nat(3)) == 6
        assert evaluate(nat(2) ** 10) == 1024

    def test_evaluate_respects_cap(self):
        huge = nat(2) ** nat(10 ** 6)
        assert evaluate(huge) is None
        assert huge.digits() is None
        assert evaluate(huge, 10 ** 6) is not None

    def test_power_within_cap_materializes(self):
        # 2^200000 has 60,206 digits; a bound from 2's bit length doubles that
        # and would wrongly report it beyond a 70,000-digit cap.
        assert evaluate(nat(2) ** nat(200000), 70000) == 2 ** 200000
        assert evaluate(nat(3) ** nat(100000), 47713) == 3 ** 100000
        assert evaluate(nat(3) ** nat(100000), 47712) is None

    def test_values_of_exactly_cap_digits_materialize(self):
        assert evaluate(nat(8), 1) == 8
        assert evaluate(nat(9) * nat(9), 2) == 81
        assert evaluate(nat(3) ** nat(2), 1) == 9
        assert evaluate(nat(2) ** nat(332), 100) == 2 ** 332
        assert evaluate(nat(99) * nat(99), 4) == 9801

    @given(
        st.integers(1, 400), st.integers(-3, 3), st.integers(2, 99),
        st.integers(1, 300), st.integers(-1, 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_cap_agrees_with_decimal_length(self, k, j, a, e, shift):
        # Values next to powers of ten, where a digit count estimated from
        # the bit length is most often one too many, against caps just
        # below, at and above their decimal length.
        v = 10 ** k + j
        for expr, value in ((nat(v), v), (nat(v) * nat(a), v * a), (nat(a) ** nat(e), a ** e)):
            d = len(str(value))
            assert evaluate(expr, d + shift) == (value if shift >= 0 else None)
            assert expr.digits() == d

    def test_fields_are_op_and_args(self):
        # Renderings that walk the dataclass fields see exactly these two.
        assert [f.name for f in dataclasses.fields(TowerInt)] == ["op", "args"]

    def test_equal_trees_are_one_node(self):
        assert nat(2) ** nat(3) is nat(2) ** nat(3)
        s = sigma(2, 3)
        normalize.cache_clear()
        assert sigma(2, 3) is s

    def test_bool_literal_is_the_int_node(self):
        one = nat(1)
        assert nat(True) is one
        assert one.args == (1,) and type(one.args[0]) is int

    def test_copies_return_the_interned_node(self):
        e = normalize(3 * nat(2) ** (nat(7) ** nat(40)) + nat(5) ** nat(10 ** 6))
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert twin is e

    def test_pickle_from_another_process(self):
        # Hashes are per-process identities, so unpickling must re-intern.
        code = (
            "import pickle, sys; from thetakit.bigconst import nat, normalize; "
            "sys.stdout.write(pickle.dumps(normalize(nat(2) ** (nat(3) ** nat(50)) * 7)).hex())"
        )
        env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        twin = pickle.loads(bytes.fromhex(out.stdout))
        e = normalize(nat(2) ** (nat(3) ** nat(50)) * 7)
        assert twin is e
        assert {twin: 1}[e] == 1

    def test_results_do_not_depend_on_hash_order(self):
        # Node hashes are addresses and string hashes follow PYTHONHASHSEED,
        # so a result read from a set's iteration order would differ here.
        code = (
            "from thetakit.bigconst import *\n"
            "print(nat(True).args)\n"
            "grid = [sigma(s, r) for s in (2, 3, 5) for r in (1, 2, 3)] + list(tree_constants(2, 2))\n"
            "grid += [sigma(2, 3) * 7 + 5, nat(6) ** nat(100) * nat(2)]\n"
            "print([[tower_compare(a, b) for b in grid] for a in grid])\n"
            "print([to_tower_str(e) for e in grid])\n"
            "print([verify_sigma_inequalities(al, t, s, 3) for al in (2, 3) for t in (1, 3) for s in (2, 5)])\n"
        )
        outs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            outs.append(run.stdout)
        assert outs[0] == outs[1]
        assert outs[0].startswith("(1,)\n")

    def test_normalization_preserves_value(self):
        rng = random.Random(7)
        for _ in range(200):
            e = random_expr(rng, 32)
            v = evaluate(e)
            if v is not None:
                assert evaluate(normalize(e)) == v

    def test_normal_products_have_distinct_bases(self):
        # The comparison drops a product's dominant factor by identity, which
        # removes exactly one factor only while no two factors share a base.
        rng = random.Random(11)
        for _ in range(200):
            e = nat(rng.randint(1, 10 ** 4))
            for _ in range(rng.randint(1, 5)):
                x = nat(10) ** nat(rng.randint(6, 9)) + rng.randint(0, 3)
                e = e * nat(rng.choice([2, 3, 4, 6, 9, 12, 10 ** 7 + 19])) ** x
            _, factors = _mul_parts(normalize(e))
            assert len({_as_power(f)[0] for f in factors}) == len(factors)


class TestSigma:
    def test_frozen_values(self):
        assert evaluate(sigma(2, 1)) == 2
        assert evaluate(sigma(2, 2)) == 256
        assert evaluate(sigma(3, 2)) == 531441

    def test_r_one_is_s(self):
        for s in range(1, 7):
            assert evaluate(sigma(s, 1)) == s

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sigma(0, 2)
        with pytest.raises(ValueError):
            sigma(2, 0)


class TestTreeConstants:
    def test_theta_one_ignores_branching(self):
        for a in (1, 2, 5):
            theta, mu, lam = tree_constants(a, 1)
            assert evaluate(theta) == 3
            assert evaluate(mu) == 1
            assert evaluate(lam) == 0

    def test_frozen_depth_two(self):
        theta, mu, lam = tree_constants(1, 2)
        assert evaluate(theta) == 531441
        assert evaluate(mu) == 125
        assert evaluate(lam) == 3188642

    def test_depth_two_wide_branching(self):
        theta, mu, lam = tree_constants(2, 2)
        assert evaluate(theta) == 3 ** 1728
        # mu_2 = (3*2^(2*3^1728) + 2)^3 cannot materialize; lambda_2 can.
        assert evaluate(mu) is None
        assert evaluate(lam) == 6 * 3 ** 1728 - 4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tree_constants(0, 1)
        with pytest.raises(ValueError):
            tree_constants(1, 0)


class TestTowerCompare:
    def test_frozen_tower_example(self):
        # 1728 * log2(3) is about 2739, below 4096, so the right side wins.
        left = nat(3) ** (nat(12) ** nat(3))
        right = nat(2) ** (nat(2) ** nat(12))
        assert tower_compare(left, right) == -1
        assert tower_compare(right, left) == 1

    def test_small_values(self):
        assert tower_compare(nat(2) ** nat(10), nat(1000)) == 1
        a = nat(7) ** nat(5) + nat(3)
        assert tower_compare(a, a) == 0

    def test_equal_values_different_shapes(self):
        pairs = [
            (nat(6) ** nat(100) * nat(2), nat(2) ** nat(101) * nat(3) ** nat(100)),
            ((nat(2) * nat(3)) ** (nat(2) ** nat(20)), nat(6) ** (nat(2) ** nat(20))),
            (nat(4) ** (nat(3) ** nat(50)), nat(2) ** (nat(2) * nat(3) ** nat(50))),
            (nat(2) ** nat(10 ** 6) * nat(2) ** nat(5), nat(2) ** nat(10 ** 6 + 5)),
        ]
        for x, y in pairs:
            assert tower_compare(x, y) == 0

    def test_plain_integer_against_power_below_it(self):
        # The left side has 60,207 digits, the right 80,001; the plain-integer
        # rung must not read a within-cap power as beyond the cap.
        left = 5 * (nat(2) ** nat(200000) + 1)
        right = nat(10 ** 80000)
        assert tower_compare(left, right) == -1
        assert tower_compare(right, left) == 1

    def test_near_tie_beyond_cap(self):
        # log2(3) * 10^6 = 1584962.50...; both neighbors decide correctly
        # even though the values have about half a million digits.
        base = nat(3) ** nat(10 ** 6)
        assert tower_compare(base, nat(2) ** nat(1584963)) == -1
        assert tower_compare(base, nat(2) ** nat(1584962)) == 1

    def test_seeded_agreement_with_exact(self):
        rng = random.Random(90401)
        checked = 0
        while checked < 100:
            x = random_expr(rng, 64)
            y = random_expr(rng, 64)
            vx = evaluate(x, 10 ** 4)
            vy = evaluate(y, 10 ** 4)
            if vx is None or vy is None:
                continue
            checked += 1
            assert tower_compare(x, y) == (vx > vy) - (vx < vy)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([2, 3, 7, 1000003]),
        st.sampled_from([2, 5, 1000033]),
        st.integers(1, 60) | st.integers(10 ** 6, 10 ** 7),
        st.integers(1, 60) | st.integers(10 ** 6, 10 ** 7),
        st.integers(-2, 2),
    )
    def test_monomials_beyond_cap(self, p, r, c1, c2, delta):
        # c1*p^m against c2*r^n with n picked to put the sides within a few
        # factors of r; both have over 10^5 digits, so only the logarithm
        # brackets (bit-length ones for the literals above 10^6) or a wider
        # materialization can decide, and the oracle materializes both.
        m = 360000 // (p.bit_length() - 1)
        n = int((m * math.log2(p) + math.log2(c1) - math.log2(c2)) / math.log2(r)) + delta
        left, right = c1 * p ** m, c2 * r ** n
        a, b = c1 * nat(p) ** nat(m), c2 * nat(r) ** nat(n)
        assert evaluate(a) is None and evaluate(b) is None
        assert tower_compare(a, b) == (left > right) - (left < right)

    # Exponents near 5^160000, whose 111,842 digits are beyond DIGIT_CAP.
    BIG = 5 ** 160000

    @staticmethod
    def scaled_power(c, q, d, symbolic):
        # c * q^(BIG + d), with the exponent a literal or a tower.
        if symbolic:
            x = nat(5) ** nat(160000)
            x = x + d if d >= 0 else x.minus(-d)
        else:
            x = nat(TestTowerCompare.BIG + d)
        return c * nat(q) ** x

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 7),
        st.integers(1, 50),
        st.integers(-5, 5),
        st.integers(1, 50),
        st.integers(-5, 5),
        st.booleans(),
    )
    def test_same_base_beyond_cap(self, q, c1, d1, c2, d2, symbolic):
        # Integer oracle on (c1, X1, c2, X2) alone: the sign of
        # c1*q^(X1-X2) - c2, scaled to integers when X1 < X2.
        assert evaluate(nat(self.BIG)) is None and self.BIG > 10 ** DIGIT_CAP
        d = d1 - d2
        gap = c1 * q ** d - c2 if d >= 0 else c1 - c2 * q ** -d
        a = self.scaled_power(c1, q, d1, symbolic)
        b = self.scaled_power(c2, q, d2, symbolic)
        assert tower_compare(a, b) == (gap > 0) - (gap < 0)
        assert tower_compare(b, a) == (gap < 0) - (gap > 0)

    def test_same_base_fixed_cases(self):
        x = nat(5) ** nat(160000)
        n = nat(10 ** 16775 + 7)
        three = nat(3)
        q = 2 * 10 ** 6
        cases = [
            # Lead factors and coefficients disagree; the exponents decide.
            (three ** x, 2 * three ** n, 1),
            (three ** x.minus(1), 2 * three ** n, 1),
            # Near ties: 4*3^X against 3^(X+1) and 3^(X+2), and an exact tie.
            (4 * three ** x, three ** (x + 1), 1),
            (4 * three ** x, three ** (x + 2), -1),
            (9 * three ** x, three ** (x + 2), 0),
            # A base too big to factor keeps q^2 as a literal coefficient,
            # so the rests' ratio is an exact power of the base.
            (nat(q) ** 2 * nat(q) ** x, nat(q) ** (x + 2), 0),
            (nat(q) ** 2 * nat(q) ** x, nat(q) ** (x + 3), -1),
            # Composite base 6 = 2*3: the rests are powers themselves.
            (nat(6) ** (x + 1), 7 * nat(6) ** x, -1),
            (nat(6) ** (x + 2), 7 * nat(6) ** x, 1),
        ]
        for a, b, want in cases:
            assert tower_compare(a, b) == want
            assert tower_compare(b, a) == -want

    def test_different_bases_beyond_cap(self):
        # Exponents equal or symbolic on both sides, so the bases' log2
        # bounds decide, one exponent level down.
        x = nat(2) ** nat(10 ** 6)
        cases = [
            (nat(2) ** x, nat(3) ** x, -1),
            (nat(4) ** x, nat(3) ** x, 1),
            (nat(7) ** x, nat(8) ** x, -1),
            # 3^300000 * log2(2) against 2^400000 * log2(3).
            (nat(2) ** (nat(3) ** nat(300000)), nat(3) ** (nat(2) ** nat(400000)), 1),
        ]
        for a, b, want in cases:
            assert tower_compare(a, b) == want
            assert tower_compare(b, a) == -want

    def test_powers_of_sums_beyond_cap(self):
        # A sum base b that cannot materialize is bracketed by its largest
        # addend M and its addend count: M^x < b^x <= (count*M)^x.
        mu2 = tree_constants(2, 2)[1]  # (3 * 2^X + 2)^3 with X far beyond the cap
        big = nat(2) ** (nat(2) ** nat(100))
        cases = [
            (mu2, nat(3) ** nat(10 ** 6), 1),
            (mu2, big + 5, 1),
            # The lower end settles a tie with M^x, since b > M.
            ((big + 5) ** 3, big ** 3, 1),
            # The upper end: (2M)^2 = 4 * 2^(2^101) < 3^(2^101).
            ((big + 5) ** 2, nat(3) ** (nat(2) ** nat(101)), -1),
        ]
        for a, b, want in cases:
            assert tower_compare(a, b) == want
            assert tower_compare(b, a) == -want

    def test_sums_against_sums_beyond_cap(self, monkeypatch):
        # Each sum lies in (M, count * M] for its largest addend M; these
        # pairs are settled by that bracket alone, never by materializing.
        def no_escalation(e1, e2):
            raise AssertionError("escalated")

        monkeypatch.setattr(bigconst, "_escalate", no_escalation)
        cases = [
            (nat(3) ** nat(10 ** 6) + 5, nat(2) ** nat(10 ** 6) + 7),
            (nat(3) ** nat(10 ** 7) + nat(2) ** nat(10 ** 6), nat(5) ** nat(10 ** 6) + 1),
            (nat(2) ** (nat(2) ** nat(100)) + nat(3) ** nat(10 ** 6), nat(3) ** (nat(2) ** nat(90)) + 1),
        ]
        for a, b in cases:
            assert tower_compare(a, b) == 1
            assert tower_compare(b, a) == -1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_agreement_property(self, seed):
        rng = random.Random(seed)
        x = random_expr(rng, 48)
        y = random_expr(rng, 48)
        vx = evaluate(x, 10 ** 4)
        vy = evaluate(y, 10 ** 4)
        if vx is not None and vy is not None:
            assert tower_compare(x, y) == (vx > vy) - (vx < vy)


class TestSigmaInequalities:
    def test_frozen_examples(self):
        assert verify_sigma_inequalities(2, 2, 2, 2)
        assert verify_sigma_inequalities(3, 3, 2, 3)

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            verify_sigma_inequalities(2, 2, 1, 2)
        with pytest.raises(ValueError):
            verify_sigma_inequalities(1, 2, 2, 2)
        with pytest.raises(ValueError):
            verify_sigma_inequalities(2, 0, 2, 2)

    def test_report_shape(self):
        rep = verify_sigma_inequalities(2, 3, 2, 4)
        assert rep.ok and bool(rep)
        # One base check plus one step check for each r in 2..r_max.
        assert len(rep.checks) == 4
        assert all(c.holds for c in rep.checks)

    def test_full_small_grid(self):
        for s in (2, 3):
            for alpha in (2, 3):
                for t in (2, 3):
                    assert verify_sigma_inequalities(alpha, t, s, 3)

    def test_former_escalation_grid(self):
        # These points once ended in RuntimeError: a lead power and a
        # literal coefficient that disagree, 3^(5^160000) against 2*3^N.
        for alpha in (3, 5, 7):
            for t in (1, 3):
                for s in (5, 6, 7):
                    assert verify_sigma_inequalities(alpha, t, s, 5).ok, (alpha, t, s)

    def test_monotone_in_r_max(self):
        # Raising r_max appends checks without changing earlier ones.
        for alpha, t, s in ((2, 2, 2), (3, 2, 3), (2, 3, 2)):
            previous = None
            for r_max in (1, 2, 3, 4):
                rep = verify_sigma_inequalities(alpha, t, s, r_max)
                labels = [c.label for c in rep.checks]
                if previous is not None:
                    assert labels[: len(previous)] == previous
                previous = labels


class TestLemmaIdentity:
    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("t", [2, 3])
    def test_depth_two_identity(self, a, t):
        # mu_2 t^lambda_2 equals ((3a^(2 theta_2)+2)(t^(2(theta_2-1)) mu_1
        # t^lambda_1))^3 t^2, as trees, not just numerically.
        theta2, mu2, lam2 = tree_constants(a, 2)
        _, mu1, lam1 = tree_constants(a, 1)
        lhs = mu2 * nat(t) ** lam2
        inner = nat(t) ** (2 * theta2.minus(1)) * (mu1 * nat(t) ** lam1)
        rhs = ((3 * nat(a) ** (2 * theta2) + 2) * inner) ** 3 * nat(t) ** 2
        assert normalize(lhs) == normalize(rhs)
        assert tower_compare(lhs, rhs) == 0


class TestRendering:
    def test_tower_notation(self):
        s = to_tower_str(nat(2) ** nat(10 ** 6))
        assert "2^1000000" == s

    def test_digit_estimates(self):
        assert digit_estimate(nat(999)) == "3"
        assert digit_estimate(nat(3) ** (nat(12) ** nat(3))) == "825"
        beyond = digit_estimate(nat(2) ** nat(10 ** 6))
        assert "beyond" in beyond or beyond.startswith("~10^")

    def test_digits_past_the_int_to_str_limit(self):
        # CPython refuses str() of ints over 4,300 digits by default.
        assert nat(10 ** 5000).digits() == 5001
        assert nat(10 ** 5000 - 1).digits() == 5000
        assert (nat(10) ** nat(5000)).digits() == 5001
        assert digit_estimate(nat(10 ** 5000)) == "5001"
        assert digit_estimate(nat(10 ** 5000 - 1)) == "5000"
        for v in [0, 1, 7, 8, 9] + [10 ** k + j for k in range(1, 40) for j in (-1, 0, 1)]:
            assert nat(v).digits() == len(str(v))
