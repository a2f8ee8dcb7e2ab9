"""Tower arithmetic: frozen values, exact comparison, the inequality block."""

import copy
import dataclasses
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

import oracles
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
from thetakit.bigconst import _as_power, _log2_bounds, _magnitude, _mul_parts


class Escalated(Exception):
    """Raised where a comparison would materialize its operands."""


@pytest.fixture
def no_escalation(monkeypatch):
    def escalate(e1, e2):
        raise Escalated

    monkeypatch.setattr(bigconst, "_escalate", escalate)


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


def corpus_tower(rng: random.Random, depth: int) -> TowerInt:
    # Drawn as perfbench's corpus draws its tower_compare operands (literals
    # 2-9, depth at most 3), with minus nodes that stay natural added.
    if depth == 0:
        return nat(rng.randint(2, 9))
    op = rng.choice(("pow", "pow", "mul", "add", "sub"))
    if op == "sub":
        pad = rng.randint(0, 9)
        return (corpus_tower(rng, depth - 1) + pad).minus(rng.randint(0, pad))
    a = corpus_tower(rng, depth - 1)
    b = corpus_tower(rng, rng.randint(0, depth - 1))
    return a ** b if op == "pow" else a * b if op == "mul" else a + b


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
            "from oracles import sigma_by_comparison\n"
            "print(nat(True).args)\n"
            "grid = [sigma(s, r) for s in (2, 3, 5) for r in (1, 2, 3)] + list(tree_constants(2, 2))\n"
            "grid += [sigma(2, 3) * 7 + 5, nat(6) ** nat(100) * nat(2)]\n"
            "print([[tower_compare(a, b) for b in grid] for a in grid])\n"
            "print([to_tower_str(e) for e in grid])\n"
            "points = [(al, t, s, 3) for al in (2, 3) for t in (1, 3) for s in (2, 5)]\n"
            "print([(verify_sigma_inequalities(*p), sigma_by_comparison(*p)) for p in points])\n"
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
            # Unfactored literal bases: the two addends are equal, so the sum
            # reaches the top of its bracket, count * M.
            (
                nat(2 * 10 ** 6) ** nat(16000) + nat(4 * 10 ** 12) ** nat(8000),
                2 * nat(4 * 10 ** 12) ** nat(8000),
            ),
        ]
        for x, y in pairs:
            assert tower_compare(x, y) == 0
            assert tower_compare(y, x) == 0

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

    def test_shared_addend_over_a_near_tie(self):
        # 2^F is 5^E times 2^(E * log2(5) * 10^-9), so their brackets are
        # disjoint, but those of the sums overlap.  The sum rung cancels S and
        # compares 5^E with 2^F, which the log2 ladder cannot separate.
        e = 10 ** 20
        with localcontext() as ctx:
            ctx.prec = 60
            f = int(Decimal(e) * Decimal(5).ln() / Decimal(2).ln() * (1 + Decimal(10) ** -9))
        s = nat(3) ** nat(10 ** 30)
        small, large = nat(5) ** nat(e) + s, nat(2) ** nat(f) + s
        assert tower_compare(small, large) == -1
        assert tower_compare(large, small) == 1

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
        # Literal rests whose ratio needs k past the 16 that tree rests try:
        # 3^13 is about 2^20.6, so k = 21, and 2^40 (a coefficient, being
        # too big to factor) needs k = 40, which ties the exponents exactly.
        for y in (nat(10) ** nat(20), nat(10 ** 400)):
            cases += [
                (nat(2) ** y * nat(3) ** nat(13), nat(2) ** (y + 20), 1),
                (nat(2) ** y * nat(3) ** nat(13), nat(2) ** (y + 21), -1),
                (nat(2 ** 40) * nat(2) ** y, nat(2) ** (y + 40), 0),
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
            # The ladder raised here; the magnitude brackets are disjoint at
            # level 2 (about 2741 against 20.6).
            (mu2, nat(3) ** nat(10 ** 6) + 5, 1),
            (mu2, big + 5, 1),
            # The lower end settles a tie with M^x, since b > M.
            ((big + 5) ** 3, big ** 3, 1),
            # The upper end: (2M)^2 = 4 * 2^(2^101) < 3^(2^101).
            ((big + 5) ** 2, nat(3) ** (nat(2) ** nat(101)), -1),
        ]
        for a, b, want in cases:
            assert tower_compare(a, b) == want
            assert tower_compare(b, a) == -want

    def test_sums_against_sums_beyond_cap(self, no_escalation):
        # Each sum lies in (M, count * M] for its largest addend M; where that
        # bracket leaves the order open, the terms and constant both sides
        # share are dropped.  No pair here needs materializing.
        x, y = nat(3) ** nat(10 ** 9), nat(3) ** nat(10 ** 6)
        cases = [
            (nat(3) ** nat(10 ** 6) + 5, nat(2) ** nat(10 ** 6) + 7, 1),
            (nat(3) ** nat(10 ** 7) + nat(2) ** nat(10 ** 6), nat(5) ** nat(10 ** 6) + 1, 1),
            (nat(2) ** (nat(2) ** nat(100)) + nat(3) ** nat(10 ** 6), nat(3) ** (nat(2) ** nat(90)) + 1, 1),
            (x + 5, x + 7, -1),
            (2 * x, x + 7, 1),
            (nat(2) ** nat(10 ** 9) + x, x + nat(2) ** nat(10 ** 9) + 1, -1),
            (y + 5, y + 7, -1),
            # M of one side equals count * M of the other: a tie at the edge
            # of the brackets, which still settles the order.
            (nat(2) ** nat(10 ** 9 + 1) + 1, nat(2) ** nat(10 ** 9) + 1, 1),
            (nat(3) ** nat(10 ** 9 + 1) + nat(2) ** nat(10 ** 9), 2 * x + nat(2) ** nat(10 ** 9), 1),
            # Shared terms are dropped once the brackets leave the order open.
            (
                nat(2) ** nat(10 ** 9 + 1) + nat(3) ** nat(10 ** 8) + 1,
                nat(2) ** nat(10 ** 9) + nat(3) ** nat(10 ** 8) + 1,
                1,
            ),
        ]
        for a, b, want in cases:
            assert tower_compare(a, b) == want
            assert tower_compare(b, a) == -want

    @pytest.mark.parametrize("alpha, t, s, r", [(2, 50, 13, 5), (2, 50, 13, 6), (97, 50, 40, 5)])
    def test_sigma_steps_beyond_cap(self, no_escalation, alpha, t, s, r):
        # The step side(sigma_r) > side(p) + side(p^3), p = sigma_(r-1), with
        # side(x) = alpha^x t^(x-1), holds by verify_sigma_inequalities'
        # lemma.  The magnitude brackets settle each pair at level 2; the
        # ladder alone materializes each for 7 s or more and may then raise.
        al, tt = nat(alpha), nat(t)

        def side(e):
            return al ** e * tt ** e.minus(1)

        p = sigma(s, r - 1)
        assert tower_compare(side(sigma(s, r)), side(p) + side(p ** 3)) == 1

    @pytest.mark.parametrize("x", [3, 50])
    def test_powers_of_large_literals_beyond_cap(self, no_escalation, x):
        # 2^400000 + 1 is a literal of 120,412 digits; the logarithm brackets
        # read its leading bits, so no pair here needs materializing.
        a = nat(2 ** 400000 + 1) ** nat(x)
        assert evaluate(nat(2 ** 400000 + 1)) is None
        cases = [
            (nat(2) ** nat(400000 * x + 2 * x), -1),
            (nat(2) ** nat(400000 * x - 100), 1),
            (nat(3) ** nat(252000 * x), 1),
            (nat(3) ** nat(253000 * x), -1),
        ]
        for b, want in cases:
            assert tower_compare(a, b) == want
            assert tower_compare(b, a) == -want

    @pytest.mark.parametrize("p, q", [(3, 2), (7, 2), (5, 3), (999983, 2)])
    def test_near_tie_sweep(self, no_escalation, p, q):
        # p^E against q^F and q^(F + 1), F = floor(E * log_q(p)), the powers
        # of q on either side, with literal exponents and with X*E against
        # X*F, X = 5^160000.  The expected sign comes from decimal logarithms
        # at E's digits plus 60, not from _log2_bounds.
        x = nat(5) ** nat(160000)
        for e in (10 ** k for k in (6, 12, 20, 40, 80, 200)):
            with localcontext() as ctx:
                ctx.prec = len(str(e)) + 60
                ln_p, ln_q = Decimal(p).ln(), Decimal(q).ln()
                floor = int(e * ln_p / ln_q)
                for f in (floor, floor + 1):
                    gap = e * ln_p - f * ln_q
                    want = (gap > 0) - (gap < 0)
                    literal = nat(p) ** nat(e), nat(q) ** nat(f)
                    tree = nat(p) ** (x * e), nat(q) ** (x * f)
                    for a, b in (literal, tree):
                        assert tower_compare(a, b) == want, (p, q, e, f - floor)
                        assert tower_compare(b, a) == -want, (p, q, e, f - floor)

    # F = floor(10^12 * log2(3)), so 2^F < 3^(10^12) < 2^(F + 1), about 1.114 * 2^F.
    F = 1_584_962_500_721

    def test_sum_rung(self, no_escalation):
        # The sum's bracket is (M, 2M] with M = 3^(10^12), and M exceeds 2^F.
        a, b = nat(3) ** nat(10 ** 12) + 1, nat(2) ** nat(self.F)
        assert tower_compare(a, b) == 1
        assert tower_compare(b, a) == -1

    def test_plain_integer_rung(self, no_escalation):
        # log2 of the literal is within 2^-400000 of 400000, closer than any
        # precision _compare_logs tries, so the power is materialized at the
        # literal's width and the ints compared.
        a, b = nat(2 ** 400000 + 1), nat(2) ** nat(400000)
        assert tower_compare(a, b) == 1
        assert tower_compare(b, a) == -1

    def test_monomial_rung(self, no_escalation):
        # 3^(10^12) * 5^7 is about 2^(F + 16.4).
        a, b = nat(3) ** nat(10 ** 12) * nat(5) ** nat(7), nat(2) ** nat(self.F + 17)
        assert tower_compare(a, b) == -1
        assert tower_compare(b, a) == 1

    def test_power_of_a_sum_below_its_upper_end(self, no_escalation):
        # (3^(10^12) + 1)^3 <= (2 * 3^(10^12))^3, about 2^(3F + 3.5).
        a, b = (nat(3) ** nat(10 ** 12) + 1) ** nat(3), nat(2) ** nat(4_754_887_502_167)
        assert tower_compare(a, b) == -1
        assert tower_compare(b, a) == 1

    def test_exponents_zero_and_one_normalize_at_once(self, no_escalation):
        base = nat(10 ** 200000 + 3)
        assert normalize(base ** 0) is nat(1)
        assert normalize(base ** 1) is base

    # Known defect: the sum 2^F + 1 has the bracket (2^F, 2^(F + 1)], which
    # holds 3^(10^12), so the sum rung leaves the order open and the ladder
    # escalates, which raises; 3^(10^12) - 1 against 2^F becomes 3^(10^12)
    # against 2^F + 1.
    @pytest.mark.xfail(strict=True, raises=RuntimeError)
    @pytest.mark.parametrize("flip", [False, True])
    def test_near_tie_sum_against_a_power(self, flip):
        a, b = nat(3) ** nat(10 ** 12), nat(2) ** nat(self.F) + 1
        assert tower_compare(*((b, a) if flip else (a, b))) == (-1 if flip else 1)

    @pytest.mark.xfail(strict=True, raises=RuntimeError)
    @pytest.mark.parametrize("flip", [False, True])
    def test_near_tie_difference_against_a_power(self, flip):
        a, b = (nat(3) ** nat(10 ** 12)).minus(1), nat(2) ** nat(self.F)
        assert tower_compare(*((b, a) if flip else (a, b))) == (-1 if flip else 1)

    # Known defect: 2(θ - 1) and 2θ - 2 are one value in two shapes, and no
    # normal form distributes the coefficient over the difference, so the
    # ladder escalates past the materialisation cap and raises.
    @pytest.mark.xfail(strict=True, raises=RuntimeError)
    def test_coefficient_over_a_difference(self):
        theta = nat(3) ** (nat(12) ** nat(11))
        assert tower_compare(2 * theta.minus(1), (2 * theta).minus(2)) == 0

    def test_log2_bounds_certify(self):
        # lo <= 2^p * log2(b) <= hi against the exact power b^(2^p), whose
        # bit length less one is the floor of 2^p * log2(b), and the bracket
        # is at most two units wide.  The random bases, of 70 to 5,000 bits,
        # lie far above _FACTOR_BOUND; p stops where b^(2^p) passes 2^20 bits.
        rng = random.Random(310501)
        bases = list(range(1, 401))
        for k in (rng.randint(70, 5000) for _ in range(40)):
            bases.append(rng.getrandbits(k) | 1 << (k - 1) | 1)
        for b in bases:
            for p in range(11):
                if b.bit_length() << p > 1 << 20:
                    break
                lo, hi = _log2_bounds(b, p)
                v = b ** (1 << p)
                assert lo <= v.bit_length() - 1 and v <= 1 << hi and hi - lo <= 2, (b, p)

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


class TestMagnitude:
    """The certified brackets tower_compare tries before any normal form."""

    def test_entry_rung_matches_the_ladder(self, no_escalation):
        # The ladder decides every pair here unless it would materialize,
        # which costs seconds a pair; _escalate is cut short instead, and
        # those few pairs are counted.
        rng = random.Random(280601)
        undecided = 0
        for i in range(2000):
            if i % 4 == 3:
                a, b = random_expr(rng, 48), random_expr(rng, 48)
            else:
                a, b = corpus_tower(rng, 3), corpus_tower(rng, 3)
            try:
                want = oracles.tower_compare_by_ladder(a, b), oracles.tower_compare_by_ladder(b, a)
            except Escalated:
                undecided += 1
                continue
            assert (tower_compare(a, b), tower_compare(b, a)) == want
        assert undecided <= 5

    def test_tall_towers(self, no_escalation):
        # b^^n is the power tower of n copies of b.  By induction on n,
        # 2^^(n+1) < 3^^n < 2^^(n+2) for n >= 2; the brackets here reach level
        # 5, and none of these pairs may materialize.
        def up(b, n):
            e = nat(b)
            for _ in range(n - 1):
                e = nat(b) ** e
            return e

        cases = []
        for n in (3, 5, 7):
            cases += [(up(2, n + 1), up(3, n), -1), (up(2, n + 2), up(3, n), 1)]
        cases += [
            (up(2, 6).minus(1), up(2, 5), 1),
            # 2^^5 < 3^^4, and (3^^4)^2 < 3^(3^^4).
            (up(2, 5) * up(3, 4), up(3, 5), -1),
            (up(3, 6) * up(3, 6), up(3, 7), -1),
            (up(3, 4) ** up(3, 4), up(3, 5), 1),
            (up(3, 6) + up(2, 7), up(3, 6), 1),
            # Ties and near-ties overlap and go on to the ladder.
            (up(3, 6) ** 2, up(3, 6) * up(3, 6), 0),
            (up(3, 6) + 1, up(3, 6), 1),
        ]
        assert max(_magnitude(a)[0] for a, _, _ in cases) >= 5
        for a, b, want in cases:
            assert tower_compare(a, b) == want
            assert tower_compare(b, a) == -want

    def test_float_cap_promotions(self):
        # A level-1 or level-2 end past 2^1000 moves its bracket one level up.
        # B = 2^63; t_n is n nested ** B on 2, so t_n = 2^(2^(63n)).
        big = nat(2 ** 63)

        def nested(n):
            e = nat(2)
            for _ in range(n):
                e = e ** big
            return e

        y = nested(15) ** nat(2 ** 54)  # 2^(2^999), at level 1
        cases = [
            (nested(16), 2),  # pow, level 1 -> 2
            (y * y, 2),  # mul, level 1 -> 2
            ((nat(3) ** y) ** y, 3),  # pow, level 2 -> 3
        ]
        assert _magnitude(y)[0] == 1
        for t, level in cases:
            at, lo, hi = _magnitude(t)
            assert at == level and lo <= hi
            assert tower_compare(t, 2 * t) == -1
            assert tower_compare(2 * t, t) == 1

    @staticmethod
    def iterated_log2(x: Decimal, level: int) -> Decimal:
        for _ in range(level):
            x = x.ln() / Decimal(2).ln() if x > 0 else Decimal("-Infinity")
        return x

    def test_brackets_contain_the_value(self):
        # Every subtree of seeded trees: a value within 10^4 digits must lie
        # in its bracket, and so must b*log2(a) for a power a^b beyond that
        # whose base and exponent are within it (which reaches level 2).
        rng = random.Random(280602)
        roots = [corpus_tower(rng, rng.randint(1, 3)) for _ in range(300)]
        roots += [random_expr(rng, 48) for _ in range(300)]
        # Minuends past level 0 less subtrahends up to nearly half of them,
        # where x - k loses almost a bit.
        for _ in range(40):
            x = rng.randint(2 ** 64, 2 ** 65)
            roots.append(nat(x).minus(rng.randint(x // 8, x * 49 // 100)))
        seen, stack = set(), list(roots)
        levels = set()
        with localcontext() as ctx:
            ctx.prec = 60
            while stack:
                e = stack.pop()
                if e in seen:
                    continue
                seen.add(e)
                if e.op != "nat":
                    stack.extend(e.args)
                m = _magnitude(e)
                assert m is not None
                level, lo, hi = m
                v = evaluate(e, 10 ** 4)
                if v is not None:
                    if level == 0:
                        assert lo == v == hi
                        continue
                    x = self.iterated_log2(Decimal(v), level)
                elif e.op == "pow" and level >= 1:
                    a, b = (evaluate(c, 10 ** 4) for c in e.args)
                    if a is None or b is None:
                        continue
                    x = self.iterated_log2(b * self.iterated_log2(Decimal(a), 1), level - 1)
                else:
                    continue
                levels.add(level)
                assert Decimal(lo) <= x <= Decimal(hi)
            assert levels == {1, 2}
            # Past half the minuend, x/2 no longer bounds x - k from below;
            # a bracket there must still hold the value, if one is given.
            for _ in range(100):
                x = rng.randint(2 ** 64, 2 ** 65)
                k = rng.randint(x * 49 // 100, x - 1)
                m = _magnitude(nat(x).minus(k))
                if m is not None:
                    assert Decimal(m[1]) <= self.iterated_log2(Decimal(x - k), m[0]) <= Decimal(m[2])


class TestSigmaInequalities:
    def test_frozen_examples(self):
        assert verify_sigma_inequalities(2, 2, 2, 2)
        assert verify_sigma_inequalities(3, 3, 2, 3)

    def test_precondition_errors(self):
        bad = [
            (2, 2, 1, 2),
            (1, 2, 2, 2),
            (2, 0, 2, 2),
            (2, 2, 2, 0),
            # Every argument must be an int and not a bool.
            (2.5, 2, 2, 2),
            (2, 1.0, 2, 2),
            (2, 2, 2, 2.0),
            (2, True, 2, 2),
            (2, 2, 2, True),
        ]
        for args in bad:
            with pytest.raises(ValueError):
                verify_sigma_inequalities(*args)

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
                    rep = verify_sigma_inequalities(alpha, t, s, 3)
                    assert rep.ok
                    assert repr(rep) == repr(oracles.sigma_by_comparison(alpha, t, s, 3))

    def test_former_escalation_grid(self):
        # These points once ended in RuntimeError in the comparison: a lead
        # power and a literal coefficient that disagree, 3^(5^160000)
        # against 2*3^N.  The oracle still drives that path.
        for alpha in (3, 5, 7):
            for t in (1, 3):
                for s in (5, 6, 7):
                    rep = verify_sigma_inequalities(alpha, t, s, 5)
                    assert rep.ok, (alpha, t, s)
                    assert repr(rep) == repr(oracles.sigma_by_comparison(alpha, t, s, 5)), (alpha, t, s)

    def test_same_reports_as_comparison_on_the_benchmark_grid(self):
        # The 432 points of the towers workload's sigma grid.
        for alpha, t, s, r_max in itertools.product(range(2, 8), range(1, 4), range(2, 8), range(2, 6)):
            rep = verify_sigma_inequalities(alpha, t, s, r_max)
            assert repr(rep) == repr(oracles.sigma_by_comparison(alpha, t, s, r_max)), (alpha, t, s, r_max)

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


class TestSigmaLemma:
    # The lemma behind verify_sigma_inequalities in plain integers, with no
    # tower arithmetic: mid = ((2s)^(2s-1) - 1) s^2 and sigma_2 = s^(4s).

    def test_base_integer_steps(self):
        for s in range(2, 61):
            mid = ((2 * s) ** (2 * s - 1) - 1) * s * s
            assert s ** (4 * s) >= 2 ** (2 * s - 1) * s ** (2 * s + 1) >= mid + 1, s
            assert mid > s, s
        # The chain needs s >= 2: at s = 1, sigma_2 = 1 = mid.
        assert 1 ** (4 * 1) == ((2 * 1) ** (2 * 1 - 1) - 1) * 1 * 1

    def test_step_integer_bound(self):
        for p in range(2, 51):
            for s in range(2, 11):
                assert p ** (4 * s) >= p ** 3 + 1, (p, s)

    @pytest.mark.parametrize("alpha", range(2, 8))
    @pytest.mark.parametrize("t", range(1, 4))
    def test_both_displays_at_s_two(self, alpha, t):
        def side(x):
            return alpha ** x * t ** (x - 1)

        s, sigma_2 = 2, 256
        assert sigma_2 == s ** (4 * s)
        mid = ((2 * s) ** (2 * s - 1) - 1) * s * s
        assert side(sigma_2) > side(s) + side(mid)
        # Step r = 2, where p = sigma_1 = s.
        assert side(sigma_2) > side(s) + side(s ** 3)


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
