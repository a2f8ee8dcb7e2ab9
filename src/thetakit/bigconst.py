"""Exact arithmetic and ordering for tower-sized integer constants.

Values are expression trees over naturals with +, *, ^ and a guarded
small-literal subtraction.  Trees normalize to a canonical form (constants
folded up to a digit cap, natural bases split into prime powers, powers
distributed over products, same-base powers merged, sums collected into
linear combinations), so equal structure decides equality.  Ordering
starts from the raw trees and climbs a ladder:

1. before any normal form is built, each side gets a certified magnitude
   bracket (_magnitude): an exact int below 2^64 at level 0, else float
   ends of log2 applied level times, widened outward (the level-index
   idea of Clenshaw and Olver, JACM 1984).  Raised to a common level,
   disjoint brackets give the order; only ties and near-ties, whose
   brackets overlap, go on down the ladder of normal forms;
2. identical canonical trees are equal;
3. two literals compare as big integers (a value within DIGIT_CAP
   normalizes to one);
4. otherwise the order is decided by descent:
   - a sum of count addends, the largest M, lies in (M, count*M]; when
     neither side's bracket settles the order, the terms and constant both
     sides share are dropped (x + c against y + c is x against y);
   - powers b^x of literal bases b >= 2 compare by the sums of x*log2(b)
     (_compare_logs): at 16 to 1024 bits of precision, one side's sum of
     x*lo against the other's of x*hi, for integers lo/2^precision <=
     log2(b) <= hi/2^precision (_log2_bounds), as trees, so the recursion
     runs one exponent level down; exact ties go on down.  Whole products
     with literal exponents take this rung, the coefficient a first power;
     so do the dominant power pairs below;
   - other products pair off their dominant powers and compare the pair
     and the rests.  When the two disagree over powers of one base,
     q^x1*r1 against q^x2*r2 (say c1*q^x1 against c2*q^x2 for literal
     coefficients), the least k with q^k*r1 >= r2 (a small one, unless
     q, r1 and r2 are literals) brackets the rests' ratio, and the order
     is that of x1 against x2 + k, a tie falling to q^k*r1 against r2;
5. a pair no rung settles is materialized once, up to _ESCALATION_CAP
   digits; beyond that the comparison raises RuntimeError.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

DIGIT_CAP = 10 ** 5
_ESCALATION_CAP = 10 ** 8
_FACTOR_BOUND = 10 ** 6
# Largest k tried when q^k must bracket the ratio of two rests.
_SHIFT_LIMIT = 16
# bits * log10(2) bounds used for digit estimates.
_LOG10_2 = (30103, 100000)


@dataclass(frozen=True, eq=False, init=False)
class TowerInt:
    """One node of an expression tree denoting a natural number.

    ``op`` is one of "nat", "add", "sub", "mul", "pow"; a nat carries its
    integer in ``args[0]`` and every other node two child trees.  The
    subtrahend of a sub node must be a plain literal, which keeps every
    subtree's value a natural number by construction.

    Nodes are hash-consed: ``TowerInt(op, args)`` returns the one node in
    ``_NODES`` for that pair, so equal trees are one object and compare and
    hash by identity.  Only ``__new__`` sets the fields: an ``__init__``
    would rebind a shared node's ``args`` (``nat(True)`` is ``nat(1)``).
    Pickles and copies rebuild through ``__new__`` and so re-intern.
    ``_NODES`` keeps every node for the life of the process, like the
    unbounded caches below; a report of cache sizes should count it.  A
    node compared by ``tower_compare`` also keeps its magnitude bracket,
    outside the two fields (see ``_magnitude``).
    """

    op: str
    args: tuple

    def __new__(cls, op: str, args: tuple) -> "TowerInt":
        key = (op, args)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            object.__setattr__(node, "op", op)
            object.__setattr__(node, "args", args)
        return node

    def __reduce__(self):
        return TowerInt, (self.op, self.args)

    def __add__(self, other: "TowerInt | int") -> "TowerInt":
        return TowerInt("add", (self, _coerce(other)))

    def __radd__(self, other: int) -> "TowerInt":
        return TowerInt("add", (_coerce(other), self))

    def __mul__(self, other: "TowerInt | int") -> "TowerInt":
        return TowerInt("mul", (self, _coerce(other)))

    def __rmul__(self, other: int) -> "TowerInt":
        return TowerInt("mul", (_coerce(other), self))

    def __pow__(self, other: "TowerInt | int") -> "TowerInt":
        return TowerInt("pow", (self, _coerce(other)))

    def minus(self, literal: int) -> "TowerInt":
        if not isinstance(literal, int) or literal < 0:
            raise ValueError("subtrahend must be a nonnegative literal")
        return TowerInt("sub", (self, nat(literal)))

    def digits(self) -> int | None:
        """Decimal digit count of the value, None beyond the cap."""
        v = evaluate(self)
        if v is None:
            return None
        # Counting from the bit length instead of converting to a string
        # keeps clear of CPython's int-to-str digit limit.
        d = _digits_of_int(v)
        return d - 1 if _fits(v, d - 1) else d


_NODES: dict[tuple, TowerInt] = {}


def nat(k: int) -> TowerInt:
    if not isinstance(k, int) or k < 0:
        raise ValueError("naturals only")
    return TowerInt("nat", (int(k),))


def _coerce(x: "TowerInt | int") -> TowerInt:
    return x if isinstance(x, TowerInt) else nat(x)


def _digits_of_bits(bits: int) -> int:
    # Decimal digits of an integer of this bit length: exact or one too many.
    return bits * _LOG10_2[0] // _LOG10_2[1] + 1


def _digits_of_int(v: int) -> int:
    return _digits_of_bits(v.bit_length()) if v else 1


def _fits(v: int, cap: int) -> bool:
    """True iff v has at most cap decimal digits."""
    # The estimate is exact or one too many, so only cap + 1 needs a check.
    d = _digits_of_int(v)
    return d <= cap or d == cap + 1 and 0 < v < 10 ** cap


@lru_cache(maxsize=None)
def _value_capped(e: TowerInt, cap: int) -> int | None:
    """The denoted integer when its digit count stays within cap, else None."""
    if e.op == "nat":
        v = e.args[0]
        return v if _fits(v, cap) else None
    a = _value_capped(e.args[0], cap)
    if a is None:
        return None
    if e.op == "pow":
        ev = _value_capped(e.args[1], cap)
        if ev is None:
            return None
        if a in (0, 1) or ev == 0:
            return 1 if ev == 0 or a == 1 else 0
        # Reject only when a lower bound of the bit count surely passes the
        # cap (its estimate passes cap + 1), so that None always means
        # "beyond the cap": comparisons read it that way.  Likewise for mul.
        if _digits_of_bits(((ev * _log2_bounds(a, 8)[0]) >> 8) + 1) > cap + 1:
            return None
        v = a ** ev
        return v if _fits(v, cap) else None
    b = _value_capped(e.args[1], cap)
    if b is None:
        return None
    if e.op == "add":
        v = a + b
    elif e.op == "sub":
        if b > a:
            raise ValueError("subtraction went negative")
        v = a - b
    else:
        if _digits_of_bits(a.bit_length() + b.bit_length() - 1) > cap + 1:
            return None
        v = a * b
    return v if _fits(v, cap) else None


def evaluate(e: TowerInt, cap: int = DIGIT_CAP) -> int | None:
    """Exact value when it has at most cap decimal digits, else None."""
    return _value_capped(e, cap)


def _sort_key(e: TowerInt):
    if e.op == "nat":
        return (0, e.args[0])
    return (1, e.op) + tuple(_sort_key(a) for a in e.args)


def _prime_split(b: int) -> list[tuple[int, int]]:
    # (prime, multiplicity) pairs; b returned whole when too big to factor.
    if b >= _FACTOR_BOUND:
        return [(b, 1)]
    out = []
    p = 2
    while p * p <= b:
        if b % p == 0:
            k = 0
            while b % p == 0:
                b //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if b > 1:
        out.append((b, 1))
    return out


def _rebuild_product(factors: list[TowerInt], coeff: int) -> TowerInt:
    factors = sorted(factors, key=_sort_key)
    if coeff != 1 or not factors:
        factors = [nat(coeff)] + factors
    out = factors[0]
    for f in factors[1:]:
        out = TowerInt("mul", (out, f))
    return out


def _rebuild_sum(terms: list[tuple[TowerInt, int]], const: int) -> TowerInt:
    parts = []
    for term, c in sorted(terms, key=lambda tc: _sort_key(tc[0])):
        if c == 1:
            parts.append(term)
        else:
            # Same flat shape a product normalization would produce.
            parts.append(_merge_nat_factors(TowerInt("mul", (nat(c), term))))
    if not parts:
        if const < 0:
            raise ValueError("expression denotes a negative value")
        return nat(const)
    out = parts[0]
    for p in parts[1:]:
        out = TowerInt("add", (out, p))
    if const > 0:
        out = TowerInt("add", (out, nat(const)))
    elif const < 0:
        out = TowerInt("sub", (out, nat(-const)))
    return out


def _mul_parts(e: TowerInt) -> tuple[int, list[TowerInt]]:
    # Canonical e as (nat coefficient, symbolic factors).
    if e.op == "nat":
        return e.args[0], []
    if e.op == "mul":
        c = 1
        factors = []
        stack = [e]
        while stack:
            f = stack.pop()
            if f.op == "mul":
                stack.extend(f.args)
            elif f.op == "nat":
                c *= f.args[0]
            else:
                factors.append(f)
        return c, factors
    return 1, [e]


def _sum_parts(e: TowerInt) -> tuple[int, list[tuple[TowerInt, int]]]:
    # Canonical e as (integer constant, [(symbolic term, coeff >= 1)]).
    const = 0
    terms: dict[TowerInt, int] = {}
    stack = [(e, 1)]
    while stack:
        f, sign = stack.pop()
        if f.op == "add":
            stack.append((f.args[0], sign))
            stack.append((f.args[1], sign))
        elif f.op == "sub":
            stack.append((f.args[0], sign))
            stack.append((f.args[1], -sign))
        else:
            c, factors = _mul_parts(f)
            if not factors:
                const += sign * c
            else:
                key = _rebuild_product(factors, 1)
                terms[key] = terms.get(key, 0) + sign * c
    kept = [(t, c) for t, c in terms.items() if c != 0]
    if any(c < 0 for _, c in kept):
        raise ValueError("expression denotes a negative value")
    return const, kept


@lru_cache(maxsize=None)
def normalize(e: TowerInt) -> TowerInt:
    """Canonical value-preserving form of the expression."""
    v = evaluate(e)
    if v is not None:
        return nat(v)
    if e.op in ("add", "sub"):
        folded = TowerInt(e.op, tuple(normalize(a) for a in e.args))
        const, terms = _sum_parts(folded)
        return _rebuild_sum(terms, const)
    if e.op == "mul":
        # One pass suffices: every factor of a normal part is a power,
        # beyond the cap, of a prime, of a literal >= _FACTOR_BOUND or of a
        # sum, and summing one base's exponents keeps that form.
        coeff = 1
        groups: dict[TowerInt, list[TowerInt]] = {}
        for part in e.args:
            c, factors = _mul_parts(normalize(part))
            coeff *= c
            for f in factors:
                base, exp = _as_power(f)
                groups.setdefault(base, []).append(exp)
        if coeff == 0:
            return nat(0)
        if coeff > 1:
            # Primes of the coefficient that already appear as bases
            # migrate into those bases' exponents.
            leftover = 1
            for p, k in _prime_split(coeff):
                if nat(p) in groups:
                    groups[nat(p)].append(nat(k))
                else:
                    leftover *= p ** k
            coeff = leftover
        merged = []
        for base, exps in groups.items():
            total = exps[0]
            for x in exps[1:]:
                total = TowerInt("add", (total, x))
            merged.append(normalize(TowerInt("pow", (base, total))))
        return _rebuild_product(merged, coeff)
    if e.op == "pow":
        base, exp = (normalize(x) for x in e.args)
        ev = evaluate(exp)
        if ev == 0:
            return nat(1)
        if ev == 1:
            return base
        if base.op == "nat":
            bv = base.args[0]
            if bv in (0, 1):
                return base
            split = _prime_split(bv)
            if len(split) > 1 or split[0][1] > 1:
                prod = None
                for p, k in split:
                    f = normalize(
                        TowerInt("pow", (nat(p), TowerInt("mul", (nat(k), exp))))
                    )
                    prod = f if prod is None else TowerInt("mul", (prod, f))
                return normalize(prod)
            return TowerInt("pow", (base, exp))
        if base.op == "pow":
            inner_base, inner_exp = base.args
            return normalize(
                TowerInt("pow", (inner_base, TowerInt("mul", (inner_exp, exp))))
            )
        if base.op == "mul":
            c, factors = _mul_parts(base)
            parts = [TowerInt("pow", (f, exp)) for f in factors]
            if c != 1:
                parts.append(TowerInt("pow", (nat(c), exp)))
            prod = parts[0]
            for p in parts[1:]:
                prod = TowerInt("mul", (prod, p))
            return normalize(prod)
        return TowerInt("pow", (base, exp))
    return e


def _merge_nat_factors(e: TowerInt) -> TowerInt:
    c, factors = _mul_parts(e)
    return _rebuild_product(factors, c)


@lru_cache(maxsize=None)
def _log2_bounds(b: int, precision: int) -> tuple[int, int]:
    # Numerators lo, hi over 2^precision with lo <= 2^precision * log2(b) <= hi,
    # for b >= 1.  With b = 2^n * x, x in [1, 2), each round squares x and emits
    # t = [x^2 >= 2], as log2(x) = (t + log2(x^2 / 2^t)) / 2; the last x has its
    # log2 in [0, 1].  x is kept over 2^g from b's leading bits, rounded down for
    # lo and up for hi: squaring and halving are monotone, so each end stays out.
    n, g = b.bit_length() - 1, precision + 16

    def end(up: int) -> int:
        x = b << (g - n) if n < g else ((b - up) >> (n - g)) + up
        bits = 0
        for _ in range(precision):
            y = x * x
            t = y >> (2 * g + 1)
            x = -(-y >> (g + t)) if up else y >> (g + t)
            bits = 2 * bits + t
        return (n << precision) + bits + up

    return end(0), end(1)


def _compare_ints(a: int, b: int) -> int:
    return (a > b) - (a < b)


def _literal(e: TowerInt) -> int | None:
    # evaluate(e), but a nat leaf's int at any size: _log2_bounds brackets it.
    return e.args[0] if e.op == "nat" else evaluate(e)


def _as_power(e: TowerInt) -> tuple[TowerInt, TowerInt]:
    if e.op == "pow":
        return e.args[0], e.args[1]
    return e, nat(1)


# _compare_logs tries 16, 64, 256 and then this many bits of precision.
_PRECISION_LIMIT = 1024


def _compare_logs(ta, tb, depth: int) -> int | None:
    # Sign of the sum of x*log2(b) over the (literal base b >= 2, exponent
    # tree x) pairs of ta less that over tb, or None if no precision settles
    # it.  Literal exponents fold the sums of x*lo and x*hi to integers.
    def total(terms, precision: int, end: int) -> TowerInt:
        parts = [TowerInt("mul", (x, nat(_log2_bounds(b, precision)[end]))) for b, x in terms]
        return normalize(sum(parts[1:], parts[0])) if parts else nat(0)

    precision = 16
    while precision <= _PRECISION_LIMIT:
        if _compare_norm(total(ta, precision, 0), total(tb, precision, 1), depth + 1) > 0:
            return 1
        if _compare_norm(total(tb, precision, 0), total(ta, precision, 1), depth + 1) > 0:
            return -1
        precision *= 4
    return None


def _compare_power_pair(e1: TowerInt, e2: TowerInt, depth: int) -> int:
    b1, x1 = _as_power(e1)
    b2, x2 = _as_power(e2)
    if b1 == b2:
        return _compare_norm(normalize(x1), normalize(x2), depth + 1)
    v1, v2 = _literal(b1), _literal(b2)
    if v1 is None or v2 is None:
        # A sum base b has M < b <= count*M, so M^x < b^x <= (count*M)^x;
        # either end of that bracket may already settle the order.
        for b, v, x, other, sign in ((b1, v1, x1, e2, 1), (b2, v2, x2, e1, -1)):
            if v is None and b.op == "add":
                lo, hi = _bracket(b, depth)
                if _compare_norm(normalize(lo ** x), other, depth + 1) >= 0:
                    return sign
                if _compare_norm(normalize(hi ** x), other, depth + 1) < 0:
                    return -sign
        return _escalate(e1, e2)
    return _compare_logs([(v1, x1)], [(v2, x2)], depth) or _escalate(e1, e2)


def _log_terms(e: TowerInt) -> list[tuple[int, TowerInt]] | None:
    # The (base, exponent) pairs of e as a product of powers, the coefficient
    # a first power, when every base is a literal >= 2 and every exponent a
    # literal; else None.
    c, factors = _mul_parts(e)
    terms = [(c, nat(1))] if c > 1 else []
    for f in factors:
        base, exp = _as_power(f)
        bv = _literal(base)
        if bv is None or bv < 2 or _literal(exp) is None:
            return None
        terms.append((bv, exp))
    return terms


def _compare_shifted(
    q: TowerInt, x1: TowerInt, r1: TowerInt, x2: TowerInt, r2: TowerInt, depth: int
) -> int | None:
    """Sign of q^x1*r1 - q^x2*r2 for q >= 2, x1 > x2 and 1 <= r1 < r2.

    With k the least natural such that q^k*r1 >= r2, also q^(k-1)*r1 < r2,
    so x1 > x2 + k puts the left side ahead, x1 < x2 + k puts it behind,
    and on a tie the sign is that of q^k*r1 - r2.  When q, r1 and r2 are
    literals, k is found on their ints, however large; otherwise None when
    no k up to _SHIFT_LIMIT brackets r2/r1.
    """
    vq, v1, v2 = _literal(q), _literal(r1), _literal(r2)
    if vq is not None and v1 is not None and v2 is not None:
        # q^k*r1 >= r2 exactly when q^k >= t = ceil(r2/r1); a float guess at
        # log_q(t), corrected on ints, gives the least such k.
        t = -(-v2 // v1)
        k = max(1, math.ceil(math.log2(t) / math.log2(vq)))
        while k > 1 and vq ** (k - 1) >= t:
            k -= 1
        while vq ** k < t:
            k += 1
        top = _compare_ints(vq ** k * v1, v2)
        return _compare_norm(normalize(x1), normalize(x2 + k), depth + 1) or top
    for k in range(1, _SHIFT_LIMIT + 1):
        top = _compare_norm(normalize(r1 * q ** k), r2, depth + 1)
        if top >= 0:
            return _compare_norm(normalize(x1), normalize(x2 + k), depth + 1) or top
    return None


def _escalate(e1: TowerInt, e2: TowerInt) -> int:
    v1, v2 = evaluate(e1, _ESCALATION_CAP), evaluate(e2, _ESCALATION_CAP)
    if v1 is None or v2 is None:
        raise RuntimeError("comparison exceeded the materialization cap")
    return _compare_ints(v1, v2)


def _bracket(e: TowerInt, depth: int) -> tuple[TowerInt, TowerInt]:
    # (lo, hi) with lo = e = hi for a non-sum.  A canonical sum of count
    # addends, the largest M, has M < e <= count*M; count*M is a product,
    # never a sum, which keeps the comparison recursion grounded.
    if e.op != "add":
        return e, e
    const, terms = _sum_parts(e)
    count = sum(c for _, c in terms) + (1 if const else 0)
    best = nat(const) if const else None
    for term, _ in terms:
        if best is None or _compare_norm(term, best, depth + 1) > 0:
            best = term
    return best, normalize(count * best)


def _drop_shared(a: TowerInt, b: TowerInt) -> tuple[TowerInt, TowerInt] | None:
    # a and b less the terms and constant they share (x + c against y + c
    # is x against y), or None when they share none.
    (ka, ta), (kb, tb) = _sum_parts(a), _sum_parts(b)
    ca, cb = Counter(dict(ta)), Counter(dict(tb))
    shared, k = ca & cb, min(ka, kb)
    if not shared and not k:
        return None
    return (
        normalize(_rebuild_sum((ca - shared).items(), ka - k)),
        normalize(_rebuild_sum((cb - shared).items(), kb - k)),
    )


def _compare_norm(a: TowerInt, b: TowerInt, depth: int = 0) -> int:
    if a.op == b.op == "nat":
        return _compare_ints(a.args[0], b.args[0])
    if a == b:
        return 0
    # A pair the ladder recurses into may have disjoint brackets, though
    # the pair it came from did not.
    if apart := _apart(a, b):
        return apart
    if depth > 200:
        return _escalate(a, b)
    # u - k vs y is exactly u vs y + k, which clears every subtraction.
    if a.op == "sub":
        u, k = a.args
        return _compare_norm(u, normalize(b + k), depth + 1)
    if b.op == "sub":
        u, k = b.args
        return -_compare_norm(u, normalize(a + k), depth + 1)
    if "add" in (a.op, b.op):
        # A sum lies in (M, count*M], a non-sum in [e, e]; a sum's own M is
        # tested first, since a test that no rung settles raises.
        (lo_a, hi_a), (lo_b, hi_b) = _bracket(a, depth), _bracket(b, depth)
        tests = [(lo_a, hi_b, a, 1), (lo_b, hi_a, b, -1)]
        for lo, hi, x, sign in tests if a.op == "add" else tests[::-1]:
            c = _compare_norm(lo, hi, depth + 1)
            if c > 0 or (c == 0 and x.op == "add"):
                return sign
        rests = _drop_shared(a, b)
        return _escalate(a, b) if rests is None else _compare_norm(*rests, depth + 1)
    ta, tb = _log_terms(a), _log_terms(b)
    if ta is not None and tb is not None and (mono := _compare_logs(ta, tb, depth)):
        return mono
    ca, fa = _mul_parts(a)
    cb, fb = _mul_parts(b)
    if not fa or not fb:
        # One side is a plain integer.  Normal forms are monotone in their
        # literals (no zero or unit bases survive normalization, and every
        # subtrahend is a literal far below the digit cap), so failing to
        # materialize at a cap wider than that integer settles the order.
        only, other, sign = (a, b, -1) if not fa else (b, a, 1)
        oc, _ = _mul_parts(only)
        v = evaluate(other, max(DIGIT_CAP, _digits_of_int(oc) + 2))
        if v is not None:
            return sign * _compare_ints(v, oc)
        return sign
    # Last resort: pair off dominant factors; agreement on both halves
    # decides.  When they disagree over powers of one base, the rests'
    # ratio is bracketed by a small power of that base; anything else
    # escalates to wider materialization.
    da = max(fa, key=_sort_key)
    db = max(fb, key=_sort_key)
    resta = normalize(_rebuild_product([f for f in fa if f is not da], ca))
    restb = normalize(_rebuild_product([f for f in fb if f is not db], cb))
    lead = _compare_power_pair(da, db, depth)
    rest = _compare_norm(resta, restb, depth + 1)
    if lead == 0:
        return rest
    if rest == 0 or rest == lead:
        return lead
    (qa, xa), (qb, xb) = _as_power(da), _as_power(db)
    if qa == qb:
        ahead = (xa, resta, xb, restb) if lead > 0 else (xb, restb, xa, resta)
        shifted = _compare_shifted(qa, *ahead, depth)
        if shifted is not None:
            return lead * shifted
    return _escalate(a, b)


# Level 0 of a magnitude bracket holds exact ints below 2^_EXACT_BITS.
_EXACT_BITS = 64
# Every float end is widened outward by (|x| + 1) * _MARGIN, far above the
# few-ulp error of one math.log2 or of one float + or *.
_MARGIN = 2.0 ** -40
# A level-1 or level-2 end past this moves one level up, clear of overflow.
_FLOAT_CAP = 2.0 ** 1000
_NEG_INF = -math.inf


def _down(x: float) -> float:
    return x - (abs(x) + 1.0) * _MARGIN


def _up(x: float) -> float:
    return x if x == _NEG_INF else x + (abs(x) + 1.0) * _MARGIN


def _log_exact(v: int) -> tuple:
    # Level 1 of a known natural: one math.log2, which takes ints of any
    # size, widened both ways.
    if not v:
        return 1, _NEG_INF, _NEG_INF
    x = math.log2(v)
    return 1, _down(x), _up(x)


def _exact(v: int) -> tuple:
    return (0, v, v) if v >> _EXACT_BITS == 0 else _log_exact(v)


def _lift(m: tuple, level: int) -> tuple[float, float]:
    """The ends of bracket m, raised to the given level (at least m's).

    Each step applies log2 extended by -inf at and below 0, which keeps
    it monotone, so raised ends still bound the raised value.
    """
    at, lo, hi = m
    if at == level:
        return lo, hi
    if at == 0:
        at, lo, hi = _log_exact(lo)
    while at < level:
        lo = _down(math.log2(lo)) if lo > 0 else _NEG_INF
        hi = _up(math.log2(hi)) if hi > 0 else _NEG_INF
        at += 1
    return lo, hi


def _sum_ends(x: tuple[float, float], y: tuple[float, float], level: int) -> tuple[float, float]:
    """Ends at level >= 1 of u + v, for u, v >= 0 bracketed there by x and y.

    max(u, v) <= u + v <= 2 max(u, v).  At level 1 the top is sharper:
    log2(u + v) <= hi_x + log2(1 + 2^(hi_y - lo_x)).  Above it, with h
    bounding log2^level of the larger, log2^level(2M) <= log2(1 + 2^h)
    (by induction on the level, from log2(1 + 2^z) <= z + 1 for z >= 0).
    """
    if x[1] < y[1]:
        x, y = y, x
    h = x[1]
    if level == 1:
        d = y[1] - x[0]
        h += math.log2(1.0 + 2.0 ** d) if d < 0 else 1.0
    else:
        h = h + math.log2(1.0 + 2.0 ** -h) if h > 0 else math.log2(1.0 + 2.0 ** h)
    return max(x[0], y[0]), _up(h)


def _magnitude(e: TowerInt) -> tuple | None:
    """Certified bracket (level, lo, hi) of e's value v, built bottom-up.

    Level 0: lo = v = hi, an exact int below 2^_EXACT_BITS.  Level l >= 1:
    lo <= log2^l(v) <= hi as floats, with log2 applied l times (extended
    by -inf at and below 0), and v >= 2.  None where no bracket is
    certified: a subtraction not shown to stay at or above zero, or a
    subtrahend past level 0.  Builds no int above 2^(2 * _EXACT_BITS).

    The bracket is a function of the interned node alone, so it is kept on
    the node (outside the dataclass fields) the first time it is asked
    for: comparisons that meet one tree again, as the threshold gates of
    the extraction pipelines do, read it instead of walking the tree.
    """
    m = e.__dict__.get("_bracket", e)
    if m is not e:
        return m
    if e.op == "nat":
        m = _exact(e.args[0])
    else:
        ma, mb = _magnitude(e.args[0]), _magnitude(e.args[1])
        m = None if ma is None or mb is None else _RULES[e.op](ma, mb)
    object.__setattr__(e, "_bracket", m)
    return m


def _add_rule(ma: tuple, mb: tuple) -> tuple:
    if ma[0] == mb[0] == 0:
        return _exact(ma[1] + mb[1])
    level = max(ma[0], mb[0])
    return (level, *_sum_ends(_lift(ma, level), _lift(mb, level), level))


def _sub_rule(mx: tuple, mk: tuple) -> tuple | None:
    # x - k for a subtrahend k at level 0.  Once x > 2k, x/2 <= x - k <= x,
    # and log2(x - k) >= log2(x) - 3k/x; one level up and beyond, the lower
    # end loses at most 3 * 2^-lo once lo >= 1 (log2(2^l - 1) >= l - 3 * 2^-l).
    if mk[0] != 0:
        return None
    k = mk[1]
    if mx[0] == 0:
        return (0, mx[1] - k, mx[1] - k) if mx[1] >= k else None
    if not k:
        return mx
    level, lo, hi = mx
    if lo <= _lift((0, 2 * k, 2 * k), level)[1]:
        return None
    if level == 1:
        lo -= min(1.0, 3 * k * 2.0 ** -lo)
    else:
        lo = lo - 3 * 2.0 ** -lo if lo >= 1 else _NEG_INF
    return level, _down(lo), hi


def _mul_rule(ma: tuple, mb: tuple) -> tuple:
    for m, other in ((ma, mb), (mb, ma)):
        if m[0] == 0 and m[1] <= 1:
            return m if m[1] == 0 else other
    if ma[0] == mb[0] == 0:
        return _exact(ma[1] * mb[1])
    level = max(ma[0], mb[0])
    if level == 1:
        (lo_a, hi_a), (lo_b, hi_b) = _lift(ma, 1), _lift(mb, 1)
        hi = _up(hi_a + hi_b)
        if hi < _FLOAT_CAP:
            return 1, _down(lo_a + lo_b), hi
        level = 2
    # log2^l(ab) = log2^(l-1)(log2 a + log2 b), a sum one level down.
    return (level, *_sum_ends(_lift(ma, level), _lift(mb, level), level - 1))


def _pow_rule(ma: tuple, mb: tuple) -> tuple:
    if mb[0] == 0 and mb[1] <= 1:
        return (0, 1, 1) if mb[1] == 0 else ma
    if ma[0] == 0 and ma[1] <= 1:
        return ma
    # Now a >= 2 and b >= 2: log2(a^b) = b log2(a), and one level up
    # log2^2(a^b) = log2(b) + log2^2(a), a sum of two naturals' logs.
    if ma[0] == mb[0] == 0 and mb[1] * (ma[1].bit_length() - 1) <= _EXACT_BITS:
        return _exact(ma[1] ** mb[1])
    level = max(mb[0] + 1, ma[0])
    if level == 1:
        b = mb[1]
        lo_a, hi_a = _lift(ma, 1)
        hi = _up(b * hi_a)
        if hi < _FLOAT_CAP:
            return 1, _down(b * lo_a), hi
        level = 2
    if level == 2:
        (lo_b, hi_b), (lo_a, hi_a) = _lift(mb, 1), _lift(ma, 2)
        hi = _up(hi_b + hi_a)
        if hi < _FLOAT_CAP:
            return 2, _down(lo_b + lo_a), hi
        level = 3
    return (level, *_sum_ends(_lift(mb, level - 1), _lift(ma, level), level - 2))


_RULES = {"add": _add_rule, "sub": _sub_rule, "mul": _mul_rule, "pow": _pow_rule}


def tower_compare(a: TowerInt, b: TowerInt) -> int:
    """Exact ordering of the denoted values: -1, 0, or 1.

    The first rung builds no normal form: when the certified magnitude
    brackets of a and b (see _magnitude) are disjoint, their order is the
    answer, and a tree compared with itself is equal.  Ties and near-ties,
    whose brackets overlap, and trees with no bracket go on to the ladder
    of normal forms, which raises ValueError for a negative subtraction.
    Every comparison the ladder recurses into tries the brackets first.
    """
    if a is b and _magnitude(a) is not None:
        return 0
    return _apart(a, b) or _compare_norm(normalize(a), normalize(b))


def _apart(a: TowerInt, b: TowerInt) -> int:
    """1 or -1 when the magnitude brackets of a and b are disjoint, else 0."""
    ma, mb = _magnitude(a), _magnitude(b)
    if ma is None or mb is None:
        return 0
    level = max(ma[0], mb[0])
    (lo_a, hi_a), (lo_b, hi_b) = _lift(ma, level), _lift(mb, level)
    return 1 if lo_a > hi_b else -1 if lo_b > hi_a else 0


def sigma(s: int, r: int) -> TowerInt:
    """The threshold s^((4s)^(r-1))."""
    if s < 1 or r < 1:
        raise ValueError("sigma needs s >= 1 and r >= 1")
    return normalize(nat(s) ** (nat(4 * s) ** nat(r - 1)))


def tree_constants(a: int, n: int) -> tuple[TowerInt, TowerInt, TowerInt]:
    """(theta_n, mu_n, lambda_n) for branching a, with mu_1 = 1, lambda_1 = 0."""
    if a < 1 or n < 1:
        raise ValueError("tree_constants needs a >= 1 and n >= 1")
    mu, lam = nat(1), nat(0)
    theta = _theta(a, 1)
    for i in range(2, n + 1):
        theta = _theta(a, i)
        mu = normalize(((3 * nat(a) ** (2 * theta) + 2) * mu) ** 3)
        lam = normalize((3 * lam + 6 * theta).minus(4))
    return theta, mu, lam


def _theta(a: int, n: int) -> TowerInt:
    return normalize(nat(3) ** (nat(12) ** nat(n * a ** (n - 1) - 1)))


@dataclass(frozen=True)
class SigmaCheck:
    label: str
    holds: bool


@dataclass(frozen=True)
class SigmaReport:
    alpha: int
    t: int
    s: int
    r_max: int
    checks: tuple[SigmaCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok


def verify_sigma_inequalities(alpha: int, t: int, s: int, r_max: int) -> SigmaReport:
    """Certify the threshold block for sigma_r = s^((4s)^(r-1)) by its lemma.

    With side(x) = alpha^x t^(x-1), the block is
      base:  side(sigma_2) > side(s) + side(mid), mid = ((2s)^(2s-1) - 1) s^2;
      step:  side(sigma_r) > side(p) + side(p^3), p = sigma_(r-1), r >= 2.
    In ``extraction``'s descent on sets of size r, ``x_minus`` is side(p)
    and ``xi_0`` is side(p^3); at r = 2, side(mid) bounds ``zeta_0`` =
    alpha^mid t^(s^2-1) from above.

    Lemma: both hold for every alpha >= 2, t >= 1, s >= 2 and r >= 2.
    Proof: side(x + 1) = alpha t side(x) >= 2 side(x), so side is strictly
    increasing and side(y) >= 2 side(x) whenever y > x.  Step: p >= s >= 2,
    so sigma_r = p^(4s) >= p^8 >= p^3 + 1, and side(sigma_r) >= 2 side(p^3)
    > side(p^3) + side(p) as p^3 > p.  Base: s^(4s) >= 2^(2s-1) s^(2s+1)
    = (2s)^(2s-1) s^2 >= mid + 1 because s >= 2, and mid > s; the rest runs
    as in the step.  So every check holds once the ranges are checked, and
    no tower is built.  ``r_max`` only sizes the report: the base check,
    then one step check for each 2 <= r <= r_max.
    """
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (alpha, t, s, r_max)):
        raise ValueError("alpha, t, s and r_max must be plain ints, not bools")
    if alpha < 2 or s < 2:
        raise ValueError("the inequality block assumes alpha >= 2 and s >= 2")
    if t < 1 or r_max < 1:
        raise ValueError("t and r_max must be positive")
    labels = ["base: sigma_2 beats the s-level split"]
    labels += (f"step r={r}: sigma_{r} beats the sigma_{r - 1} split" for r in range(2, r_max + 1))
    return SigmaReport(alpha, t, s, r_max, tuple(SigmaCheck(label, True) for label in labels))


def to_tower_str(e: TowerInt) -> str:
    """Compact nested-operator rendering of the expression."""
    e = normalize(e)

    def render(x: TowerInt, parent: str) -> str:
        if x.op == "nat":
            v = x.args[0]
            s = str(v) if _digits_of_int(v) <= 40 else f"~10^{_digits_of_int(v) - 1}"
            return s
        sym = {"add": " + ", "sub": " - ", "mul": "*", "pow": "^"}[x.op]
        left = render(x.args[0], x.op)
        right = render(x.args[1], x.op)
        body = f"{left}{sym}{right}"
        if parent in ("pow", "mul") and x.op in ("add", "sub"):
            return f"({body})"
        if parent == "pow" and x.op in ("mul", "pow"):
            return f"({body})"
        return body

    return render(e, "")


def digit_estimate(e: TowerInt) -> str:
    """Human-readable digit count: exact within the cap, else a bound sketch."""
    d = e.digits()
    if d is not None:
        return str(d)
    n = normalize(e)
    if n.op == "pow":
        base, exp = n.args
        bv = evaluate(base)
        ev = evaluate(exp)
        if bv is not None and ev is not None:
            approx = ev * (_digits_of_int(bv) - 1) if bv > 1 else 0
            return f"~10^{_digits_of_int(max(approx, 1)) - 1} digits (beyond cap)"
    return "beyond the materialization cap"
