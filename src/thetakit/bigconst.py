"""Exact arithmetic and ordering for tower-sized integer constants.

Values are expression trees over naturals with +, *, ^ and a guarded
small-literal subtraction.  Trees normalize to a canonical form (constants
folded up to a digit cap, natural bases split into prime powers, powers
distributed over products, same-base powers merged, sums collected into
linear combinations), so equal structure decides equality and the
comparison ladder below resolves everything else:

1. identical canonical trees are equal;
2. values within the materialization cap compare as big integers;
3. otherwise the order is decided by descent:
   - a sum is bracketed by its largest term;
   - products of powers with concrete exponents compare through integer
     brackets of their base-2 logarithms: numerators over a common
     2^precision, refined by repeated squaring;
   - other products pair off their dominant powers and compare the pair
     and the rests.  When the two disagree over powers of one base,
     q^x1*r1 against q^x2*r2 (say c1*q^x1 against c2*q^x2 for literal
     coefficients), the least small k with q^k*r1 >= r2 brackets the
     rests' ratio, and the order is that of x1 against x2 + k, a tie
     falling to q^k*r1 against r2;
   - power pairs of different bases compare through the same logarithm
     brackets, multiplied into the exponent trees so the recursion runs
     one level down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

DIGIT_CAP = 10 ** 5
_ESCALATION_CAP = 10 ** 7
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
    unbounded caches below; a report of cache sizes should count it.
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
        if not terms:
            return nat(const)
        if len(terms) == 1 and const == 0 and terms[0][1] == 1:
            return terms[0][0]
        return _rebuild_sum(terms, const)
    if e.op == "mul":
        parts = [normalize(x) for x in e.args]
        # Splitting a base into primes can surface a base already present,
        # so flatten, merge, and renormalize until the factor list settles.
        for _ in range(64):
            coeff = 1
            groups: dict[TowerInt, list[TowerInt]] = {}
            for part in parts:
                c, factors = _mul_parts(part)
                coeff *= c
                for f in factors:
                    base, exp = (f.args if f.op == "pow" else (f, nat(1)))
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
            stable = all(f.op not in ("mul", "nat") for f in merged) and len(
                {_as_power(f)[0] for f in merged}
            ) == len(merged)
            if stable:
                return _rebuild_product(merged, coeff)
            parts = [nat(coeff)] + merged
        raise RuntimeError("product normalization did not stabilize")
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
    # Numerators lo, hi over 2^precision with lo <= 2^precision * log2(b) <= hi;
    # large literals get the bit-length bracket instead, since raising them
    # to 2^precision is not affordable.
    if b >= _FACTOR_BOUND:
        return (b.bit_length() - 1) << precision, b.bit_length() << precision
    lo = (b ** (1 << precision)).bit_length() - 1
    return lo, lo + 1


def _compare_ints(a: int, b: int) -> int:
    return (a > b) - (a < b)


def _as_power(e: TowerInt) -> tuple[TowerInt, TowerInt]:
    if e.op == "pow":
        return e.args[0], e.args[1]
    return e, nat(1)


_PRECISIONS = (4, 8, 12, 16, 18)


def _compare_power_pair(e1: TowerInt, e2: TowerInt, depth: int) -> int:
    b1, x1 = _as_power(e1)
    b2, x2 = _as_power(e2)
    if b1 == b2:
        return _compare_norm(normalize(x1), normalize(x2), depth + 1)
    v1, v2 = evaluate(b1), evaluate(b2)
    if v1 is None or v2 is None:
        # A sum base b has M < b <= count*M, so M^x < b^x <= (count*M)^x;
        # either end of that bracket may already settle the order.
        for b, v, x, other, sign in ((b1, v1, x1, e2, 1), (b2, v2, x2, e1, -1)):
            if v is None and b.op == "add":
                m, count = _sum_bracket(b, depth)
                if _compare_norm(normalize(m ** x), other, depth + 1) >= 0:
                    return sign
                if _compare_norm(normalize((count * m) ** x), other, depth + 1) < 0:
                    return -sign
        return _escalate(e1, e2)
    for precision in _PRECISIONS:
        lo1, hi1 = _log2_bounds(v1, precision)
        lo2, hi2 = _log2_bounds(v2, precision)
        # x1*log2(b1) vs x2*log2(b2) over the common denominator, as tower
        # products so the recursion runs one exponent level down.
        if (
            _compare_norm(
                normalize(TowerInt("mul", (x1, nat(lo1)))),
                normalize(TowerInt("mul", (x2, nat(hi2)))),
                depth + 1,
            )
            > 0
        ):
            return 1
        if (
            _compare_norm(
                normalize(TowerInt("mul", (x2, nat(lo2)))),
                normalize(TowerInt("mul", (x1, nat(hi1)))),
                depth + 1,
            )
            > 0
        ):
            return -1
    return _escalate(e1, e2)


def _monomial_form(e: TowerInt) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    # (coefficient, ((base, exponent), ...)) when e is a product of powers
    # with concrete bases >= 2 and concrete exponents.
    c, factors = _mul_parts(e)
    vec = []
    for f in factors:
        base, exp = _as_power(f)
        bv, ev = evaluate(base), evaluate(exp)
        if bv is None or ev is None or bv < 2:
            return None
        vec.append((bv, ev))
    return c, tuple(sorted(vec))


def _log2_total(form, precision: int) -> tuple[int, int]:
    # Bracket of log2(coeff * prod base^exp), as numerators over 2^precision.
    c, vec = form
    terms = vec + ((c, 1),) if c > 1 else vec
    lo = hi = 0
    for base, exp in terms:
        p, p1 = _log2_bounds(base, precision)
        lo += exp * p
        hi += exp * p1
    return lo, hi


def _compare_monomials(a: TowerInt, b: TowerInt) -> int | None:
    fa, fb = _monomial_form(a), _monomial_form(b)
    if fa is None or fb is None:
        return None
    if fa == fb:
        return 0
    for precision in _PRECISIONS:
        lo_a, hi_a = _log2_total(fa, precision)
        lo_b, hi_b = _log2_total(fb, precision)
        if lo_a > hi_b:
            return 1
        if lo_b > hi_a:
            return -1
    return None


def _compare_shifted(
    q: TowerInt, x1: TowerInt, r1: TowerInt, x2: TowerInt, r2: TowerInt, depth: int
) -> int | None:
    """Sign of q^x1*r1 - q^x2*r2 for q >= 2, x1 > x2 and 1 <= r1 < r2.

    With k the least natural such that q^k*r1 >= r2, also q^(k-1)*r1 < r2,
    so x1 > x2 + k puts the left side ahead, x1 < x2 + k puts it behind,
    and on a tie the sign is that of q^k*r1 - r2.  None when no k up to
    _SHIFT_LIMIT brackets r2/r1.
    """
    for k in range(1, _SHIFT_LIMIT + 1):
        top = _compare_norm(normalize(r1 * q ** k), r2, depth + 1)
        if top >= 0:
            return _compare_norm(normalize(x1), normalize(x2 + k), depth + 1) or top
    return None


def _escalate(e1: TowerInt, e2: TowerInt) -> int:
    cap = DIGIT_CAP
    while cap <= _ESCALATION_CAP:
        cap *= 10
        v1, v2 = evaluate(e1, cap), evaluate(e2, cap)
        if v1 is not None and v2 is not None:
            return _compare_ints(v1, v2)
    raise RuntimeError("comparison exceeded every materialization escalation")


def _sum_bracket(e: TowerInt, depth: int) -> tuple[TowerInt, int]:
    # (M, count) for a canonical sum: every addend is at most M and there
    # are count of them, so M < e <= count * M and count * M is a product,
    # never a sum, which keeps the comparison recursion grounded.
    const, terms = _sum_parts(e)
    count = sum(c for _, c in terms) + (1 if const else 0)
    best = nat(const) if const else None
    for term, _ in terms:
        if best is None or _compare_norm(term, best, depth + 1) > 0:
            best = term
    return best, count


def _compare_norm(a: TowerInt, b: TowerInt, depth: int = 0) -> int:
    if a == b:
        return 0
    va, vb = evaluate(a), evaluate(b)
    if va is not None and vb is not None:
        return _compare_ints(va, vb)
    if depth > 200:
        return _escalate(a, b)
    # u - k vs y is exactly u vs y + k, which clears every subtraction.
    if a.op == "sub":
        u, k = a.args
        return _compare_norm(u, normalize(b + k), depth + 1)
    if b.op == "sub":
        u, k = b.args
        return -_compare_norm(u, normalize(a + k), depth + 1)
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        if x.op == "add" and y.op != "add":
            m, count = _sum_bracket(x, depth)
            if _compare_norm(y, m, depth + 1) <= 0:
                return sign
            upper = normalize(TowerInt("mul", (nat(count), m)))
            if _compare_norm(y, upper, depth + 1) > 0:
                return -sign
            return -sign * _escalate(y, x)
    if a.op == "add" and b.op == "add":
        ma, ca = _sum_bracket(a, depth)
        mb, cb = _sum_bracket(b, depth)
        if _compare_norm(ma, normalize(TowerInt("mul", (nat(cb), mb))), depth + 1) >= 0:
            return 1
        if _compare_norm(mb, normalize(TowerInt("mul", (nat(ca), ma))), depth + 1) >= 0:
            return -1
        return _escalate(a, b)
    mono = _compare_monomials(a, b)
    if mono is not None:
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


def tower_compare(a: TowerInt, b: TowerInt) -> int:
    """Exact ordering of the denoted values: -1, 0, or 1."""
    return _compare_norm(normalize(a), normalize(b))


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
    """Check both displayed threshold inequalities up to r_max.

    The base inequality compares alpha^sigma_2 t^(sigma_2 - 1) against
    alpha^s t^(s-1) + alpha^((2s)^(2s-1) - 1) s^2-weighted term; the step
    inequality does the analogous comparison from sigma_{r-1} to sigma_r
    for every 2 <= r <= r_max.
    """
    if alpha < 2 or s < 2:
        raise ValueError("the inequality block assumes alpha >= 2 and s >= 2")
    if t < 1 or r_max < 1:
        raise ValueError("t and r_max must be positive")
    al, tt = nat(alpha), nat(t)

    def side(exp: TowerInt) -> TowerInt:
        return al ** exp * tt ** exp.minus(1)

    checks = []
    s2 = sigma(s, 2)
    mid = nat(((2 * s) ** (2 * s - 1) - 1) * s * s)
    lhs = side(s2)
    rhs = side(nat(s)) + side(mid)
    checks.append(SigmaCheck("base: sigma_2 beats the s-level split", tower_compare(lhs, rhs) > 0))
    for r in range(2, r_max + 1):
        prev = sigma(s, r - 1)
        lhs = side(sigma(s, r))
        rhs = side(prev) + side(normalize(prev ** 3))
        checks.append(
            SigmaCheck(f"step r={r}: sigma_{r} beats the sigma_{r - 1} split", tower_compare(lhs, rhs) > 0)
        )
    return SigmaReport(alpha, t, s, r_max, tuple(checks))


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
