"""Exact arithmetic in cyclotomic fields and root-of-unity parameter contexts.

All quantities of the theory (the framing parameter ``a``, the quantum
parameter ``s``, quantum integers, link evaluations) live in Q(zeta_M) for a
single root order M.  An element is a vector of Python integers over one
shared positive denominator, in the power basis 1, zeta, ..., zeta^(d-1) with
d = deg(Phi_M), reduced modulo the monic integer cyclotomic polynomial.  The
form is canonical (denominator positive and coprime to the numerators), so
equal elements have equal integer tuples.  Fractions appear only at the
boundary (:attr:`CycScalar.coeffs`, JSON) and floating point only in
:meth:`CycScalar.embed`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Iterable

import mpmath


# fewest significant digits of a complex embedding
MIN_PRECISION = 15


class ScalarError(ValueError):
    """Raised on invalid scalar arithmetic (division by zero, ring mismatch)."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials with monic-enough divisor."""
    num = list(num)
    quot = [0] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        lead = num[-1] // den[-1]
        quot[shift] = lead
        for i, c in enumerate(den):
            num[shift + i] -= lead * c
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by the cyclotomic polynomials of the proper
    divisors of m; all divisions are exact over the integers.
    """
    if m < 1:
        raise ScalarError("root order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError("cyclotomic division must be exact")
    return tuple(poly)


def _trim(poly: list[int]) -> list[int]:
    while poly and not poly[-1]:
        poly.pop()
    return poly


# ---------------------------------------------------------------------------
# the cyclotomic ring context
# ---------------------------------------------------------------------------

class RingContext:
    """Q(zeta_M) together with the rank/level parameters expressed as powers of zeta.

    The context fixes the complex embedding zeta -> exp(2*pi*i/M); every
    derived sign convention (positive square roots of bracket values) refers
    to that embedding.
    """

    def __init__(self, M: int, N: int, K: int, a_exp: int, s_exp: int,
                 theory: str = "su", alpha: int | None = None,
                 beta: int | None = None):
        self.M = M
        self.N = N
        self.K = K
        self.a_exp = a_exp % M
        self.s_exp = s_exp % M
        self.v_exp = (-N * s_exp) % M
        self.theory = theory
        self.alpha = alpha
        self.beta = beta
        self.d = math.gcd(N, K)
        self.n_prime = N // self.d
        self.k_prime = K // self.d
        self.cyclotomic_poly = cyclotomic_polynomial(M)
        deg = self.degree = len(self.cyclotomic_poly) - 1
        # Phi_M is monic: x^deg = sum of p * x^i over these (i, p) terms
        self._phi_tail = tuple((i, -c) for i, c in
                               enumerate(self.cyclotomic_poly[:-1]) if c)
        # zeta^k in the power basis, as sparse (index, coefficient) terms,
        # for k = 0 .. M-1; conjugation and zeta() read this table
        terms = []
        vec = [1] + [0] * deg
        for _ in range(M):
            top = vec[deg]
            if top:
                for i, p in self._phi_tail:
                    vec[i] += top * p
            terms.append(tuple((i, c) for i, c in enumerate(vec[:deg]) if c))
            vec = [0] + vec[:deg]
        self._zeta_terms = tuple(terms)
        self._conj_terms = tuple(terms[-k % M] for k in range(deg))
        self._zeta_pows: dict[int, CycScalar] = {}
        self._zero = CycScalar(self, (0,) * deg)
        self._one = self.from_rational(1)

    # -- construction -----------------------------------------------------

    def zero(self) -> "CycScalar":
        return self._zero

    def one(self) -> "CycScalar":
        return self._one

    def from_rational(self, q) -> "CycScalar":
        q = Fraction(q)
        return CycScalar(self, (q.numerator,) + (0,) * (self.degree - 1),
                         q.denominator)

    def from_coeffs(self, coeffs: Iterable) -> "CycScalar":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ScalarError("coefficient vector longer than field degree")
        cs += [Fraction(0)] * (self.degree - len(cs))
        den = math.lcm(*(c.denominator for c in cs))
        return _canonical(self, tuple(c.numerator * (den // c.denominator)
                                      for c in cs), den)

    def zeta(self, k: int = 1) -> "CycScalar":
        """zeta_M^k as a canonical-form element."""
        k %= self.M
        cached = self._zeta_pows.get(k)
        if cached is None:
            nums = [0] * self.degree
            for i, c in self._zeta_terms[k]:
                nums[i] = c
            cached = self._zeta_pows[k] = CycScalar(self, tuple(nums))
        return cached

    # -- named parameters ---------------------------------------------------

    def a(self, power: int = 1) -> "CycScalar":
        return self.zeta(self.a_exp * power)

    def s(self, power: int = 1) -> "CycScalar":
        return self.zeta(self.s_exp * power)

    def v(self, power: int = 1) -> "CycScalar":
        return self.zeta(self.v_exp * power)

    # -- quantum integers ---------------------------------------------------

    def quantum_integer(self, n: int) -> "CycScalar":
        """[n] = (s^n - s^-n)/(s - s^-1), computed as s^(n-1) + s^(n-3) + ... + s^(1-n)."""
        if n < 0:
            return -self.quantum_integer(-n)
        total = self.zero()
        for k in range(n):
            total = total + self.s(n - 1 - 2 * k)
        return total

    def quantum_factorial(self, n: int) -> "CycScalar":
        if n < 0:
            raise ScalarError("factorial of a negative integer")
        total = self.one()
        for j in range(1, n + 1):
            total = total * self.quantum_integer(j)
        return total

    def quantum_integer_invertible(self, n: int) -> bool:
        return not self.quantum_integer(n).is_zero()

    def multiplicative_order(self, x: "CycScalar") -> int:
        """Order of a root of unity given as a ring element."""
        acc = x
        for k in range(1, 4 * self.M + 1):
            if acc == self.one():
                return k
            acc = acc * x
        raise ScalarError("element is not a root of unity of small order")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RingContext(M={self.M}, N={self.N}, K={self.K}, "
                f"theory={self.theory!r})")


def _canonical(ring: RingContext, nums: tuple, den: int) -> "CycScalar":
    """nums/den with the common factor removed and the denominator positive."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = tuple(x // g for x in nums)
        den //= g
    return CycScalar(ring, nums, den)


class CycScalar:
    """An element nums/den of Q(zeta_M) in canonical form.

    ``nums`` is a tuple of deg(Phi_M) integers (power-basis coefficients
    times ``den``), ``den`` a positive integer with gcd(den, *nums) == 1;
    zero is all-zero over 1.  The constructor trusts its arguments to be
    canonical: build values from outside through the ring's ``from_*``
    methods.
    """

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring: RingContext, nums: tuple, den: int = 1):
        if len(nums) != ring.degree:
            raise ScalarError("coefficient vector has wrong length")
        self.ring = ring
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as reduced Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- ring operations ----------------------------------------------------

    def _operand(self, other):
        """other as a scalar of this field, or NotImplemented."""
        if isinstance(other, CycScalar):
            if self.ring is not other.ring and self.ring.M != other.ring.M:
                raise ScalarError(
                    "cannot combine scalars from different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_rational(other)
        return NotImplemented

    def _combine(self, other, op):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            nums = tuple(map(op, self.nums, other.nums))
            if d1 == 1:
                return CycScalar(self.ring, nums)
            return _canonical(self.ring, nums, d1)
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        nums = tuple(op(x * m1, y * m2) for x, y in zip(self.nums, other.nums))
        return _canonical(self.ring, nums, d1 * m1)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return CycScalar(self.ring, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        deg = ring.degree
        terms = [(j, y) for j, y in enumerate(other.nums) if y]
        # schoolbook product, then reduce the top half with x^deg = tail
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in terms:
                    prod[i + j] += x * y
        tail = ring._phi_tail
        for k in range(2 * deg - 2, deg - 1, -1):
            c = prod[k]
            if c:
                base = k - deg
                for i, p in tail:
                    prod[base + i] += c * p
        den = self.den * other.den
        if den == 1:
            return CycScalar(ring, tuple(prod[:deg]))
        return _canonical(ring, tuple(prod[:deg]), den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._operand(other) - self

    def __pow__(self, n: int) -> "CycScalar":
        if n < 0:
            return self.invert() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def invert(self) -> "CycScalar":
        """Multiplicative inverse by a fraction-free extended Euclidean
        algorithm on integer polynomials.

        Each remainder r is kept with a cofactor s such that r = s * nums
        modulo Phi_M; both are scaled by integers only and divided by their
        common content after every reduction.  Phi_M is irreducible, so the
        last remainder is a nonzero integer c and 1/nums = s/c.
        """
        if self.is_zero():
            raise ScalarError("division by zero in the cyclotomic field")
        r0, s0 = list(self.ring.cyclotomic_poly), []
        r1, s1 = _trim(list(self.nums)), [1]
        while len(r1) > 1:
            lead = r1[-1]
            while len(r0) >= len(r1):
                a, b = r0[-1], lead
                g = math.gcd(a, b)
                a, b = a // g, b // g
                shift = len(r0) - len(r1)
                # r0 <- b*r0 - a*x^shift*r1, and the same on the cofactors
                r0 = [b * c for c in r0]
                for i, c in enumerate(r1):
                    r0[shift + i] -= a * c
                s0 = [b * c for c in s0] + [0] * (shift + len(s1) - len(s0))
                for i, c in enumerate(s1):
                    s0[shift + i] -= a * c
                _trim(r0)
            if not r0:
                raise ScalarError(
                    "element is a zero divisor; input was not canonical")
            g = math.gcd(*r0, *s0)
            if g != 1:
                r0 = [c // g for c in r0]
                s0 = [c // g for c in s0]
            r0, s0, r1, s1 = r1, s1, r0, s0
        # self = nums/den, so 1/self = den * s1 / r1[0]
        deg = self.ring.degree
        nums = [self.den * c for c in _trim(s1)]
        return _canonical(self.ring, tuple(nums + [0] * (deg - len(nums))),
                          r1[0])

    def __truediv__(self, other):
        other = self._operand(other)
        return self * other.invert()

    def conjugate(self) -> "CycScalar":
        """Complex conjugation, zeta -> zeta^(M-1), as a precomputed integer
        map on the power basis (it preserves the content, so the result stays
        canonical)."""
        out = [0] * self.ring.degree
        for x, terms in zip(self.nums, self.ring._conj_terms):
            if x:
                for i, c in terms:
                    out[i] += x * c
        return CycScalar(self.ring, tuple(out), self.den)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError("scalar is not rational")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.from_rational(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        return (self.ring.M == other.ring.M and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.ring.M, self.nums, self.den))

    # -- embedding ------------------------------------------------------------

    def embed(self, precision: int = 15):
        """Numerical value at zeta = exp(2*pi*i/M), as an mpmath complex number."""
        if precision < MIN_PRECISION:
            raise ScalarError(
                f"precision must be at least {MIN_PRECISION} digits")
        with mpmath.workdps(precision + 15):
            root = mpmath.exp(2j * mpmath.pi / self.ring.M)
            acc = mpmath.mpc(0)
            power = mpmath.mpc(1)
            for c in self.coeffs:
                if c:
                    acc += mpmath.mpf(c.numerator) / c.denominator * power
                power *= root
            return +acc

    def __repr__(self) -> str:  # pragma: no cover
        terms = [f"{c}*z^{k}" if k else f"{c}"
                 for k, c in enumerate(self.coeffs) if c]
        return "CycScalar(" + (" + ".join(terms) or "0") + f"; M={self.ring.M})"


# ---------------------------------------------------------------------------
# the formal eta extension
# ---------------------------------------------------------------------------

class ExtScalar:
    """A cyclotomic scalar times a formal power of the normalization constant eta.

    eta^2 is the inverse of the theory's global bracket value, so the power is
    kept in {0, 1} after reduction.  Scalars tagged with different theories
    may only be compared through the complex embedding.
    """

    __slots__ = ("base", "eta_pow", "theory", "omega")

    def __init__(self, base: CycScalar, eta_pow: int, theory: str, omega: CycScalar):
        # normalize the eta power into {0, 1}
        half, rem = divmod(eta_pow, 2)
        if half:
            # eta^2 = omega^(-1)
            base = base * (omega.invert() ** half if half > 0 else omega ** (-half))
        self.base = base
        self.eta_pow = rem
        self.theory = theory
        self.omega = omega

    def _check(self, other: "ExtScalar") -> None:
        if self.theory != other.theory:
            raise ScalarError(
                "cannot combine eta-extended scalars from different theories exactly; "
                "use the complex embedding")

    def __mul__(self, other):
        if isinstance(other, ExtScalar):
            self._check(other)
            return ExtScalar(self.base * other.base, self.eta_pow + other.eta_pow,
                             self.theory, self.omega)
        return ExtScalar(self.base * other, self.eta_pow, self.theory, self.omega)

    __rmul__ = __mul__

    def __add__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        if self.eta_pow != other.eta_pow:
            if self.base.is_zero():
                return other
            if other.base.is_zero():
                return self
            raise ScalarError("cannot add scalars with different eta parities exactly")
        return ExtScalar(self.base + other.base, self.eta_pow, self.theory, self.omega)

    def __eq__(self, other):
        if not isinstance(other, ExtScalar):
            return NotImplemented
        if self.theory != other.theory:
            raise ScalarError("cross-theory comparison requires the complex embedding")
        if self.base.is_zero() and other.base.is_zero():
            return True
        return self.eta_pow == other.eta_pow and self.base == other.base

    def __hash__(self):
        # a zero base equals zero at either eta parity, so the parity must
        # not reach the hash then
        parity = self.eta_pow if not self.base.is_zero() else 0
        return hash((self.base, parity, self.theory))

    def embed(self, precision: int = 15):
        val = self.base.embed(precision)
        if self.eta_pow:
            with mpmath.workdps(precision + 15):
                om = self.omega.embed(precision)
                eta = 1 / mpmath.sqrt(om.real)
                val = val * eta
        return val

    def __repr__(self) -> str:  # pragma: no cover
        return f"ExtScalar({self.base!r}, eta^{self.eta_pow}, {self.theory})"


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------

def su_parameters(N: int, K: int) -> RingContext:
    """Root-of-unity context with a = zeta_M, M = 2N(N+K), s = a^(-N), v = s^(-N)."""
    if N < 2 or K < 1:
        raise ScalarError("rank must be >= 2 and level >= 1")
    M = 2 * N * (N + K)
    return RingContext(M, N, K, a_exp=1, s_exp=(-N) % M, theory="su")


def reduced_framing_split(N: int, K: int) -> tuple[int, int, bool]:
    """Split d = gcd(N, K) as alpha*beta.

    alpha collects the prime powers of d whose primes do not divide 2K'
    (just K' in the variant used when N + K and N' = N/d are both even);
    returns (alpha, beta, variant_flag).
    """
    d = math.gcd(N, K)
    n_prime, k_prime = N // d, K // d
    variant = (N + K) % 2 == 0 and n_prime % 2 == 0
    excluded = k_prime if variant else 2 * k_prime
    alpha = 1
    rest = d
    p = 2
    while rest > 1:
        if rest % p == 0:
            pk = 1
            while rest % p == 0:
                rest //= p
                pk *= p
            if excluded % p != 0:
                alpha *= pk
        p += 1
    return alpha, d // alpha, variant


def solve_framing_reduced(N: int, K: int, max_multiplier: int = 64) -> tuple[int, int, RingContext]:
    """Reduced-theory context: a root order, s of the prescribed order, and a
    framing parameter a with (a^N s)^alpha = +-1 and (a^K s^-1)^beta = epsilon or 1.

    s is pinned relative to the full theory's s = exp(-i*pi/(N+K)) so that
    the factorization of the full invariant through the abelian one holds in
    the complex embedding: for d even it equals s, for d odd it is -s when
    N + K is odd and -s^-1 (the conjugate of -s) when N + K is even.  The
    root order is enlarged until the two exponent congruences admit a common
    solution; the choice is minimal for the search order but not canonical.
    """
    if N < 2 or K < 1:
        raise ScalarError("rank must be >= 2 and level >= 1")
    d = math.gcd(N, K)
    alpha, beta, variant = reduced_framing_split(N, K)
    eps = (-1) ** (N + K + 1)
    base = 2 * (N + K)
    for mult in range(1, max_multiplier + 1):
        M = base * mult
        if d % 2 == 0:
            s_exp = (-M // base) % M
        elif (N + K) % 2 == 1:
            s_exp = (M // 2 - M // base) % M
        else:
            s_exp = (M // 2 + M // base) % M
        if variant:
            t1, t2 = M // 2, 0
        else:
            t1 = 0
            t2 = M // 2 if eps == -1 else 0
        sols = [e for e in range(M)
                if (alpha * (N * e + s_exp) - t1) % M == 0
                and (beta * (K * e - s_exp) - t2) % M == 0]
        if sols:
            ctx = RingContext(M, N, K, a_exp=sols[0], s_exp=s_exp,
                              theory="reduced", alpha=alpha, beta=beta)
            _verify_reduced_context(ctx, alpha, beta, eps, variant)
            return alpha, beta, ctx
    raise ScalarError(
        f"no framing parameter found for (N,K)=({N},{K}) up to multiplier {max_multiplier}; "
        "this indicates a bug in the congruence search")


def _verify_reduced_context(ctx: RingContext, alpha: int, beta: int,
                            eps: int, variant: bool) -> None:
    one = ctx.one()
    minus_one = ctx.from_rational(-1)
    expected_order = 2 * (ctx.N + ctx.K) if (ctx.N + ctx.K) % 2 == 0 else ctx.N + ctx.K
    if ctx.multiplicative_order(ctx.s()) != expected_order:
        raise ScalarError("reduced context: s has the wrong multiplicative order")
    lhs1 = (ctx.a(ctx.N) * ctx.s()) ** alpha
    lhs2 = (ctx.a(ctx.K) * ctx.s(-1)) ** beta
    if variant:
        ok = lhs1 == minus_one and lhs2 == one
    else:
        ok = lhs1 == one and lhs2 == (minus_one if eps == -1 else one)
    if not ok:
        raise ScalarError("reduced context: framing congruences failed verification")


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def scalar_to_json(x: CycScalar | ExtScalar, precision: int = 15) -> dict:
    if isinstance(x, ExtScalar):
        doc = scalar_to_json(x.base, precision)
        doc["eta_pow"] = x.eta_pow
        doc["theory"] = x.theory
        val = x.embed(precision)
        doc["approx"] = _complex_json(val, precision)
        return doc
    doc = {
        "order": x.ring.M,
        "num": [c.numerator for c in x.coeffs],
        "den": [c.denominator for c in x.coeffs],
        "approx": _complex_json(x.embed(precision), precision),
    }
    return doc


def _complex_json(val, precision: int) -> dict:
    with mpmath.workdps(precision):
        return {"re": mpmath.nstr(val.real, precision),
                "im": mpmath.nstr(val.imag, precision)}


def scalar_from_json(doc: dict, ring: RingContext) -> CycScalar:
    if doc["order"] != ring.M:
        raise ScalarError("root order mismatch while parsing a scalar")
    coeffs = [Fraction(n, d) for n, d in zip(doc["num"], doc["den"])]
    return ring.from_coeffs(coeffs)
