"""The Hecke algebra H_n on the positive-permutation-braid basis.

Elements are sparse linear combinations of basis braids w_pi indexed by
permutations (0-indexed tuples, composed diagrammatically: strand starting
at position j ends at position pi[j]).  The quadratic relation is
sigma^2 = a(s - s^-1) sigma + a^2, and the Markov trace closes the braid in
the solid torus and evaluates it in the 3-sphere.

The multiplication kernel works on integer numerators: inside a product, a
chain of generator steps or a partial trace, a term dict maps each
permutation to a numerator vector, and all its terms share one
denominator.  a and s are powers of zeta, so a generator step multiplies by
zeta^e1 - zeta^e2 and zeta^e3 (``_quadratic``), each a rotation of the
numerators by ``RingContext.power_sum``; scaling by a coefficient is one
schoolbook product.  Each result becomes canonical scalars once, at its end.

This module serves as an independent skein-level oracle for the quantum
dimensions, twists, and eigenvalues used elsewhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .diagrams import YoungDiagram
from .scalars import (CycScalar, RingContext, ScalarError, _canonical,
                      _common_den, _nonzero_terms, _schoolbook)

MAX_STRANDS = 8


def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_length(p: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


@lru_cache(maxsize=None)
def reduced_word(p: tuple[int, ...]) -> tuple[int, ...]:
    """Generator indices (0-indexed, left-to-right) with w_p = sigma_{i1}...sigma_{ik}."""
    q = list(p)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(q) - 1):
            if q[i] > q[i + 1]:
                # w_p = sigma_i * w_q' where q' has positions i, i+1 swapped
                word.append(i)
                q[i], q[i + 1] = q[i + 1], q[i]
                changed = True
    return tuple(word)


def _quadratic(ring: RingContext, sign: int) -> tuple[int, int, int]:
    """(e1, e2, e3) with g^2 = (zeta^e1 - zeta^e2) g + zeta^e3 for
    g = sigma_i^sign.

    sigma^2 = a(s - s^-1) sigma + a^2, and multiplying it by a^-2 sigma^-2
    gives sigma^-2 = (a^-1 s^-1 - a^-1 s) sigma^-1 + a^-2.
    """
    a, s = ring.a_exp, ring.s_exp
    if sign > 0:
        return a + s, a - s, 2 * a
    return -a - s, s - a, -2 * a


def _numerators(terms: dict) -> tuple[dict, int]:
    """A term dict of scalars as numerator vectors over one denominator,
    the least common one."""
    vecs, den = _common_den(terms.values())
    return dict(zip(terms, vecs)), den


def _scalars(ring: RingContext, terms: dict, den: int) -> dict:
    """The canonical scalars of numerator vectors over ``den``, zero terms
    dropped."""
    return {p: _canonical(ring, v, den) for p, v in terms.items() if any(v)}


def _accumulate(terms: dict, p: tuple[int, ...], v: tuple) -> None:
    """terms[p] += v for numerator vectors over the dict's denominator; a
    sum that cancels stays, as a zero vector, until ``_scalars`` drops it."""
    if p in terms:
        v = tuple(map(add, terms[p], v))
    terms[p] = v


def _step(ring: RingContext, terms: dict, i: int, sign: int,
          rel: tuple[int, int, int]) -> dict:
    """The numerators of (sum c w_p) sigma_i^sign over the denominator of
    ``terms``, with rel = ``_quadratic(ring, sign)``.

    Let q = p s_i (the values i and i+1 swapped).  Where the lengths add
    (i comes before i+1 in p), w_p sigma_i = w_q; otherwise w_p = w_q sigma_i
    and the quadratic relation gives (zeta^e1 - zeta^e2) w_p + zeta^e3 w_q,
    each power of zeta a rotation of the numerators.  For sigma_i^-1 the two
    cases trade places: w_p sigma_i^-1 = w_q when w_p = w_q sigma_i.
    """
    e1, e2, e3 = rel
    rotate = ring.power_sum
    out: dict = {}
    for p, v in terms.items():
        lo, hi = p.index(i), p.index(i + 1)
        q = list(p)
        q[lo], q[hi] = i + 1, i
        q = tuple(q)
        if (lo < hi) == (sign > 0):
            _accumulate(out, q, v)
        else:
            _accumulate(out, p, tuple(map(sub, rotate(v, 1, e1),
                                          rotate(v, 1, e2))))
            _accumulate(out, q, rotate(v, 1, e3))
    return out


def _product(ring: RingContext, x: dict, y: dict, out: dict) -> None:
    """Add the numerators of x * y into ``out``, for term dicts of numerator
    vectors over D_x and D_y; the sum is over D_x D_y.

    x w_q = x sigma_{i1} ... sigma_{ik} for the reduced word of q, so the
    words of y's support are walked as a prefix tree, depth first in
    lexicographic order: each node costs one generator step on its parent's
    product, and c_q scales the product at q's node by one schoolbook
    product per term.
    """
    rel = _quadratic(ring, 1)
    word: list[int] = []
    prefix = [x]  # prefix[k] = x times the first k letters of word
    for w, c in sorted(((reduced_word(q), c) for q, c in y.items()),
                       key=lambda wc: wc[0]):
        k = 0
        while k < len(word) and k < len(w) and word[k] == w[k]:
            k += 1
        del word[k:], prefix[k + 1:]
        for i in w[k:]:
            prefix.append(_step(ring, prefix[-1], i, 1, rel))
            word.append(i)
        c = _nonzero_terms(c)
        for p, v in prefix[-1].items():
            _accumulate(out, p, _schoolbook(ring, v, c))


def _check_strands(n: int) -> None:
    if n > MAX_STRANDS:
        raise ScalarError(f"strand count {n} exceeds the cap {MAX_STRANDS}")


class HeckeElement:
    """Sparse linear combination of positive permutation braids in H_n."""

    __slots__ = ("n", "ring", "terms")

    def __init__(self, n: int, ring: RingContext, terms: dict):
        _check_strands(n)
        self.n = n
        self.ring = ring
        self.terms = {p: c for p, c in terms.items() if not c.is_zero()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int, ring: RingContext) -> "HeckeElement":
        return HeckeElement(n, ring, {_identity(n): ring.one()})

    @staticmethod
    def generator(i: int, n: int, ring: RingContext) -> "HeckeElement":
        """sigma_i (0-indexed, 0 <= i <= n-2)."""
        if not 0 <= i <= n - 2:
            raise ScalarError(f"generator index {i} out of range for {n} strands")
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        return HeckeElement(n, ring, {tuple(p): ring.one()})

    @staticmethod
    def basis(p: tuple[int, ...], ring: RingContext) -> "HeckeElement":
        return HeckeElement(len(p), ring, {tuple(p): ring.one()})

    # -- linear structure -----------------------------------------------------

    def _check(self, other: "HeckeElement") -> None:
        if self.n != other.n:
            raise ScalarError("mismatched strand counts")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._check(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms[p] + c if p in terms else c
        return HeckeElement(self.n, self.ring, terms)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.n, self.ring,
                            {p: -c for p, c in self.terms.items()})

    def scale(self, c) -> "HeckeElement":
        if isinstance(c, (int, Fraction)):
            c = self.ring.from_rational(c)
        return HeckeElement(self.n, self.ring,
                            {p: x * c for p, x in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction, CycScalar)):
            return self.scale(c)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        # the term dicts are zero-free and their coefficients canonical
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):  # pragma: no cover
        return hash((self.n, frozenset(self.terms.items())))

    # -- multiplication ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        ring = self.ring
        (x, dx), (y, dy) = _numerators(self.terms), _numerators(other.terms)
        out: dict = {}
        _product(ring, x, y, out)
        return HeckeElement(self.n, ring, _scalars(ring, out, dx * dy))

    # -- trace ---------------------------------------------------------------

    def partial_trace(self) -> "HeckeElement":
        """Close the last strand: the conditional expectation H_n -> H_{n-1}.

        On a basis braid: if the last strand is straight, a disjoint circle
        peels off with factor delta; otherwise w_pi factors with additive
        lengths as u * sigma_{n-2} * w_pi' with u, pi' in the subalgebra, and
        the Markov property gives a v^-1 * u * w_pi'.  The terms that share
        u close as one product, u times the sum of their c * w_pi'.
        """
        ring = self.ring
        n = self.n
        if n == 0:
            raise ScalarError("nothing to close")
        terms, den = _numerators(self.terms)
        # [N] and a v^-1 are integral, so the result stays over den
        delta = _nonzero_terms(ring.quantum_integer(ring.N).nums)
        out: dict = {}
        # k -> the terms whose strand ending last starts at k, as w_pi'
        through: dict[int, dict] = {}
        for p, v in terms.items():
            if p[n - 1] == n - 1:
                _accumulate(out, p[: n - 1], _schoolbook(ring, v, delta))
            else:
                k = p.index(n - 1)
                rest = tuple(x for x in p if x != n - 1)
                through.setdefault(k, {})[rest] = v
        curl = ring.zeta(ring.a_exp - ring.v_exp).nums
        for k, rest in through.items():
            # u = s_k s_{k+1} ... s_{n-3} in S_{n-1}
            u = tuple(list(range(k)) + [n - 2] + list(range(k, n - 2)))
            _product(ring, {u: curl}, rest, out)
        return HeckeElement(n - 1, ring, _scalars(ring, out, den))

    def markov_trace(self) -> CycScalar:
        """Homflypt value of the closure of this element in the 3-sphere,
        obtained by closing the strands one at a time."""
        x = self
        while x.n > 0:
            x = x.partial_trace()
        return x.terms.get((), self.ring.zero())

    def __repr__(self) -> str:  # pragma: no cover
        return f"HeckeElement(n={self.n}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# braid words
# ---------------------------------------------------------------------------

def braid_word_to_element(word, n: int, ring: RingContext) -> HeckeElement:
    """Evaluate a braid word (1-indexed signed generator indices) in H_n.

    The generator steps act on integer numerators over the denominator 1."""
    _check_strands(n)
    terms = {_identity(n): ring.one().nums}
    relations = {1: _quadratic(ring, 1), -1: _quadratic(ring, -1)}
    for w in word:
        i = abs(w) - 1
        if not 0 <= i <= n - 2:
            raise ScalarError(f"generator {w} out of range for {n} strands")
        sign = 1 if w > 0 else -1
        terms = _step(ring, terms, i, sign, relations[sign])
    return HeckeElement(n, ring, _scalars(ring, terms, 1))


def homfly_braid_closure(word, n: int, ring: RingContext) -> CycScalar:
    """Homflypt invariant of the blackboard-framed closure of a braid word."""
    return braid_word_to_element(word, n, ring).markov_trace()


# ---------------------------------------------------------------------------
# symmetrizers
# ---------------------------------------------------------------------------

def symmetrizer(n: int, kind: str, ring: RingContext) -> HeckeElement:
    """The deformed symmetrizer f_n (kind 'f') or antisymmetrizer g_n ('g'),
    as the length-generating sum [n]!^-1 s^-+n(n-1)/2 sum_p u^-l(p) w_p with
    u = a s^-1 for f and u = -a s for g (Aiston-Morton), built once per ring."""
    if kind not in ("f", "g"):
        raise ScalarError("kind must be 'f' or 'g'")
    if n < 1:
        raise ScalarError("symmetrizer needs n >= 1")
    for j in range(2, n + 1):
        if not ring.quantum_integer_invertible(j):
            raise ScalarError(f"[{j}] is not invertible; cannot build the symmetrizer")
    cache = ring.symmetrizers
    if (n, kind) not in cache:
        sign = -1 if kind == "f" else 1
        top = n * (n - 1) // 2
        unit = (ring.from_rational(-sign) * ring.a() * ring.s(sign)).invert()
        powers = [ring.quantum_factorial(n).invert() * ring.s(sign * top)]
        for _ in range(top):
            powers.append(powers[-1] * unit)
        cache[n, kind] = HeckeElement(n, ring, {
            p: powers[perm_length(p)]
            for p in itertools.permutations(range(n))})
    return cache[n, kind]


# ---------------------------------------------------------------------------
# Jucys-Murphy elements and path idempotents
# ---------------------------------------------------------------------------

def jucys_murphy(k: int, n: int, ring: RingContext) -> HeckeElement:
    """J_k = sigma_{k-1}...sigma_1 sigma_1...sigma_{k-1} (1-indexed k): the
    full positive curl of strand k around strands 1..k-1."""
    if not 1 <= k <= n:
        raise ScalarError("Jucys-Murphy index out of range")
    word = list(range(k - 1, 0, -1)) + list(range(1, k))
    return braid_word_to_element(word, n, ring)


class StandardTableau:
    """A standard tableau recorded as the sequence of cells added."""

    def __init__(self, cells: tuple[tuple[int, int], ...]):
        self.cells = cells

    @property
    def size(self) -> int:
        return len(self.cells)

    def shape(self) -> YoungDiagram:
        rows: dict[int, int] = {}
        for (i, _) in self.cells:
            rows[i] = rows.get(i, 0) + 1
        return YoungDiagram(tuple(rows[i] for i in sorted(rows)))

    def shape_at(self, k: int) -> YoungDiagram:
        return StandardTableau(self.cells[:k]).shape() if k else YoungDiagram(())

    def __repr__(self) -> str:  # pragma: no cover
        return f"StandardTableau({self.cells})"

    def __eq__(self, other):
        return isinstance(other, StandardTableau) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)


def addable_cells(lam: YoungDiagram) -> list[tuple[int, int]]:
    out = []
    for i in range(lam.num_rows + 1):
        j = lam.row(i)
        if i == 0 or lam.row(i - 1) > j:
            out.append((i, j))
    return out


def standard_tableaux(n: int) -> list[StandardTableau]:
    """All standard tableaux with n cells, over all shapes of size n."""
    result: list[StandardTableau] = []

    def rec(cells: list):
        if len(cells) == n:
            result.append(StandardTableau(tuple(cells)))
            return
        shape = StandardTableau(tuple(cells)).shape()
        for c in addable_cells(shape):
            cells.append(c)
            rec(cells)
            cells.pop()

    rec([])
    return result


def path_idempotent(t: StandardTableau, ring: RingContext,
                    n: int | None = None) -> HeckeElement:
    """Minimal idempotent of H_n attached to a standard tableau, built by
    Lagrange interpolation on the Jucys-Murphy eigenvalues a^(2(k-1)) s^(2 cn)."""
    size = t.size
    n = size if n is None else n
    p = HeckeElement.identity(n, ring)
    for k in range(2, size + 1):
        prev_shape = t.shape_at(k - 1)
        my_cell = t.cells[k - 1]
        my_eig = ring.zeta((2 * (k - 1) * ring.a_exp
                            + 2 * (my_cell[1] - my_cell[0]) * ring.s_exp) % ring.M)
        jk = jucys_murphy(k, n, ring)
        for (i, j) in addable_cells(prev_shape):
            if (i, j) == my_cell:
                continue
            eig = ring.zeta((2 * (k - 1) * ring.a_exp
                             + 2 * (j - i) * ring.s_exp) % ring.M)
            gap = my_eig - eig
            if gap.is_zero():
                raise ScalarError(
                    f"coincident interpolation eigenvalues at contents "
                    f"{my_cell[1] - my_cell[0]} and {j - i} (step {k})")
            p = p * (jk - eig * HeckeElement.identity(n, ring)).scale(gap.invert())
    return p


def full_twist(n: int, ring: RingContext) -> HeckeElement:
    """(sigma_1 ... sigma_{n-1})^n."""
    word = list(range(1, n)) * n
    return braid_word_to_element(word, n, ring)
