"""Young-diagram combinatorics and the label sets of the three theories.

Provides hook/content data, the sectors Gamma-bar / Gamma / Gamma^0 /
Gamma-dot, quantum dimensions and twists, the star involution, and the
cyclic action whose orbit representatives label the reduced theory.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul

from .scalars import CycScalar, RingContext, ScalarError


@dataclass(frozen=True)
class YoungDiagram:
    rows: tuple[int, ...]

    def __post_init__(self):
        if any(r <= 0 for r in self.rows):
            raise ValueError("row lengths must be positive")
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise ValueError("rows must be weakly decreasing")

    @staticmethod
    def of(*rows: int) -> "YoungDiagram":
        return YoungDiagram(tuple(r for r in rows if r))

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> int:
        """Length of row i (0-indexed), zero beyond the last row."""
        return self.rows[i] if 0 <= i < len(self.rows) else 0

    def cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i, r in enumerate(self.rows) for j in range(r)]

    def transpose(self) -> "YoungDiagram":
        if not self.rows:
            return self
        cols = tuple(sum(1 for r in self.rows if r > j) for j in range(self.rows[0]))
        return YoungDiagram(cols)

    def hook_lengths(self) -> list[int]:
        """The hook length of every cell, in the order of :meth:`cells`,
        from one transpose."""
        cols = self.transpose()
        return [r + cols.row(j) - i - j - 1
                for i, r in enumerate(self.rows) for j in range(r)]

    def content(self, i: int, j: int) -> int:
        return j - i

    def content_sum(self) -> int:
        return sum(j - i for i, j in self.cells())

    def contains(self, other: "YoungDiagram") -> bool:
        return all(other.row(i) <= self.row(i) for i in range(other.num_rows))

    def __str__(self) -> str:
        return "[" + ",".join(str(r) for r in self.rows) + "]"


EMPTY = YoungDiagram(())


@dataclass(frozen=True)
class ReducedLabel:
    """A power i of the column object 1^N tensored with a diagram in Gamma."""

    i: int
    diagram: YoungDiagram

    def degree(self, N: int) -> int:
        return self.i * N + self.diagram.size

    def __str__(self) -> str:
        return f"({self.i},{self.diagram})"


# ---------------------------------------------------------------------------
# label sectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _diagrams_in_box(max_rows: int, max_cols: int) -> tuple[YoungDiagram, ...]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], limit: int):
        out.append(tuple(prefix))
        if len(prefix) == max_rows:
            return
        for r in range(limit, 0, -1):
            prefix.append(r)
            rec(prefix, r)
            prefix.pop()

    rec([], max_cols)
    return tuple(sorted((YoungDiagram(r) for r in out), key=lambda d: d.rows))


def enumerate_sector(N: int, K: int, sector: str, alpha: int | None = None):
    """Label sets in deterministic lexicographic order.

    bar: at most N rows, at most K columns.  strict: fewer than N rows.
    zero: strict with size divisible by N.  dotted: strict paired with a
    column-object power 0 <= i < alpha.
    """
    if sector == "bar":
        return list(_diagrams_in_box(N, K))
    if sector == "strict":
        return list(_diagrams_in_box(N - 1, K))
    if sector == "zero":
        return [d for d in _diagrams_in_box(N - 1, K) if d.size % N == 0]
    if sector == "dotted":
        if alpha is None:
            raise ValueError("dotted sector requires alpha")
        return [ReducedLabel(i, d)
                for i in range(alpha) for d in _diagrams_in_box(N - 1, K)]
    raise ValueError(f"unknown sector {sector!r}")


# ---------------------------------------------------------------------------
# dimensions and twists
# ---------------------------------------------------------------------------

def quantum_dimension(ctx: RingContext, label) -> CycScalar:
    """Hook-content product over cells: prod [N + cn(c)] / [hl(c)].

    Every cell's hook is checked in cell order before anything cancels.
    Numerators and hooks are then counted as one net exponent per quantum
    integer, so equal factors cancel and [1] drops out; what is left of
    the denominator, if anything, is inverted once."""
    lam = label.diagram if isinstance(label, ReducedLabel) else label
    qint = {}  # n -> [n], built once per distinct integer
    expo = Counter()  # n -> net exponent of [n]
    for (i, j), hl in zip(lam.cells(), lam.hook_lengths()):
        hook = qint.get(hl)
        if hook is None:
            hook = qint[hl] = ctx.quantum_integer(hl)
        if hook.is_zero():
            raise ScalarError(
                f"hook length {hl} at cell ({i},{j}) of {lam} is not invertible")
        expo[ctx.N + lam.content(i, j)] += 1
        expo[hl] -= 1
    num, den = [], []
    for n, e in expo.items():
        if e and n != 1:
            q = qint[n] if n in qint else ctx.quantum_integer(n)
            (num if e > 0 else den).extend([q] * abs(e))
    value = reduce(mul, num) if num else ctx.one()
    return value * reduce(mul, den).invert() if den else value


def twist_exponent(ctx: RingContext, label) -> int:
    """The k, 0 <= k < M, with theta = zeta^k: the framing coefficient
    a^(|lam|^2) v^(-|lam|) s^(2 sum cn) is a root of unity, so its exponent
    is a closed form in the exponents of a, v and s; the reduced label
    (i, lam) adds the crossing factor of the column object."""
    if isinstance(label, ReducedLabel):
        i, lam = label.i, label.diagram
        N = ctx.N
        # a^N s, the 1^N-past-one-cell factor, is a root of unity; the twist
        # of 1^N is its N-th power, and i columns cross each other and lam
        cross = ctx.a_exp * N + ctx.s_exp
        expo = N * i + 2 * N * (i * (i - 1) // 2) + 2 * i * lam.size
        return (cross * expo + twist_exponent(ctx, lam)) % ctx.M
    n = label.size
    return (ctx.a_exp * n * n - ctx.v_exp * n
            + 2 * ctx.s_exp * label.content_sum()) % ctx.M


def twist_coefficient(ctx: RingContext, label) -> CycScalar:
    """The twist theta = zeta^twist_exponent(ctx, label)."""
    return ctx.zeta(twist_exponent(ctx, label))


# ---------------------------------------------------------------------------
# involutions and the cyclic action
# ---------------------------------------------------------------------------

def star_involution(label, N: int, alpha: int | None = None):
    """Dual label: the 180-degree rotation of lam_1^N minus lam; in the
    reduced case the column power is adjusted so the total degree is a
    multiple of N*alpha."""
    if isinstance(label, ReducedLabel):
        if alpha is None:
            raise ValueError("reduced star requires alpha")
        lam = label.diagram
        star = star_involution(lam, N)
        i_star = (-label.i - lam.row(0)) % alpha
        return ReducedLabel(i_star, star)
    lam = label
    if not lam.rows:
        return lam
    top = lam.rows[0]
    rows = tuple(top - lam.row(N - 1 - i) for i in range(N))
    return YoungDiagram(tuple(r for r in rows if r))


def zn_action(label: ReducedLabel, N: int, K: int, alpha: int) -> ReducedLabel:
    """Generator of the cyclic action on dotted labels: add a K-cell row on
    top, then strip full columns of N cells into copies of the column object."""
    lam = label.diagram
    t = lam.row(N - 2)  # number of full columns after adding the K-row
    new_rows = [K - t] + [lam.row(j) - t for j in range(N - 2)]
    new_lam = YoungDiagram(tuple(r for r in new_rows if r))
    return ReducedLabel((label.i + t) % alpha, new_lam)


def orbit_representatives(N: int, K: int, alpha: int, beta: int
                          ) -> tuple[list[ReducedLabel], dict[ReducedLabel, ReducedLabel]]:
    """Representatives (lexicographic minima) of the free Z/(alpha*N') orbits
    on the dotted sector, plus the map label -> representative."""
    d = math.gcd(N, K)
    n_prime = N // d
    order = alpha * n_prime
    labels = enumerate_sector(N, K, "dotted", alpha)
    key = lambda u: (u.i, u.diagram.rows)
    seen: dict[ReducedLabel, ReducedLabel] = {}
    reps: list[ReducedLabel] = []
    for u in labels:
        if u in seen:
            continue
        orbit = [u]
        cur = u
        while True:
            for _ in range(beta):
                cur = zn_action(cur, N, K, alpha)
            if cur == u:
                break
            orbit.append(cur)
        if len(orbit) != order:
            raise ValueError(
                f"orbit of {u} has size {len(orbit)}, expected {order}: "
                "the cyclic action is not free")
        rep = min(orbit, key=key)
        reps.append(rep)
        for x in orbit:
            seen[x] = rep
    reps.sort(key=key)
    expected = d * math.factorial(N + K - 1) // (math.factorial(N) * math.factorial(K))
    if len(reps) != expected:
        raise ValueError(f"found {len(reps)} orbits, expected {expected}")
    return reps, seen
