"""Constructions that only the tests use: central idempotents, Young
quasi-idempotents, the quantum hook product and the tensor embeddings of
Hecke elements, the general-v form of the quantum dimension, the hook
length of one cell, a scalar read back from its JSON form and the value of
a rational one, the products of scalar rows by a plain loop, fusion by the
plain Verlinde sum, the characteristic equation on the dense linking
matrix, the structure vectors of a blow-up and a blow-down, and the root of
unity of the abelian Gauss sum."""

from fractions import Fraction

from heckemod.diagrams import YoungDiagram
from heckemod.hecke import (
    HeckeElement,
    StandardTableau,
    braid_word_to_element,
    path_idempotent,
    reduced_word,
    standard_tableaux,
    symmetrizer,
)
from heckemod.refine import _characteristic_target, _u1_exponent
from heckemod.scalars import CycScalar, RingContext, ScalarError


def standard_tableaux_of_shape(lam: YoungDiagram) -> list[StandardTableau]:
    return [t for t in standard_tableaux(lam.size) if t.shape() == lam]


def central_idempotent(lam: YoungDiagram, n: int, ring: RingContext) -> HeckeElement:
    """z_lambda = sum of the path idempotents of shape lambda."""
    total = HeckeElement(n, ring, {})
    for t in standard_tableaux_of_shape(lam):
        total = total + path_idempotent(t, ring, n)
    return total


def _column_to_row_permutation(lam: YoungDiagram) -> tuple[int, ...]:
    """Permutation sending column-reading positions to row-reading positions."""
    cells_row = lam.cells()  # row-reading order
    cells_col = sorted(cells_row, key=lambda c: (c[1], c[0]))
    row_index = {c: k for k, c in enumerate(cells_row)}
    return tuple(row_index[c] for c in cells_col)


def young_quasi_idempotent(lam: YoungDiagram, ring: RingContext) -> HeckeElement:
    """The row/column sandwich with y~^2 = [hl(lambda)] y~ where [hl] is the
    product of the quantum hook lengths."""
    n = lam.size
    ring_one = HeckeElement.identity(n, ring)
    # row blocks: [lam_i]! f_{lam_i} placed on consecutive row positions
    F = ring_one
    offset = 0
    for r in lam.rows:
        blk = ring.quantum_factorial(r) * symmetrizer(r, "f", ring)
        F = F * _embed(blk, offset, n, ring)
        offset += r
    # column blocks in column-reading coordinates, conjugated into row coords
    cols = lam.transpose().rows
    G = ring_one
    offset = 0
    for c in cols:
        blk = ring.quantum_factorial(c) * symmetrizer(c, "g", ring)
        G = G * _embed(blk, offset, n, ring)
        offset += c
    wc = _column_to_row_permutation(lam)
    w = HeckeElement.basis(wc, ring)
    w_inv = braid_word_to_element([-(i + 1) for i in reversed(reduced_word(wc))], n, ring)
    return F * (w_inv * G * w)


def _embed(x: HeckeElement, offset: int, n: int, ring: RingContext) -> HeckeElement:
    return tensor_right(tensor_left(x, offset), n - offset - x.n)


def quantum_hook_product(lam: YoungDiagram, ring: RingContext) -> CycScalar:
    total = ring.one()
    for hl in lam.hook_lengths():
        total = total * ring.quantum_integer(hl)
    return total


def tensor_right(x: HeckeElement, k: int) -> HeckeElement:
    """x |-> x (x) 1_k on the last k strands."""
    n = x.n + k
    pad = tuple(range(x.n, n))
    return HeckeElement(n, x.ring, {p + pad: c for p, c in x.terms.items()})


def tensor_left(x: HeckeElement, k: int) -> HeckeElement:
    """x |-> 1_k (x) x on the first k strands."""
    head = tuple(range(k))
    return HeckeElement(x.n + k, x.ring,
                        {head + tuple(i + k for i in p): c
                         for p, c in x.terms.items()})


def quantum_dimension_general(ctx: RingContext, lam: YoungDiagram) -> CycScalar:
    """The general-v form prod (v^-1 s^cn - v s^-cn)/(s^hl - s^-hl)."""
    total = ctx.one()
    for (i, j), hl in zip(lam.cells(), lam.hook_lengths()):
        cn = lam.content(i, j)
        num = ctx.v(-1) * ctx.s(cn) - ctx.v(1) * ctx.s(-cn)
        den = ctx.s(hl) - ctx.s(-hl)
        total = total * num * den.invert()
    return total


def hook_length(lam: YoungDiagram, i: int, j: int) -> int:
    """The hook length of the cell (i, j) of lam alone."""
    return lam.rows[i] + lam.transpose().row(j) - i - j - 1


def scalar_from_json(doc: dict, ring: RingContext) -> CycScalar:
    """The scalar of a ``scalars.scalar_to_json`` document, in ``ring``."""
    if doc["order"] != ring.M:
        raise ScalarError("root order mismatch while parsing a scalar")
    coeffs = [Fraction(n, d) for n, d in zip(doc["num"], doc["den"])]
    return ring.from_coeffs(coeffs)


def rational_value(x: CycScalar) -> Fraction:
    """The rational number that the scalar x is; ScalarError when it is
    not rational."""
    if not x.is_rational():
        raise ScalarError("scalar is not rational")
    return Fraction(x.nums[0], x.den)


def plain_dot(xs, ys) -> list:
    """[sum_k x_ik y_jk for each row j of ys] for each row i of xs, as a
    plain loop of scalar products."""
    zero = xs[0][0].ring.zero()
    out = []
    for xrow in xs:
        orow = []
        for yrow in ys:
            acc = zero
            for x, y in zip(xrow, yrow):
                acc = acc + x * y
            orow.append(acc)
        out.append(orow)
    return out


def verlinde_fusion(data, lam, mu) -> dict:
    """{nu: sum_k S_lam,k S_mu,k conj(S_nu,k) / (omega <k>)} over the nu
    where the Verlinde sum is nonzero, each value a Fraction; ScalarError
    when one is not rational.  Off su data the sum need not be a fusion
    rule: it can be negative."""
    S, zero = data.s_matrix, data.ctx.zero()
    scale = [(data.omega * d).invert() for d in data.dims]
    weights = [x * y * z for x, y, z in
               zip(S[data.index(lam)], S[data.index(mu)], scale)]
    out = {}
    for nu, row in zip(data.labels, S):
        val = sum((w * x.conjugate() for w, x in zip(weights, row)), zero)
        if not val.is_zero():
            out[nu] = rational_value(val)
    return out


def is_characteristic(B, c, d: int, kind: str) -> bool:
    """Whether B c = (d/2) diag(B) (spin) or B c = 0 (coho) mod d, by the
    dense rows of B."""
    target = _characteristic_target(B, d, kind)
    m = len(B)
    return all(sum(B[i][k] * c[k] for k in range(m)) % d == target[i] % d
               for i in range(m))


def blowup_transform(c, d: int, kind: str):
    """Structure vector after appending an isolated +-1-framed vertex."""
    extra = d // 2 if kind == "spin" else 0
    return list(c) + [extra]


def blowdown_transform(c, B, d: int, kind: str):
    """Remove the last surgery component, which must be an isolated
    +-1-framed vertex carrying the mandatory coefficient."""
    m = len(B)
    if m == 0:
        raise ScalarError("nothing to blow down")
    if B[m - 1][m - 1] not in (1, -1) or \
            any(B[m - 1][k] for k in range(m - 1)):
        raise ScalarError("last component is not an isolated +-1-framed vertex")
    required = d // 2 if kind == "spin" else 0
    if c[m - 1] % d != required:
        raise ScalarError(
            f"coefficient on the blown-down component must be {required}")
    return list(c[:m - 1])


def u1_root_of_unity(su_data, beta: int) -> CycScalar:
    """zeta = (a^K s^-1)^(K beta^2) for d even, ((-a)^K s^-1)^(K beta^2)
    for d odd, in the ring of the full theory."""
    return su_data.ctx.zeta(_u1_exponent(su_data, beta))
