"""Plumbing-forest surgery presentations and the quantum invariants.

A plumbed 3-manifold is described by a forest whose vertices are framed
unknots and whose edges are Hopf links between them.  Vertices are either
surgery components (summed over all colors) or link components carrying a
fixed color.  The invariant of the surgered manifold is the normalized
colored bracket

    tau = (eta * Delta_+)^(-sigma) * eta^m * <L(Omega, ..., Omega)>

with sigma the signature of the linking matrix and m the number of surgery
components.  Brackets are evaluated exactly by leaf elimination over the
forest; a direct sum over all colorings is retained as a cross-check oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .diagrams import ReducedLabel, YoungDiagram
from .moddata import ModularData
from .scalars import CycScalar, ExtScalar, ScalarError

__all__ = [
    "PlumbingGraph",
    "PlumbingVertex",
    "SurgeryInvariantResult",
    "parse_plumbing",
    "plumbing_to_json",
    "empty_graph",
    "single_vertex",
    "chain",
    "disjoint_union",
    "linking_data",
    "resolve_color",
    "colored_bracket",
    "colored_bracket_direct",
    "tau",
]


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlumbingVertex:
    id: str
    framing: int
    color: object = None  # raw color document for link vertices, else None

    @property
    def is_link(self) -> bool:
        return self.color is not None


@dataclass
class PlumbingGraph:
    vertices: list
    edges: list

    def __post_init__(self):
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise ScalarError("duplicate vertex id")
        known = set(ids)
        parent = {i: i for i in known}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (u, v) in self.edges:
            if u == v:
                raise ScalarError("not a plumbing forest: self-loop at " + u)
            if u not in known or v not in known:
                raise ScalarError(f"edge endpoint {u if u not in known else v!r} "
                                  "is not a vertex")
            ru, rv = find(u), find(v)
            if ru == rv:
                raise ScalarError("not a plumbing forest")
            parent[ru] = rv

    @property
    def surgery_vertices(self) -> list:
        return [v for v in self.vertices if not v.is_link]

    def degree(self, vid: str) -> int:
        return sum((u == vid) + (w == vid) for (u, w) in self.edges)

    def neighbors(self, vid: str) -> list:
        out = []
        for (u, w) in self.edges:
            if u == vid:
                out.append(w)
            elif w == vid:
                out.append(u)
        return out


def parse_plumbing(document: dict) -> PlumbingGraph:
    """Build a validated plumbing forest from its JSON document.

    Framings must be JSON integers (not booleans, floats or strings) and
    each edge a list of two vertex ids; anything else raises ScalarError
    naming the bad record.
    """
    if not isinstance(document, dict):
        raise ScalarError("plumbing document must be an object")
    records = document.get("vertices", [])
    if not isinstance(records, list):
        raise ScalarError(f"'vertices' must be a list, got {records!r}")
    vertices = []
    for rec in records:
        if not isinstance(rec, dict) or "id" not in rec or "framing" not in rec:
            raise ScalarError(f"vertex record needs 'id' and 'framing': {rec!r}")
        framing = rec["framing"]
        if isinstance(framing, bool) or not isinstance(framing, int):
            raise ScalarError(f"framing of vertex {rec['id']!r} must be an "
                              f"integer, got {framing!r}")
        color = rec.get("link")
        if color is not None and not isinstance(color, dict):
            raise ScalarError(f"link color of vertex {rec['id']!r} must be an "
                              f"object, got {color!r}")
        vertices.append(PlumbingVertex(str(rec["id"]), framing,
                                       color=dict(color) if color else None))
    edges = document.get("edges", [])
    if not isinstance(edges, list):
        raise ScalarError(f"'edges' must be a list, got {edges!r}")
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 2:
            raise ScalarError(f"edge {edge!r} must be a list of two vertex ids")
    return PlumbingGraph(vertices, [(str(u), str(v)) for u, v in edges])


def plumbing_to_json(g: PlumbingGraph) -> dict:
    vertices = []
    for v in g.vertices:
        rec = {"id": v.id, "framing": v.framing}
        if v.is_link:
            rec["link"] = v.color
        vertices.append(rec)
    return {"vertices": vertices, "edges": [list(e) for e in g.edges]}


def empty_graph() -> PlumbingGraph:
    return PlumbingGraph([], [])


def single_vertex(framing: int, vid: str = "v0") -> PlumbingGraph:
    return PlumbingGraph([PlumbingVertex(vid, framing)], [])


def chain(framings) -> PlumbingGraph:
    """Linear plumbing v0 - v1 - ... with the given framings."""
    verts = [PlumbingVertex(f"v{i}", int(f)) for i, f in enumerate(framings)]
    edges = [(f"v{i}", f"v{i + 1}") for i in range(len(verts) - 1)]
    return PlumbingGraph(verts, edges)


def disjoint_union(g1: PlumbingGraph, g2: PlumbingGraph,
                   suffix: str = "'") -> PlumbingGraph:
    """Disjoint union; second graph's ids are suffixed to stay unique."""
    taken = {v.id for v in g1.vertices}
    rename = {v.id: (v.id + suffix if v.id in taken else v.id)
              for v in g2.vertices}
    verts = list(g1.vertices) + [
        PlumbingVertex(rename[v.id], v.framing, v.color) for v in g2.vertices]
    edges = list(g1.edges) + [(rename[u], rename[w]) for (u, w) in g2.edges]
    return PlumbingGraph(verts, edges)


# ---------------------------------------------------------------------------
# linking matrix and exact signature
# ---------------------------------------------------------------------------

def linking_data(g: PlumbingGraph):
    """Linking matrix over the surgery vertices (input order) and its
    signature, computed by rational congruence diagonalization."""
    surg = g.surgery_vertices
    idx = {v.id: i for i, v in enumerate(surg)}
    n = len(surg)
    B = [[0] * n for _ in range(n)]
    for i, v in enumerate(surg):
        B[i][i] = v.framing
    for (u, w) in g.edges:
        if u in idx and w in idx:
            B[idx[u]][idx[w]] += 1
            B[idx[w]][idx[u]] += 1
    return B, signature(B)


def signature(B) -> int:
    """Signature of a symmetric integer matrix via congruence over Q."""
    n = len(B)
    A = [[Fraction(B[i][j]) for j in range(n)] for i in range(n)]
    sig = 0
    active = list(range(n))
    while active:
        piv = next((i for i in active if A[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active
                         if i != j and A[i][j] != 0), None)
            if pair is None:
                break  # remaining block is zero: contributes nothing
            i, j = pair
            # congruence by adding the j-th basis vector to the i-th makes
            # the i-th diagonal entry 2*A[i][j] != 0
            for k in range(n):
                A[i][k] += A[j][k]
            for k in range(n):
                A[k][i] += A[k][j]
            piv = i
        p = A[piv][piv]
        sig += 1 if p > 0 else -1
        active.remove(piv)
        for i in active:
            if A[i][piv] != 0:
                f = A[i][piv] / p
                for k in range(n):
                    A[i][k] -= f * A[piv][k]
                for k in range(n):
                    A[k][i] -= f * A[k][piv]
    return sig


# ---------------------------------------------------------------------------
# colored bracket
# ---------------------------------------------------------------------------

def resolve_color(data: ModularData, spec) -> int:
    """Index of a fixed link color in the active label set."""
    if isinstance(spec, dict):
        lam = YoungDiagram(tuple(int(r) for r in spec.get("lambda", [])))
        label = ReducedLabel(int(spec["i"]), lam) if "i" in spec else lam
    else:
        label = spec
    try:
        return data.labels.index(label)
    except ValueError:
        raise ScalarError(f"unknown color label {label} for theory "
                          f"{data.theory} at ({data.N}, {data.K})") from None


def _candidate_lists(g: PlumbingGraph, data: ModularData, degree_filter):
    """For each vertex: list of (label index, local weight).

    Surgery vertices range over all labels permitted by the degree filter
    with weight <c>^(2-deg) theta_c^framing; link vertices carry their one
    fixed color with weight <c>^(1-deg) theta_c^framing.
    """
    d = data.grading_modulus
    surgery_ids = {v.id for v in g.surgery_vertices}
    degree_filter = dict(degree_filter or {})
    for vid, residue in degree_filter.items():
        if vid not in surgery_ids:
            raise ScalarError(f"degree filter names non-surgery vertex {vid!r}")
        if not 0 <= residue < d:
            raise ScalarError(
                f"degree filter residue {residue} outside modulus {d}")
    cands = {}
    for v in g.vertices:
        deg = g.degree(v.id)
        if v.is_link:
            i = resolve_color(data, v.color)
            weight = data.dims[i] ** (1 - deg) * data.twists[i] ** v.framing
            cands[v.id] = [(i, weight)]
            continue
        residue = degree_filter.get(v.id)
        options = []
        for i, lab in enumerate(data.labels):
            if residue is not None and data.degree(lab) % d != residue:
                continue
            weight = data.dims[i] ** (2 - deg) * data.twists[i] ** v.framing
            options.append((i, weight))
        cands[v.id] = options
    return cands


def colored_bracket(g: PlumbingGraph, data: ModularData,
                    degree_filter=None) -> CycScalar:
    """<L(Omega, ..., Omega)> by leaf elimination over the forest."""
    ctx = data.ctx
    cands = _candidate_lists(g, data, degree_filter)
    n = len(data.labels)
    S = data.s_matrix

    def subtree_weights(vid: str, parent: str):
        """Total weight of the subtree at vid for each choice of its color."""
        out = dict(cands[vid])
        for child in g.neighbors(vid):
            if child == parent:
                continue
            child_w = subtree_weights(child, vid)
            # message to the parent color j: sum_i w_i * S[i][j]
            msg = [None] * n
            for j in out:
                acc = ctx.zero()
                for i, w in child_w.items():
                    acc = acc + w * S[i][j]
                msg[j] = acc
            out = {j: w * msg[j] for j, w in out.items()}
        return out

    seen = set()
    total = ctx.one()
    for v in g.vertices:
        if v.id in seen:
            continue
        stack = [v.id]
        comp = set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(g.neighbors(x))
        seen |= comp
        tree_sum = ctx.zero()
        for w in subtree_weights(v.id, None).values():
            tree_sum = tree_sum + w
        total = total * tree_sum
    return total


def colored_bracket_direct(g: PlumbingGraph, data: ModularData,
                           degree_filter=None) -> CycScalar:
    """Cross-check oracle: explicit sum over all colorings of the surgery
    vertices.  Exponential in the vertex count; intended for small graphs."""
    ctx = data.ctx
    cands = _candidate_lists(g, data, degree_filter)
    order = [v.id for v in g.vertices]
    total = ctx.zero()
    for choice in itertools.product(*(cands[vid] for vid in order)):
        coloring = {vid: pair for vid, pair in zip(order, choice)}
        term = ctx.one()
        for (_, w) in choice:
            term = term * w
        for (u, w_) in g.edges:
            term = term * data.s_matrix[coloring[u][0]][coloring[w_][0]]
        total = total + term
    return total


# ---------------------------------------------------------------------------
# the invariant
# ---------------------------------------------------------------------------

@dataclass
class SurgeryInvariantResult:
    value: ExtScalar
    theory: str
    signature: int
    report: dict = field(default_factory=dict)


def tau(g: PlumbingGraph, data: ModularData) -> SurgeryInvariantResult:
    """Normalized invariant (eta Delta_+)^(-sigma) eta^m <L(Omega, ..)>.

    For the degree-zero sub-theory at a spin rank-level Delta_+ vanishes and
    no normalization exists, so that request is an error.
    """
    if data.theory == "psu" and data.spin_case:
        raise ScalarError(
            "the degree-zero invariant is undefined at a spin rank-level: "
            "Delta_+ vanishes, so the signature normalization does not exist")
    B, sigma = linking_data(g)
    m = len(B)
    bracket = colored_bracket(g, data)
    base = bracket * data.delta_plus ** (-sigma)
    value = ExtScalar(base, m - sigma, data.theory, data.omega)
    report = {
        "linking_matrix": B,
        "signature": sigma,
        "surgery_vertices": m,
        "bracket": bracket,
    }
    return SurgeryInvariantResult(value, data.theory, sigma, report)
