"""Layer tracing from the benchmark's side, and the scalar kernel probe.

``Tracer.install`` replaces each listed public function or method of the
``heckemod`` package by a timing wrapper, at every ``heckemod.*`` module
namespace that bound it (``cli`` and ``refine`` import by name), and
``uninstall`` puts the originals back.  No file of the package changes.

Every wrapped call adds to an aggregate counter: calls, inclusive seconds
(outermost activation only, so recursion is not double counted) and self
seconds (inclusive minus the time of wrapped calls nested inside it).
Coarse boundaries (an operation, a CLI command, ``build_modular_data``,
``tau``, ...) also record a span (name, start, end, parent).  Scalar
operations stay counters only, so memory does not grow with their number.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

clock = time.perf_counter

# (module, attribute, layer metric name, records spans)
TARGETS = [
    ("heckemod.scalars", "CycScalar.__mul__", "scalars.mul", False),
    ("heckemod.scalars", "CycScalar.__add__", "scalars.add", False),
    ("heckemod.scalars", "CycScalar.__sub__", "scalars.add", False),
    ("heckemod.scalars", "CycScalar.invert", "scalars.invert", False),
    ("heckemod.scalars", "CycScalar.conjugate", "scalars.conjugate", False),
    ("heckemod.scalars", "CycScalar.__pow__", "scalars.pow", False),
    ("heckemod.scalars", "CycScalar.embed", "scalars.embed", False),
    ("heckemod.scalars", "scalar_to_json", "scalars.scalar_to_json", False),
    ("heckemod.scalars", "RingContext.__init__", "scalars.ring_setup", False),
    ("heckemod.diagrams", "quantum_dimension", "diagrams.quantum_dimension",
     False),
    ("heckemod.diagrams", "twist_coefficient", "diagrams.twist_coefficient",
     False),
    ("heckemod.diagrams", "orbit_representatives",
     "diagrams.orbit_representatives", False),
    ("heckemod.moddata", "build_modular_data", "moddata.build_modular_data",
     True),
    ("heckemod.moddata", "s_matrix_entry", "moddata.s_matrix_entry", False),
    ("heckemod.moddata", "fusion_coefficients", "moddata.fusion_coefficients",
     False),
    ("heckemod.moddata", "verlinde_dimension", "moddata.verlinde_dimension",
     False),
    ("heckemod.surgery", "tau", "surgery.tau", True),
    ("heckemod.surgery", "colored_bracket", "surgery.colored_bracket", True),
    ("heckemod.surgery", "linking_data", "surgery.linking_data", False),
    ("heckemod.refine", "characteristic_solutions",
     "refine.characteristic_solutions", False),
    ("heckemod.refine", "refined_tau", "refine.refined_tau", True),
    ("heckemod.refine", "reduction_check", "refine.reduction_check", True),
    ("heckemod.refine", "u1_invariant", "refine.u1_invariant", False),
    ("heckemod.hecke", "HeckeElement.__mul__", "hecke.mul", False),
    ("heckemod.hecke", "HeckeElement.markov_trace", "hecke.markov_trace",
     False),
    ("heckemod.hecke", "path_idempotent", "hecke.path_idempotent", True),
    ("heckemod.hecke", "homfly_braid_closure", "hecke.homfly_braid_closure",
     True),
    ("heckemod.cli", "main", "cli.main", True),
    ("heckemod.cli", "_emit", "cli.emit", False),
    ("heckemod.cli", "verification_gates", "cli.verification_gates", True),
]


class Tracer:
    """Aggregate counters and coarse spans for the wrapped layer calls."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, incl_s, self_s]
        self.depth: dict[str, int] = {}    # active activations per name
        self.stack: list[list] = []        # [start, nested_s] per activation
        self.span_stack: list[int] = []
        self.spans: list[tuple] = []       # (id, name, start, end, parent)
        self.next_span = 0
        self._undo: list[tuple] = []

    # -- bookkeeping -------------------------------------------------------

    def _enter(self, name: str, span: bool):
        self.depth[name] = self.depth.get(name, 0) + 1
        frame = [clock(), 0.0, None]
        if span:
            frame[2] = self.next_span
            self.next_span += 1
            self.span_stack.append(frame[2])
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, frame) -> None:
        end = clock()
        self.stack.pop()
        elapsed = end - frame[0]
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[2] += elapsed - frame[1]
        self.depth[name] -= 1
        if not self.depth[name]:
            st[1] += elapsed
        if self.stack:
            self.stack[-1][1] += elapsed
        if frame[2] is not None:
            self.span_stack.pop()
            parent = self.span_stack[-1] if self.span_stack else None
            self.spans.append((frame[2], name, frame[0], end, parent))

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, frame)

    def _wrap(self, fn, name: str, span: bool):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for mod_name, *_ in TARGETS:
            importlib.import_module(mod_name)
        modules = [m for n, m in sys.modules.items()
                   if n == "heckemod" or n.startswith("heckemod.")]
        for mod_name, attr, name, span in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:  # a method: patch the class, under every alias
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(original, name, span)
                for alias, value in list(cls.__dict__.items()):
                    if value is original:
                        self._undo.append((cls, alias, original))
                        setattr(cls, alias, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, span)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, alias, original))
                        setattr(mod, alias, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, alias, original = self._undo.pop()
            setattr(owner, alias, original)

    # -- results -------------------------------------------------------------

    def summary(self, traced_wall_s: float, factor: float) -> dict:
        """Per-layer aggregates, times scaled to reference speed by factor,
        plus the share of the traced wall time (calibration excluded) that
        the summed self times account for."""
        layers = {name: {"calls": st[0], "s": st[1] * factor,
                         "self_s": st[2] * factor}
                  for name, st in sorted(self.stats.items())}
        covered = sum(st[2] for st in self.stats.values())
        return {"layers": layers, "self_cover_ratio": covered / traced_wall_s,
                "spans": len(self.spans)}

    def dump(self) -> dict:
        return {
            "layers": {n: {"calls": s[0], "s": s[1], "self_s": s[2]}
                       for n, s in sorted(self.stats.items())},
            "spans": [{"id": i, "name": n, "start": a, "end": b, "parent": p}
                      for i, n, a, b, p in self.spans],
        }


# ---------------------------------------------------------------------------
# scalar kernel probe
# ---------------------------------------------------------------------------

# degree 8, 16 and 32 fields; operands come from each theory's own data
KERNEL_THEORIES = [(2, 2), (4, 2), (4, 4)]
KERNEL_LABELS = [(1,), (2,), (1, 1), (2, 1)]
KERNEL_S_PAIRS = [((1,), (1,)), ((1,), (2,)), ((2, 1), (1, 1))]


def _per_call_us(fn, args_list, min_seconds: float = 0.05) -> float:
    """Median microseconds of one call, over repeated sweeps of args_list."""
    times = []
    start = clock()
    while not times or clock() - start < min_seconds:
        for args in args_list:
            t0 = clock()
            fn(*args)
            times.append(clock() - t0)
    return statistics.median(times) * 1e6


def kernel_probe(speed) -> dict:
    """Time one mul, add, invert and conjugate at field degree 8, 16, 32,
    scaled to reference speed with calibration around each timing."""
    from heckemod.diagrams import (YoungDiagram, quantum_dimension,
                                   twist_coefficient)
    from heckemod.moddata import s_matrix_entry
    from heckemod.scalars import su_parameters

    out = {}
    for N, K in KERNEL_THEORIES:
        ctx = su_parameters(N, K)
        labels = [YoungDiagram(r) for r in KERNEL_LABELS]
        dims = [quantum_dimension(ctx, lab) for lab in labels]
        twists = [twist_coefficient(ctx, lab) for lab in labels]
        entries = [s_matrix_entry(ctx, YoungDiagram(a), YoungDiagram(b))
                   for a, b in KERNEL_S_PAIRS]
        operands = [x for x in dims + twists + entries if not x.is_zero()]
        irrational = [x for x in dims + entries if not x.is_rational()]
        pairs = [(x, y) for x in irrational for y in operands]
        deg = ctx.degree
        for op, fn, args in (
                ("mul", lambda x, y: x * y, pairs),
                ("add", lambda x, y: x + y, pairs),
                ("invert", lambda x: x.invert(), [(x,) for x in irrational]),
                ("conjugate", lambda x: x.conjugate(), [(x,) for x in operands])):
            speed.calibrate(3)
            start = clock()
            us = _per_call_us(fn, args)
            speed.calibrate(3)
            out[f"{op}.deg{deg}_us"] = us * speed.factor_between(start - 1,
                                                                 clock())
    return out
