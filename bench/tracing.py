"""Per-layer spans and counters, installed from outside the program.

``Tracer.install`` wraps public functions and methods of the ``powerops``
modules; nothing under ``src/`` is edited.  A module-level function is
rebound in every ``powerops`` module that holds it (``lagrange_invert``, for
one, is bound in ``series``, ``fgl``, ``powerop``, ``reports`` and the
package itself); a method is replaced on its class.  ``Tracer.restore`` puts
every original back.

A span records its name, start, end, parent span and job id.  Spans stay in
memory until the run ends.  Scalar operations only count, since a span per
coefficient operation would swamp the run.

The pipeline stages are spans only as called from the pipeline: inside
``power_operation_value`` and outside any other stage.  So the
``lagrange_invert`` that builds the exponential inside the g stage belongs
to g (and to ``fgl.exp_build``), not to the k_inverse stage.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (owner, attribute, kind, name).  The owner is a module of the powerops
# package, or a class in one, as "module.Class".  Kinds:
#   span      a span called `name`
#   stage     a span called `name`, recorded only as called from the pipeline
#   pipeline  a span that opens the pipeline context for the stages
#   count     counter `name`
#   padic_add, series_mul, dl_mul: a count or span plus that layer's counters
WRAPS = (
    ("powerop", "power_operation_value", "pipeline", "powerop.value"),
    ("fgl.FormalGroupLaw", "euler_class", "stage", "powerop.chi"),
    ("fgl.FormalGroupLaw", "angle_p_series", "stage", "powerop.angle_p"),
    ("powerop", "g_series", "stage", "powerop.g"),
    ("powerop", "k_series", "stage", "powerop.k"),
    ("series", "lagrange_invert", "stage", "powerop.k_inverse"),
    ("powerop", "f_coefficient", "stage", "powerop.f_n"),
    ("powerop", "h_polynomial", "stage", "powerop.h_n"),
    ("powerop", "divide_by_series_power", "stage", "powerop.divide"),
    ("series", "quotient_normalize", "stage", "powerop.normalize"),
    ("fgl.FormalGroupLaw", "formal_sum", "span", "fgl.formal_sum"),
    ("fgl.FormalGroupLaw", "exp_of", "span", "fgl.exp_of"),
    ("fgl.FormalGroupLaw", "scalar_series", "span", "fgl.scalar_series"),
    ("fgl.Logarithm", "series", "span", "fgl.log_series"),
    ("fgl.Logarithm", "inverse_series", "span", "fgl.exp_build"),
    ("series.TruncatedSeries", "__mul__", "series_mul", "series.mul"),
    ("series.TruncatedSeries", "pow", "span", "series.pow"),
    ("series.TruncatedSeries", "substitute", "span", "series.substitute"),
    ("series.TruncatedSeries", "inverse", "span", "series.inverse"),
    ("scalar.CoeffV3", "__mul__", "count", "scalar.coeff_mul.calls"),
    ("scalar.PAdicScalar", "__mul__", "count", "scalar.padic_mul.calls"),
    ("scalar.PAdicScalar", "__add__", "padic_add", "scalar.padic_add.calls"),
    ("dl.DLAlgebra", "__init__", "count", "dl.algebras"),
    ("dl.DLAlgebra", "apply_q", "span", "dl.apply_q"),
    ("dl.DLPolynomial", "__mul__", "dl_mul", "dl.poly_mul"),
    ("dl", "verify_relation", "span", "dl.verify_relation"),
    ("dl", "solve_sigma", "span", "dl.solve_sigma"),
    ("dl", "verify_factorization", "span", "dl.verify_factorization"),
    ("mu_homology", "kochman_q", "count", "mu.kochman_q.calls"),
    ("mu_homology", "q_on_product", "span", "mu.q_on_product"),
    ("mu_homology.SymmetricClass", "expand", "span", "mu.expand"),
    ("mu_homology", "newton_expand", "count", "mu.newton_expand.calls"),
    ("mu_homology", "symmetric_evaluate", "count", "mu.evaluations"),
    ("finite_field.GaloisField", "__init__", "span", "ff.field_build"),
    ("finite_field.GaloisField", "mul", "count", "ff.mul.calls"),
    ("cli", "main", "span", "cli.main"),
    ("reports", "run_suite", "span", "reports.run_suite"),
)

LAYERS = ("powerop", "fgl", "series", "dl", "mu", "ff", "cli", "reports")

_MARK = "__bench_wrapped__"


def resolve(owner: str):
    module, _, cls = owner.partition(".")
    mod = importlib.import_module(f"powerops.{module}")
    return mod, (getattr(mod, cls) if cls else None)


def package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "powerops" or name.startswith("powerops.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.job: str | None = None
        self.pipeline = 0  # open powerop.value spans
        self.stage = 0  # open stage spans
        self._bindings: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _make(self, kind: str, name: str, fn):
        counts = self.counts
        tracer = self
        if kind == "span":
            return self._span(name, fn)
        if kind == "pipeline":
            inner = self._span(name, fn)

            def wrapper(*args, **kwargs):
                tracer.pipeline += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer.pipeline -= 1

            return wrapper
        if kind == "stage":
            inner = self._span(name, fn)

            def wrapper(*args, **kwargs):
                if not tracer.pipeline or tracer.stage:
                    return fn(*args, **kwargs)
                tracer.stage += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer.stage -= 1

            return wrapper
        if kind == "count":

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper
        if kind == "padic_add":

            def wrapper(a, b):
                out = fn(a, b)
                counts[name] += 1
                # two nonzero operands with a zero sum: exact cancellations and
                # cancellations below the precision floor alike
                if out.is_zero_flag and not a.is_zero_flag and not b.is_zero_flag:
                    counts["scalar.add_to_zero"] += 1
                return out

            return wrapper
        if kind == "series_mul":
            inner = self._span(name, fn)

            def wrapper(a, b):
                counts["series.mul.pairs"] += len(a.terms) * len(b.terms)
                before = counts["scalar.coeff_mul.calls"]
                out = inner(a, b)
                # each in-bound term pair costs exactly one coefficient product
                counts["series.mul.products"] += counts["scalar.coeff_mul.calls"] - before
                size = max(len(a.terms), len(b.terms), len(out.terms))
                if size > counts["series.max_terms"]:
                    counts["series.max_terms"] = size
                return out

            return wrapper
        if kind == "dl_mul":
            inner = self._span(name, fn)

            def wrapper(a, b):
                if isinstance(b, int):  # a scalar multiple, not a monomial product
                    return fn(a, b)
                counts["dl.poly_mul.pairs"] += len(a.terms) * len(b.terms)
                return inner(a, b)

            return wrapper
        raise ValueError(f"unknown wrapper kind {kind!r}")

    # -- install and restore ---------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        owners = [resolve(owner) for owner, _, _, _ in WRAPS]
        modules = package_modules()
        for (mod, cls), (_, attr, kind, name) in zip(owners, WRAPS):
            original = getattr(mod, attr) if cls is None else cls.__dict__[attr]
            wrapper = functools.wraps(original)(self._make(kind, name, original))
            setattr(wrapper, _MARK, True)
            if cls is None:
                targets = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
            else:
                targets = [(cls, attr)]
            for owner, key in targets:
                setattr(owner, key, wrapper)
                self._bindings.append((owner, key, original))

    def restore(self) -> None:
        """Put back every original, newest binding first."""
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every span's `.calls`, `.s` (outermost spans of that name only, so
        recursion is not counted twice) and `.self_s` (duration minus its
        children), the counters, the derived ratios, and each layer's share
        of `wall_s` (outermost spans of that layer only)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for _, _, kind, name in WRAPS:  # a layer that never ran reads 0
            if kind in ("count", "padic_add"):
                out[name] = 0
            else:
                out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        for name in ("scalar.add_to_zero", "series.mul.pairs", "series.mul.products", "series.max_terms", "dl.poly_mul.pairs"):
            out[name] = 0
        layer_time: dict[str, float] = defaultdict(float)
        exp_of_built: set[int] = set()
        scalar_series_built: set[int] = set()
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            same_name = same_layer = False
            j = parent
            while j >= 0 and not same_name:  # the same name is the same layer
                other = spans[j][0]
                if other == name:
                    same_name = True
                if other.split(".", 1)[0] == layer:
                    same_layer = True
                j = spans[j][3]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
            if not same_name:
                out[f"{name}.s"] += dur
            if not same_layer:
                layer_time[layer] += dur
            if name == "fgl.exp_build":
                exp_of_built.add(self._nearest(i, "fgl.exp_of"))
            elif name == "fgl.exp_of":
                scalar_series_built.add(self._nearest(i, "fgl.scalar_series"))
        out.update(self.counts)
        exp_of_built.discard(-1)
        scalar_series_built.discard(-1)
        out["fgl.exp_hit_ratio"] = _ratio(out["fgl.exp_of.calls"] - len(exp_of_built), out["fgl.exp_of.calls"])
        out["fgl.scalar_series.hit_ratio"] = _ratio(
            out["fgl.scalar_series.calls"] - len(scalar_series_built), out["fgl.scalar_series.calls"]
        )
        out["series.mul.in_bound_ratio"] = _ratio(out["series.mul.products"], out["series.mul.pairs"])
        out["ff.fields"] = out["ff.field_build.calls"]
        out["reports.self_s"] = out["reports.run_suite.self_s"]
        for layer in LAYERS:
            out[f"share.{layer}"] = _ratio(layer_time[layer], wall_s)
        return dict(out)

    def _nearest(self, i: int, name: str) -> int:
        j = self.spans[i][3]
        while j >= 0 and self.spans[j][0] != name:
            j = self.spans[j][3]
        return j


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def wrapped_names() -> list[tuple[object, str]]:
    """Every (owner, attribute) in the package that currently holds a wrapper."""
    found = []
    for m in package_modules():
        for key, value in vars(m).items():
            if getattr(value, _MARK, False):
                found.append((m, key))
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append((value, attr))
    return found
