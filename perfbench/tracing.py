"""Span tracing from outside the program, and the per-layer metrics built from it.

Spans are recorded by wrapping the public functions of each nctorus layer
wherever that function is bound: ``models`` imports ``mul`` by name, so
patching ``algebra.mul`` alone would miss every product the models make.  A
span is ``[name, start, end, parent, attrs]``, kept in memory and written
out once the run ends.  A layer's self time is its spans' durations minus
the durations of their direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
from contextlib import contextmanager
from time import thread_time

# Products with more than this many term pairs leave the mul_reference path.
SMALL_PAIRS = 512

COEFFWISE = ("add", "sub", "scale", "adjoint", "delta", "laplacian", "truncate", "prune")
HEISENBERG = {
    "inner_A": "heisenberg.inner_A",
    "inner_B": "heisenberg.inner_B",
    "act_left": "heisenberg.act",
    "act_right": "heisenberg.act",
    "invert_positive_with_stats": "heisenberg.invert",
    "build_instanton": "heisenberg.pipeline",
}
# The models functionals the workloads call; any other public models
# function is traced and folded into models.other.
MODELS = (
    "projection_defect", "unitary_defect", "ising_energy", "ising_el_residual",
    "chern_number", "duality_residuals", "self_duality_residual", "chiral_energy",
    "chiral_residual", "harmonic_from_projection", "first_variation_check",
    "chiral_variation_pairing", "solve_constraint_for_B", "endo_el_pairing",
    "solve_su2_constraint_for_B", "su2_el_pairing",
)
SUITES = ("algebra", "module", "models", "symmetry")
ROOT = "result"
MUL_NAMES = ("algebra.mul_large", "algebra.mul_small")

NAME, START, END, PARENT, ATTRS = range(5)
# Span and result times are CPU seconds of the calling thread; see run.py.
CLOCK = thread_time


class Tracer:
    """Collects spans; each wrapper appends one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict) -> list:
        span = [name, CLOCK(), 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = CLOCK()
        self._stack.pop()

    def wrap(self, fn, name, before=None, after=None):
        """A traced stand-in for fn.

        name is a string or a function of the call arguments; before(args)
        and after(result) return attributes stored on the span.
        """
        def traced(*args, **kwargs):
            attrs = before(args) if before else {}
            span = self._open(name(args) if callable(name) else name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                attrs.update(after(out))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around code of the benchmark itself, such as one result."""
        s = self._open(name, {})
        try:
            yield
        finally:
            self._close(s)

    def in_mul(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][NAME] in MUL_NAMES

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, **attrs}) + "\n")


def _pairs(args) -> dict:
    return {"pairs": len(args[0].coeffs) * len(args[1].coeffs)}


def _mul_name(args) -> str:
    return "algebra.mul_large" if _pairs(args)["pairs"] > SMALL_PAIRS else "algebra.mul_small"


def _out_terms(out) -> dict:
    return {"out_terms": len(out.coeffs)}


def _box(out) -> dict:
    return {"box": max((max(abs(m), abs(n)) for m, n in out.coeffs), default=0)}


def _invert_stats(out) -> dict:
    return {"iterations": out[2], "seed": out[3]}


def _wrappers(tracer: Tracer, nct) -> dict:
    """Map each traced original function to its traced stand-in."""
    al, hb, md, sym = nct.algebra, nct.heisenberg, nct.models, nct.symmetry
    out = {
        al.mul: tracer.wrap(al.mul, _mul_name, _pairs, _out_terms),
        al.exp_i: tracer.wrap(al.exp_i, "algebra.exp_i", after=_out_terms),
        nct.cli.main: tracer.wrap(nct.cli.main, "cli"),
    }
    traced_ref = tracer.wrap(al.mul_reference, "algebra.mul_small", _pairs, _out_terms)

    def mul_reference(*args, **kwargs):
        # mul delegates small products here; that call is already one mul span
        if tracer.in_mul():
            return traced_ref.__wrapped__(*args, **kwargs)
        return traced_ref(*args, **kwargs)

    out[al.mul_reference] = mul_reference
    for name in COEFFWISE:
        fn = getattr(al, name)
        out[fn] = tracer.wrap(fn, "algebra.coeffwise")
    for name, span in HEISENBERG.items():
        fn = getattr(hb, name)
        after = {"inner_B": _box, "invert_positive_with_stats": _invert_stats}.get(name)
        out[fn] = tracer.wrap(fn, span, after=after)
    for module, prefix in ((md, "models."), (sym, "symmetry.")):
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                out[fn] = tracer.wrap(fn, prefix + name)
    return out


@contextmanager
def traced(tracer: Tracer):
    """Bind the traced stand-ins in every nctorus module for the duration."""
    import nctorus as nct

    wrappers = _wrappers(tracer, nct)
    by_id = {id(fn): w for fn, w in wrappers.items()}
    patched = []
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "nctorus" or name.startswith("nctorus."))]
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in by_id:
                patched.append((module, name, value))
                setattr(module, name, by_id[id(value)])
    suites = nct.suites.SUITES
    saved_suites = dict(suites)
    for name, fn in saved_suites.items():
        suites[name] = tracer.wrap(fn, f"cli.suite.{name}")
    try:
        yield tracer
    finally:
        suites.update(saved_suites)
        for module, name, value in patched:
            setattr(module, name, value)


# ------------------------------------------------------------------ arithmetic


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def has_ancestor(spans: list[list], i: int, pred) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p][NAME]):
            return True
        p = spans[p][PARENT]
    return False


def layer_of(name: str) -> str:
    """The per-layer bucket a span's self time is reported under."""
    if name == ROOT:
        return "bench"
    if name == "cli" or name.startswith("cli.suite."):
        return "cli"
    if name.startswith("symmetry."):
        return "symmetry"
    if name.startswith("models."):
        fn = name[len("models."):]
        return name if fn in MODELS else "models.other"
    return name


def layer_names() -> list[str]:
    """Every bucket layer_of can return, in report order."""
    return (["algebra.mul_large", "algebra.mul_small", "algebra.exp_i", "algebra.coeffwise",
             "heisenberg.inner_B", "heisenberg.invert", "heisenberg.act",
             "heisenberg.inner_A", "heisenberg.pipeline"]
            + [f"models.{fn}" for fn in MODELS]
            + ["models.other", "symmetry", "cli", "bench"])


def per_layer(spans: list[list], results: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts per result (box and iterations per call),
    and self time as a share of the traced wall time, which is the summed
    duration of the root spans."""
    own = self_times(spans)
    wall = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    self_by_layer = dict.fromkeys(layer_names(), 0.0)
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    samples: dict[str, int] = {}  # spans carrying each attribute; a raising call has none
    suite_total = dict.fromkeys(SUITES, 0.0)
    models_mul = symmetry_mul = exp_orders = l1_seeds = 0
    in_models = lambda n: n.startswith("models.")
    in_symmetry = lambda n: n.startswith("symmetry.")
    in_exp = lambda n: n == "algebra.exp_i"
    for i, span in enumerate(spans):
        name, attrs = span[NAME], span[ATTRS]
        self_by_layer[layer_of(name)] += own[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in attrs.items():
            if key != "seed":
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
                samples[f"{name}.{key}"] = samples.get(f"{name}.{key}", 0) + 1
        if name.startswith("cli.suite."):
            suite_total[name[len("cli.suite."):]] += span[END] - span[START]
        if name in MUL_NAMES:
            models_mul += has_ancestor(spans, i, in_models)
            symmetry_mul += has_ancestor(spans, i, in_symmetry)
            exp_orders += has_ancestor(spans, i, in_exp)
        if name == "heisenberg.invert" and attrs.get("seed") == "l1":
            l1_seeds += 1

    n = max(results, 1)
    out: dict[str, tuple[float, str]] = {}

    def count(key, value):
        out[key] = (value / n, "count")

    def mean(key):
        out[key] = (sums.get(key, 0) / max(samples.get(key, 0), 1), "count")

    for layer in ("algebra.mul_large", "algebra.mul_small"):
        count(f"{layer}.calls", calls.get(layer, 0))
        count(f"{layer}.pairs", sums.get(f"{layer}.pairs", 0))
    count("algebra.mul_large.out_terms", sums.get("algebra.mul_large.out_terms", 0))
    count("algebra.exp_i.calls", calls.get("algebra.exp_i", 0))
    count("algebra.exp_i.orders", exp_orders)
    count("algebra.exp_i.out_terms", sums.get("algebra.exp_i.out_terms", 0))
    count("algebra.coeffwise.calls", calls.get("algebra.coeffwise", 0))
    count("heisenberg.inner_B.calls", calls.get("heisenberg.inner_B", 0))
    mean("heisenberg.inner_B.box")
    count("heisenberg.invert.calls", calls.get("heisenberg.invert", 0))
    mean("heisenberg.invert.iterations")
    count("heisenberg.invert.l1_seed", l1_seeds)
    count("heisenberg.inner_A.calls", calls.get("heisenberg.inner_A", 0))
    count("models.mul_calls", models_mul)
    count("symmetry.mul_calls", symmetry_mul)
    for layer, seconds in self_by_layer.items():
        out[f"{layer}.self_pct"] = (100.0 * seconds / wall if wall else 0.0, "%")
    for suite, seconds in suite_total.items():
        out[f"cli.suite.{suite}.total_pct"] = (100.0 * seconds / wall if wall else 0.0, "%")
    return out
