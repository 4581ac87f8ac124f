"""Span tracer that measures envtheory's layers from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper under
every name an ``envtheory`` module binds it to (``solver_nplus1``, for
example, imports ``solve_et`` and ``find_roots`` by name), and wraps the law
constructors of ``envtheory.laws`` so that the ``value``, ``d1`` and ``d2``
calls of every law built afterwards are counted.  ``uninstall`` puts every
original back.  Spans (name, start, end, parent, error) are kept in memory;
self times and per-layer metrics are derived from them afterwards.

Wrappers only observe: they pass arguments and results through unchanged.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
from collections import Counter
from time import perf_counter

# Traced public functions, by home module.  Layers are the modules.
TRACED = {
    "rootscan": ("find_roots",),
    "solver_identical": ("solve_et", "solve_iet", "dosm_identical", "phi_identical",
                         "power_law_energy"),
    "solver_nplus1": ("solve_et_np1", "solve_iet_np1", "dosm_np1", "phi_pair",
                      "atom_report", "solve_atom"),
    "coupled_osc": ("normal_modes", "level"),
    "qnum": ("fgs_fill", "fgs_closed", "fgs_approx"),
    "critical": ("u_star", "critical_g"),
    "repro": ("run_table", "run_all"),
    "cli": ("main",),
}
LAW_CONSTRUCTORS = ("power", "kinetic_power", "potential_power", "coulomb", "harmonic",
                    "gaussian_well", "exponential_well", "make_weighted_sum", "custom")
# Error classes reported one by one for solver_nplus1; the rest are "other".
NP1_ERRORS = ("NonConvergenceError", "UnstableOrbitalError", "NoBindingError")

NAME, START, END, PARENT, ERROR = range(5)


class Tracer:
    """Spans and counts of one traced section."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.law_evals: Counter = Counter()  # by the innermost span's name
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()  # (layer, error class) at the first layer raising
        self._raised: dict[int, BaseException] = {}  # kept alive so ids stay unique
        self._law_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "envtheory" or name.startswith("envtheory.")]
        for home, names in TRACED.items():
            module = sys.modules[f"envtheory.{home}"]
            for name in names:
                original = getattr(module, name)
                wrap = self._find_roots if name == "find_roots" else self._span
                self._patch(modules, original, wrap(f"{home}.{name}", original))
        laws = sys.modules["envtheory.laws"]
        for name in LAW_CONSTRUCTORS:
            original = getattr(laws, name)
            self._patch(modules, original, self._constructor(original))

    def _patch(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @property
    def patched(self) -> int:
        return len(self._patches)

    # ------------------------------------------------------------ wrappers

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list, exc: BaseException | None = None) -> None:
        span[END] = perf_counter()
        self.stack.pop()
        if exc is not None:
            span[ERROR] = type(exc).__name__
            if id(exc) not in self._raised:
                self._raised[id(exc)] = exc
                self.failures[(span[NAME].split(".")[0], type(exc).__name__)] += 1

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span)
            if name == "solver_nplus1.solve_et_np1":
                self.counts["np1_iterations"] += result.iterations
                self.counts["np1_n_roots"] += result.n_roots
            return result
        traced.__wrapped__ = fn
        return traced

    def _find_roots(self, name: str, fn):
        """find_roots, also counting the scan's evaluations of its function."""
        counts = self.counts

        def traced(f, *args, **kwargs):
            def counted(x):
                counts["scan_evals"] += 1
                return f(x)
            return span_call(counted, *args, **kwargs)

        span_call = self._span(name, fn)
        traced.__wrapped__ = fn
        return traced

    def op(self, fn):
        """Wrap a benchmark operation runner as the root span of each call."""
        return self._span("op", fn)

    def _constructor(self, fn):
        def construct(*args, **kwargs):
            law = fn(*args, **kwargs)
            if getattr(law.value, "counted", False):
                return law
            return dataclasses.replace(law, value=self._counted(law.value),
                                       d1=self._counted(law.d1), d2=self._counted(law.d2))
        construct.__wrapped__ = fn
        return construct

    def _counted(self, fn):
        """Count calls made from outside any law, so a sum's members are not counted."""
        def counted(x):
            if self._law_depth:
                return fn(x)
            self._law_depth = 1
            try:
                self.law_evals[self.spans[self.stack[-1]][NAME] if self.stack else "op"] += 1
                return fn(x)
            finally:
                self._law_depth = 0
        counted.counted = True
        return counted

    # ------------------------------------------------------------- metrics

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def _ancestor(self, index: int, name: str) -> int:
        parent = self.spans[index][PARENT]
        while parent >= 0 and self.spans[parent][NAME] != name:
            parent = self.spans[parent][PARENT]
        return parent

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as name -> (value, unit)."""
        spans = self.spans
        self_times = self._self_times()
        calls = Counter(s[NAME] for s in spans)

        def total_ms(name: str, times=None) -> float:
            return 1e3 * sum((times[i] if times else s[END] - s[START])
                             for i, s in enumerate(spans) if s[NAME] == name)

        def layer_self_ms(layer: str) -> float:
            return 1e3 * sum(t for s, t in zip(spans, self_times)
                             if s[NAME].startswith(layer + "."))

        scans = calls["rootscan.find_roots"]
        no_root = sum(1 for s in spans if s[NAME] == "rootscan.find_roots" and s[ERROR])
        # Improved-method atom reports are those that ran solve_iet_np1.
        fills: Counter = Counter()
        iet_atoms = set()
        for i, s in enumerate(spans):
            if s[NAME] in ("qnum.fgs_fill", "solver_nplus1.solve_iet_np1"):
                atom = self._ancestor(i, "solver_nplus1.atom_report")
                if atom >= 0:
                    if s[NAME] == "qnum.fgs_fill":
                        fills[atom] += 1
                    else:
                        iet_atoms.add(atom)
        fill_rounds = (statistics.fmean(fills[a] - 1 for a in iet_atoms)
                       if iet_atoms else 0.0)
        law_evals = sum(self.law_evals.values())
        np1_failures = {cls: n for (layer, cls), n in self.failures.items()
                        if layer == "solver_nplus1"}
        out = {
            "rootscan.calls": (scans, "count"),
            "rootscan.evals": (self.counts["scan_evals"], "count"),
            "rootscan.no_root_calls": (no_root, "count"),
            "rootscan.hit_ratio": ((scans - no_root) / scans if scans else 0.0, "ratio"),
            "rootscan.self_ms": (layer_self_ms("rootscan"), "ms"),
            "laws.evals": (law_evals, "count"),
            "laws.evals_per_op": (law_evals / n_ops if n_ops else 0.0, "count"),
            "solver_identical.solve_et_calls": (calls["solver_identical.solve_et"], "count"),
            "solver_identical.self_ms": (layer_self_ms("solver_identical"), "ms"),
            "solver_identical.dosm_calls": (calls["solver_identical.dosm_identical"], "count"),
            "solver_nplus1.calls": (calls["solver_nplus1.solve_et_np1"], "count"),
            "solver_nplus1.newton_ms": (total_ms("solver_nplus1.solve_et_np1", self_times), "ms"),
            "solver_nplus1.newton_law_evals": (self.law_evals["solver_nplus1.solve_et_np1"],
                                               "count"),
            "solver_nplus1.iterations": (self.counts["np1_iterations"], "count"),
            "solver_nplus1.n_roots": (self.counts["np1_n_roots"], "count"),
            "solver_nplus1.dosm_calls": (calls["solver_nplus1.dosm_np1"], "count"),
            "solver_nplus1.fill_rounds": (fill_rounds, "count"),
            "coupled_osc.normal_modes_calls": (calls["coupled_osc.normal_modes"], "count"),
            "qnum.fgs_fill_calls": (calls["qnum.fgs_fill"], "count"),
            "qnum.fgs_fill_ms": (total_ms("qnum.fgs_fill"), "ms"),
            "critical.u_star_ms": (total_ms("critical.u_star"), "ms"),
        }
        for cls in NP1_ERRORS:
            out[f"solver_nplus1.failures.{cls}"] = (np1_failures.pop(cls, 0), "count")
        out["solver_nplus1.failures.other"] = (sum(np1_failures.values()), "count")
        return out
