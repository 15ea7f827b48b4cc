"""Per-layer tracing by wrapping the public functions of ``sepfem``.

``Tracer.install(problem)`` replaces each traced function, in every
module namespace that calls it, with a wrapper that records a span:
its name, start, end, the span it was called from, and the adaptive
level it ran in.  A new level starts with each call of
``problem.solve``.  Spans stay in memory; ``summary`` reduces them to
self times (duration minus the time covered by nested spans) and
counts, per level and in total.  Only a traced round installs the
wrappers; a timed round runs the program untouched.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# the span (self-time metric) name of each wrapped callable, and the
# module namespaces it is looked up from at call time
LAYERS = (
    ("mesh.refine_s", "mesh", "Triangulation.refine"),
    ("mesh.complete_partition_s", "mesh marking", "complete_partition"),
    ("mesh.overlay_s", "mesh", "Triangulation.overlay"),
    ("mesh.refines_s", "mesh", "Triangulation.refines"),
    ("edges.connectivity_s", "edges", "Connectivity.__init__"),
    ("edges.prolong_rt0_s", "edges mixed_fem", "prolong_rt0"),
    ("sparse_direct.ordering_s", "sparse_direct", "nested_dissection"),
    ("sparse_direct.factor_solve_s", "sparse_direct mixed_fem ls_fem", "solve_spd"),
    ("mixed_fem.assemble_s", "mixed_fem", "assemble_mixed"),
    ("mixed_fem.recover_s", "mixed_fem", "solve_mixed"),
    ("mixed_fem.eta_s", "mixed_fem", "eta_mixed"),
    ("mixed_fem.delta_s", "mixed_fem", "delta_mixed"),
    ("ls_fem.assemble_s", "ls_fem", "assemble_ls"),
    ("ls_fem.solve_s", "ls_fem", "solve_ls"),
    ("ls_fem.functional_s", "ls_fem", "ls_functional"),
    ("ls_fem.eta_s", "ls_fem", "eta_ls"),
    ("marking.approx_s", "marking", "ApproxState.run"),
    ("marking.mu_s", "marking", "ElementOscillation.mesh_values2"),
    ("marking.doerfler_s", "marking driver", "doerfler_select"),
    ("quadrature.s", "driver mixed_fem ls_fem marking", "integrate_many"),
    ("quadrature.s", "marking", "mu2_elements"),
)

COUNTS = (
    "mesh.refine_calls",
    "mesh.bisections",
    "sparse_direct.unknowns",
    "sparse_direct.lu_nnz",
    "marking.approx_bisections",
    "marking.marked",
    "quadrature.calls",
)


class Tracer:
    def __init__(self):
        # one span per call: [name, start, end, parent index, level]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.level = -1
        self.level_starts: list[float] = []
        self.level_elements: list[int] = []
        self.counts = defaultdict(lambda: defaultdict(int))  # level -> name -> count

    # -- recording ----------------------------------------------------------

    def count(self, name, value):
        self.counts[self.level][name] += int(value)

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            state = before(*args) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.level]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(state, args, out)
            return out

        return traced

    def install(self, problem):
        """Wrap the program's public functions and ``problem.solve``.

        A function the program no longer has is skipped with a note on
        standard error, so its self time reads 0 and its work shows in
        its caller.
        """
        for name, modules, attr in LAYERS:
            owner_name, _, fn_name = attr.rpartition(".")
            for mod_name in modules.split():
                try:
                    mod = importlib.import_module(f"sepfem.{mod_name}")
                except ModuleNotFoundError:
                    mod = None
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = getattr(owner, fn_name, None)
                if fn is None:
                    print(f"trace: sepfem.{mod_name}.{attr} not found", file=sys.stderr)
                    continue
                setattr(owner, fn_name, self.wrap(name, fn, *self._hooks(name)))

        sd = importlib.import_module("sepfem.sparse_direct")
        if hasattr(sd, "spla"):
            self._count_lu_entries(sd)
        else:
            print("trace: sepfem.sparse_direct.spla not found", file=sys.stderr)

        solve = problem.solve

        def level_solve(T):
            self.level += 1
            self.level_starts.append(time.perf_counter())
            self.level_elements.append(T.n_elements)
            return solve(T)

        problem.solve = level_solve

    def _count_lu_entries(self, sd):
        """Count the entries of every SuperLU factor ``solve_spd`` makes.

        The factor object never leaves ``solve_spd``, so its size is read
        through a stand-in for the module's scipy.sparse.linalg handle.
        """
        real = sd.spla

        def splu(*args, **kwargs):
            lu = real.splu(*args, **kwargs)
            self.count("sparse_direct.lu_nnz", lu.nnz)
            return lu

        class Linalg:
            def __getattr__(self, attr):
                return getattr(real, attr)

        sd.spla = Linalg()
        sd.spla.splu = splu

    def _hooks(self, name):
        if name == "mesh.refine_s":
            def before(T, *_):
                return T.forest.n_nodes

            def after(n0, args, out):
                self.count("mesh.refine_calls", 1)
                self.count("mesh.bisections", (args[0].forest.n_nodes - n0) // 2)

            return before, after
        if name == "sparse_direct.factor_solve_s":
            return None, lambda _s, args, _o: self.count("sparse_direct.unknowns", args[0].shape[0])
        if name == "marking.approx_s":
            def before(state, *_):
                return len(state.partition)

            return before, lambda n0, args, _o: self.count(
                "marking.approx_bisections", len(args[0].partition) - n0
            )
        if name == "marking.doerfler_s":
            return None, lambda _s, _a, out: self.count("marking.marked", len(out))
        if name == "quadrature.s":
            return None, lambda _s, _a, _o: self.count("quadrature.calls", 1)
        return None, None

    # -- reduction ----------------------------------------------------------

    def summary(self, run_start, run_end):
        """Per-level and total self times, counts and the driver's remainder.

        Returns ``(levels, totals)``: a list of one dict per level and one
        dict with the same keys summed over the run.  ``driver.self_s``
        is the part of the run covered by no span, so the self times and
        it add up to the run's duration.
        """
        names = sorted({n for n, _, _ in LAYERS})
        nested = [0.0] * len(self.spans)
        for name, start, end, parent, level in self.spans:
            if parent >= 0:
                nested[parent] += end - start
        n_levels = self.level + 1
        self_s = [dict.fromkeys(names, 0.0) for _ in range(n_levels)]
        top = [0.0] * n_levels
        for i, (name, start, end, parent, level) in enumerate(self.spans):
            self_s[level][name] += end - start - nested[i]
            if parent < 0:
                top[level] += end - start
        bounds = self.level_starts + [run_end]
        bounds[0] = run_start
        levels = []
        for k in range(n_levels):
            seconds = bounds[k + 1] - bounds[k]
            row = {"level": k, "elements": self.level_elements[k], "seconds": seconds}
            row.update(self_s[k])
            row.update({c: self.counts[k].get(c, 0) for c in COUNTS})
            row["driver.self_s"] = seconds - top[k]
            levels.append(row)
        totals = {"seconds": run_end - run_start}
        for key in levels[0]:
            if key not in ("level", "elements", "seconds"):
                totals[key] = sum(row[key] for row in levels)
        totals["driver.levels"] = n_levels
        totals["driver.elements_total"] = sum(self.level_elements)
        return levels, totals
