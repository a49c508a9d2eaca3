"""Per-layer spans and counters, installed on hermform from outside.

`install(tracer)` replaces the public functions and methods of each
layer with wrappers.  A wrapper does nothing but call through while
`tracer.active` is false, so checks and input generation stay out of
the figures.  A module-level function is replaced on every hermform
module that binds it (`calculus` imports `kernel_basis` and `solve`
with `from .linalg import ...`), and a method on its class.

Spans are kept in flat arrays (name, parent, start, end, time covered
by child spans) and summarised per round; the first round's spans are
written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import weakref
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("scalars.created", "count"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.kernel_basis.cells", "count"),
    ("linalg.kernel_basis.self_s", "s"),
    ("linalg.Subspace.calls", "count"),
    ("linalg.Subspace.cells", "count"),
    ("linalg.Subspace.self_s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.orthogonal_project.calls", "count"),
    ("linalg.orthogonal_project.self_s", "s"),
    ("linalg.inner.calls", "count"),
    ("linalg.min_norm_solve.calls", "count"),
    ("linalg.min_norm_solve.self_s", "s"),
    ("model.wedge.calls", "count"),
    ("model.wedge.self_s", "s"),
    ("calculus.apply_derivation.calls", "count"),
    ("calculus.apply_derivation.self_s", "s"),
    ("calculus.star.calls", "count"),
    ("calculus.matrix.calls", "count"),
    ("calculus.matrix.builds", "count"),
    ("calculus.harmonic_space.calls", "count"),
    ("calculus.harmonic_space.builds", "count"),
    ("calculus.harmonic_space.self_s", "s"),
    ("calculus.de_rham_harmonic.calls", "count"),
    ("calculus.de_rham_harmonic.self_s", "s"),
    ("calculus.cohomology_dim.calls", "count"),
    ("calculus.cohomology_dim.self_s", "s"),
    ("calculus.is_harmonic.calls", "count"),
    ("calculus.is_harmonic.self_s", "s"),
    ("calculus.class_of.calls", "count"),
    ("calculus.class_of.self_s", "s"),
    ("calculus.engine_init.self_s", "s"),
    ("catalog.load.self_s", "s"),
    ("formality.check_formality.calls", "count"),
    ("formality.check_formality.self_s", "s"),
    ("formality.products_tested", "count"),
    ("massey.triple_abc_massey.calls", "count"),
    ("massey.triple_abc_massey.self_s", "s"),
    ("massey.solve_potential.calls", "count"),
    ("massey.solve_potential.self_s", "s"),
    ("calculus.star_per_is_harmonic", "ratio"),
    ("calculus.harmonic_space.builds_per_call", "ratio"),
)

# Waste ratios: name -> (numerator, denominator); 0 when nothing is counted.
RATIOS = {
    "calculus.star_per_is_harmonic":
        ("calculus.star.calls", "calculus.is_harmonic.calls"),
    "calculus.harmonic_space.builds_per_call":
        ("calculus.harmonic_space.builds", "calculus.harmonic_space.calls"),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self._ids = {}
        self.new_round()

    def new_round(self):
        self.counts = Counter()
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_outer = array("b")  # no enclosing span of the same name
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_child = array("d")
        self.stack = []
        self._depth = Counter()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        stack = self.stack
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(stack[-1] if stack else -1)
        self.sp_outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self.sp_child.append(0.0)
        self.sp_end.append(0.0)
        stack.append(idx)
        self.sp_start.append(perf_counter())
        return idx

    def close(self, idx):
        end = perf_counter()
        self.stack.pop()
        self.sp_end[idx] = end
        self._depth[self.sp_name[idx]] -= 1
        parent = self.sp_parent[idx]
        if parent >= 0:
            self.sp_child[parent] += end - self.sp_start[idx]

    def parent_is(self, nid):
        return bool(self.stack) and self.sp_name[self.stack[-1]] == nid

    def summary(self):
        """Counts, self time per span name, and for each op phase the
        share of its time spent inside each span name."""
        self_s = defaultdict(float)
        phase_total = defaultdict(float)
        inside = defaultdict(lambda: defaultdict(float))
        phase_of = array("i")
        for i, nid in enumerate(self.sp_name):
            name = self.names[nid]
            dur = self.sp_end[i] - self.sp_start[i]
            self_s[name] += dur - self.sp_child[i]
            parent = self.sp_parent[i]
            if name.startswith("op:"):
                phase_of.append(nid)
                phase_total[name[3:]] += dur
                continue
            phase_of.append(phase_of[parent] if parent >= 0 else -1)
            ph = phase_of[i]
            if ph >= 0 and self.sp_outer[i]:
                inside[self.names[ph][3:]][name] += dur
        shares = {ph: {name: t / phase_total[ph]
                       for name, t in sorted(inside[ph].items(),
                                             key=lambda kv: -kv[1])}
                  for ph in phase_total}
        return dict(self.counts), dict(self_s), shares

    def spans(self):
        return self.sp_name, self.sp_parent, self.sp_start, self.sp_end

    def write_spans(self, path, spans):
        """One line per span: name, parent index, start and end in seconds
        from the first span's start."""
        names, parents, starts, ends = spans
        t0 = starts[0] if starts else 0.0
        with open(path, "w") as out:
            out.write("name\tparent\tstart_s\tend_s\n")
            for nid, parent, s, e in zip(names, parents, starts, ends):
                out.write("%s\t%d\t%.9f\t%.9f\n"
                          % (self.names[nid], parent, s - t0, e - t0))


def layer_metrics(rounds):
    """Per-layer metrics from per-round summaries: counts of the first
    round (every round repeats the same work), self times as medians."""
    counts, _, _ = rounds[0]
    out = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            value = statistics.median(r[1].get(name[:-len(".self_s")], 0.0)
                                      for r in rounds)
        elif unit == "ratio":
            num, den = RATIOS[name]
            value = counts.get(num, 0) / counts[den] if counts.get(den) \
                else 0.0
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# -- installation ----------------------------------------------------------

def _rebind(fn, wrapper):
    """Put wrapper in place of fn on every hermform module binding it."""
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "hermform" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)


def _wrap(tracer, name, fn, span=True, extra=None):
    """Count calls of fn as `name.calls`; time them as span `name`.
    extra(args) runs before the call and may add counts."""
    nid = tracer.name_id(name)
    calls = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.counts[calls] += 1
        if extra is not None:
            extra(args)
        if not span:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _builds(tracer, name):
    """Count the first call per engine and key as `name.builds`."""
    seen = weakref.WeakKeyDictionary()
    key = name + ".builds"

    def extra(args):
        engine, k = args[0], args[1:]
        keys = seen.setdefault(engine, set())
        if k not in keys:
            keys.add(k)
            tracer.counts[key] += 1
    return extra


def install(tracer):
    from hermform import calculus, catalog, formality, linalg, massey, model
    from hermform.scalars import GaussianRational

    def cells(name, size):
        key = name + ".cells"

        def extra(args):
            tracer.counts[key] += size(args)
        return extra

    for mod, attr, extra in (
            (linalg, "kernel_basis",
             cells("linalg.kernel_basis", lambda a: a[0].rows * a[0].cols)),
            (linalg, "solve", None),
            (linalg, "orthogonal_project", None),
            (linalg, "min_norm_solve", None),
            (calculus, "apply_derivation", None),
            (formality, "check_formality", None),
            (massey, "triple_abc_massey", None),
            (massey, "solve_potential", None)):
        fn = getattr(mod, attr)
        name = "%s.%s" % (mod.__name__.split(".")[-1], attr)
        _rebind(fn, _wrap(tracer, name, fn, extra=extra))
    _rebind(linalg.inner, _wrap(tracer, "linalg.inner", linalg.inner,
                                span=False))
    # load() reaches load_with_action through the module global
    _rebind(catalog.load_with_action,
            _wrap(tracer, "catalog.load", catalog.load_with_action))

    products = tracer.name_id("formality.check_formality")

    def tested(args):
        if tracer.parent_is(products):
            tracer.counts["formality.products_tested"] += 1

    def subspace_cells(args):
        ambient = args[1]
        vectors = args[2] if len(args) > 2 else ()
        tracer.counts["linalg.Subspace.cells"] += ambient * len(vectors)

    engine = calculus.HodgeEngine
    for cls, attr, name, span, extra in (
            (linalg.Subspace, "__init__", "linalg.Subspace", True,
             subspace_cells),
            (linalg.Matrix, "rank", "linalg.rank", True, None),
            (model.Form, "wedge", "model.wedge", True, tested),
            (engine, "__init__", "calculus.engine_init", True, None),
            (engine, "star", "calculus.star", False, None),
            (engine, "matrix", "calculus.matrix", False,
             _builds(tracer, "calculus.matrix")),
            (engine, "harmonic_space", "calculus.harmonic_space", True,
             _builds(tracer, "calculus.harmonic_space")),
            (engine, "de_rham_harmonic", "calculus.de_rham_harmonic", True,
             None),
            (engine, "cohomology_dim", "calculus.cohomology_dim", True, None),
            (engine, "is_harmonic", "calculus.is_harmonic", True, None),
            (engine, "class_of", "calculus.class_of", True, None)):
        setattr(cls, attr, _wrap(tracer, name, getattr(cls, attr),
                                 span=span, extra=extra))

    init = GaussianRational.__init__

    def counted_init(self, re=0, im=0):
        if tracer.active:
            tracer.counts["scalars.created"] += 1
        init(self, re, im)
    GaussianRational.__init__ = counted_init
