"""Dimension-only obstruction tests and blow-up arithmetic.

Everything here is integer arithmetic on cohomology-dimension tables;
no model is needed.  Verdicts are one-sided: a clean run never claims a
formal metric exists.

Note on the Betti bound: the universal torus bound for b_k in complex
dimension n is C(2n, k).  (A printed proof line using "b_2 = 6" for the
6-torus conflicts with C(6,2) = 15; the binomial is what the argument
uses.)
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import comb


class TableError(ValueError):
    """Malformed or inconsistent dimension table."""


def _count(value, what):
    """A dimension from a table: a nonnegative int, else a TableError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TableError("%s is not an integer: %r" % (what, value))
    if value < 0:
        raise TableError("negative %s" % what)
    return value


class DimTable:
    """Optional per-bidegree h_dbar/h_bc/h_a and Betti numbers.

    The h_* attributes are dicts (p, q) -> int (missing means unknown);
    betti is a dict k -> int.
    """

    def __init__(self, n, h_dbar=None, h_bc=None, h_a=None, betti=None):
        if _count(n, "complex dimension") < 1:
            raise TableError("complex dimension must be >= 1")
        self.n = n
        self.h_dbar = self._clean(h_dbar)
        self.h_bc = self._clean(h_bc)
        self.h_a = self._clean(h_a)
        self.betti = {}
        for k, b in (betti or {}).items():
            if b is None:
                continue
            k = int(k)
            if not 0 <= k <= 2 * n:
                raise TableError("Betti index %d is outside 0..%d"
                                 % (k, 2 * n))
            self.betti[k] = _count(b, "Betti number b_%d" % k)
        for label, table in (("h_bc", self.h_bc), ("h_a", self.h_a)):
            for (p, q), v in table.items():
                w = table.get((q, p))
                if w is not None and w != v:
                    raise TableError(
                        "%s symmetry violated at (%d,%d): %d != %d"
                        % (label, p, q, v, w))

    def _clean(self, table):
        out = {}
        for (p, q), v in (table or {}).items():
            if v is None:
                continue
            p, q = int(p), int(q)
            if not (0 <= p <= self.n and 0 <= q <= self.n):
                raise TableError("cell (%d,%d) is outside 0..%d"
                                 % (p, q, self.n))
            out[(p, q)] = _count(v, "entry at (%d,%d)" % (p, q))
        return out

    # -- JSON ----------------------------------------------------------

    def to_json(self):
        def grid(table):
            if not table:
                return None
            return [[table.get((p, q)) for q in range(self.n + 1)]
                    for p in range(self.n + 1)]

        doc = {"n": self.n, "h_dbar": grid(self.h_dbar),
               "h_bc": grid(self.h_bc), "h_a": grid(self.h_a),
               "betti": ([self.betti.get(k) for k in range(2 * self.n + 1)]
                         if self.betti else None)}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise TableError("bad JSON: %s" % e)
        if not isinstance(doc, dict) or "n" not in doc:
            raise TableError("table document needs an 'n' field")

        def ungrid(name):
            grid = doc.get(name)
            if grid is None:
                return None
            if not (isinstance(grid, list)
                    and all(isinstance(row, list) for row in grid)):
                raise TableError("%s is not a list of lists: %r"
                                 % (name, grid))
            return {(p, q): v for p, row in enumerate(grid)
                    for q, v in enumerate(row) if v is not None}

        betti = doc.get("betti")
        if betti is not None:
            if not isinstance(betti, list):
                raise TableError("betti is not a list: %r" % (betti,))
            betti = {k: v for k, v in enumerate(betti) if v is not None}
        return cls(doc["n"], ungrid("h_dbar"), ungrid("h_bc"), ungrid("h_a"),
                   betti)

    @classmethod
    def from_cohomology_table(cls, table):
        """Adapter for calculus.CohomologyTable, which leaves zero cells
        out: every cell 0..n is filled, so a zero stays known."""
        def full(h):
            return {(p, q): h.get((p, q), 0) for p in range(table.n + 1)
                    for q in range(table.n + 1)}
        return cls(table.n, full(table.h_dbar), full(table.h_bc),
                   full(table.h_a), dict(enumerate(table.betti)))


def torus_table(n):
    """h^{p,q} = C(n,p) C(n,q) for every theory; b_k = C(2n,k)."""
    h = {(p, q): comb(n, p) * comb(n, q)
         for p in range(n + 1) for q in range(n + 1)}
    betti = {k: comb(2 * n, k) for k in range(2 * n + 1)}
    return DimTable(n, dict(h), dict(h), dict(h), betti)


class ObstructionReport(namedtuple("ObstructionReport",
                                   ["verdicts", "fired", "skipped"])):
    """verdicts: notion -> "obstructed" | "not_..."; fired: dicts with
    notion/test text; skipped: the names of the tests lacking data."""

    __slots__ = ()

    def __repr__(self):
        return "ObstructionReport(%r)" % (self.verdicts,)


def analyze(t):
    """Fire every applicable inequality test against the table."""
    n = t.n
    fired = []
    skipped = []
    torus = torus_table(n)

    def fire(notion, text):
        fired.append({"notion": notion, "test": text})

    # Dolbeault: torus upper bounds and the product lower bound
    if t.h_dbar:
        for (p, q), v in sorted(t.h_dbar.items()):
            bound = torus.h_dbar.get((p, q), 0)
            if v > bound:
                fire("geom_dolbeault",
                     "h_dbar^{%d,%d} = %d > %d = h^{%d,%d}(torus_%d)"
                     % (p, q, v, bound, p, q, n))
        for (p, q), v in sorted(t.h_dbar.items()):
            if p == 0 or q == 0:
                continue
            lo_p = t.h_dbar.get((p, 0))
            lo_q = t.h_dbar.get((0, q))
            if lo_p is None or lo_q is None:
                continue
            if lo_p * lo_q > v:
                fire("geom_dolbeault",
                     "h_dbar^{%d,0} * h_dbar^{0,%d} = %d > %d = "
                     "h_dbar^{%d,%d}" % (p, q, lo_p * lo_q, v, p, q))
    else:
        skipped.append("dolbeault_bounds")

    # Frolicher-type: b_k <= sum h_dbar over the antidiagonal
    if t.betti and t.h_dbar:
        for k, b in sorted(t.betti.items()):
            cells = [(p, k - p) for p in range(max(0, k - n),
                                               min(n, k) + 1)]
            if all(c in t.h_dbar for c in cells):
                s = sum(t.h_dbar[c] for c in cells)
                if b > s:
                    fire("geom_dolbeault",
                         "b_%d = %d > %d = sum h_dbar^{p,q}, p+q=%d"
                         % (k, b, s, k))
    else:
        skipped.append("frolicher")

    # BC / Aeppli torus bounds
    for label, table, notion in (("h_bc", t.h_bc, "geom_bott_chern"),
                                 ("h_a", t.h_a, "geom_bott_chern")):
        if not table:
            skipped.append("%s_bounds" % label)
            continue
        for (p, q), v in sorted(table.items()):
            bound = torus.h_bc.get((p, q), 0)
            if v > bound:
                fire(notion, "%s^{%d,%d} = %d > %d = h^{%d,%d}(torus_%d)"
                     % (label, p, q, v, bound, p, q, n))

    # 2 b_k <= sum (h_bc + h_a)
    if t.betti and t.h_bc and t.h_a:
        for k, b in sorted(t.betti.items()):
            cells = [(p, k - p) for p in range(max(0, k - n),
                                               min(n, k) + 1)]
            if all(c in t.h_bc and c in t.h_a for c in cells):
                s = sum(t.h_bc[c] + t.h_a[c] for c in cells)
                if 2 * b > s:
                    fire("geom_bott_chern",
                         "2 b_%d = %d > %d = sum (h_bc + h_a), p+q=%d"
                         % (k, 2 * b, s, k))
    else:
        skipped.append("bc_aeppli_frolicher")

    # Riemannian geometric formality: b_k <= C(2n, k)
    if t.betti:
        for k, b in sorted(t.betti.items()):
            bound = comb(2 * n, k)
            if b > bound:
                fire("geom_riemannian",
                     "b_%d = %d > %d = b_%d(torus_%d_real)"
                     % (k, b, bound, k, 2 * n))
    else:
        skipped.append("betti_bounds")

    notions = ("geom_dolbeault", "geom_bott_chern", "geom_riemannian")
    verdicts = {}
    for notion in notions:
        hit = any(f["notion"] == notion for f in fired)
        verdicts[notion] = "obstructed" if hit \
            else "not_obstructed_by_these_tests"
    return ObstructionReport(verdicts, fired, skipped)


def blowup_derham(base, center, codim):
    """Betti numbers after blowing up along a center of the given
    codimension: b_j += sum_{i=1..codim-1} b_{j-2i}(center)."""
    if codim < 2:
        raise TableError("blow-up codimension must be >= 2")
    if center.n != base.n - codim:
        raise TableError("center dimension %d != %d - %d"
                         % (center.n, base.n, codim))
    if not base.betti:
        raise TableError("base table has no Betti numbers")
    betti = dict(base.betti)
    for j in range(2 * base.n + 1):
        gain = 0
        for i in range(1, codim):
            gain += center.betti.get(j - 2 * i, 0)
        if gain:
            betti[j] = betti.get(j, 0) + gain
    return DimTable(base.n, dict(base.h_dbar), dict(base.h_bc),
                    dict(base.h_a), betti)


def blowup_bc_threefold_curve(base, center_hodge):
    """BC dimensions after blowing up a threefold along a smooth curve:
    h_bc^{p,q} += h_dbar^{p-1,q-1}(curve)."""
    if base.n != 3:
        raise TableError("base must be a threefold")
    if center_hodge.n != 1:
        raise TableError("center must be a curve table")
    if not base.h_bc:
        raise TableError("base table has no h_bc data")
    h_bc = dict(base.h_bc)
    for (p, q), v in center_hodge.h_dbar.items():
        key = (p + 1, q + 1)
        h_bc[key] = h_bc.get(key, 0) + v
    return DimTable(base.n, dict(base.h_dbar), h_bc, dict(base.h_a),
                    dict(base.betti))


def rational_curve_table():
    """Hodge/Betti data of P^1: h^{0,0} = h^{1,1} = 1."""
    h = {(0, 0): 1, (1, 1): 1}
    return DimTable(1, dict(h), dict(h), dict(h), {0: 1, 1: 0, 2: 1})
