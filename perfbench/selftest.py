"""Self-test of the benchmark's checkers.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Each checker first gets a real result from a small model and must accept
it; then it gets the same result with one fault put in (a flipped
verdict, a dimension off by one, a class moved outside the
indeterminacy) and must reject it.  Exits 1 if any checker is fooled.
"""

from __future__ import annotations

import copy
import os
import random
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hermform.formality import FormalityReport  # noqa: E402
from hermform.massey import MasseyVerdict  # noqa: E402

import workloads  # noqa: E402


def flip(reports, notion):
    out = dict(reports)
    r = reports[notion]
    out[notion] = FormalityReport(notion, not r.verdict, r.witness,
                                  r.sub_verdicts)
    return out


def main():
    results = []

    def expect(label, failures, should_fail):
        ok = bool(failures) == should_fail
        results.append(ok)
        print("%s  %s%s" % ("ok  " if ok else "FAIL", label,
                            " -> %s" % failures[0] if failures else ""))

    # tables: dimensions off by one
    op = workloads.TablesOp("iwasawa", None)
    table, harmonic, de_rham = op.run()
    expect("tables: true iwasawa table", op.check((table, harmonic,
                                                   de_rham)), False)
    for label, bump in (("h_dbar(1,1) + 1", "h_dbar"),
                        ("h_bc(1,1) + 1", "h_bc")):
        bad = copy.deepcopy(table)
        getattr(bad, bump)[(1, 1)] += 1
        expect("tables: " + label, op.check((bad, harmonic, de_rham)), True)
    bad_harmonic = dict(harmonic)
    bad_harmonic[("aeppli", 2, 1)] += 1
    expect("tables: harmonic dim A(2,1) + 1",
           op.check((table, bad_harmonic, de_rham)), True)
    expect("tables: b_3 + 1",
           op.check((table, harmonic, de_rham[:3] + [de_rham[3] + 1]
                     + de_rham[4:])), True)

    # formality: flipped verdicts
    for ident, notion in (("ce:u=1,v=1", "geom_bott_chern"),
                          ("ce:u=1,v=1", "geom_dolbeault"),
                          ("iwasawa", "geom_bott_chern"),
                          ("torus:2", "geom_de_rham")):
        op = workloads.FormalityOp(ident, None)
        res = op.run()
        expect("formality: true %s verdicts" % ident, op.check(res), False)
        expect("formality: %s %s flipped" % (ident, notion),
               op.check(dict(res, reports=flip(res["reports"], notion))),
               True)

    # massey: flipped verdict, class moved outside the indeterminacy
    m = workloads.Massey(0)
    label, ident, params, comps = m.inputs[0]
    case = workloads.MasseyCase(label, ident, params, comps,
                                random.Random(0), {})
    base = case.cold.run()
    expect("massey: true %s product" % label, case.cold.check(base), False)
    expect("massey: %s verdict flipped" % label,
           case.cold.check(MasseyVerdict(
               base.representative, base.harmonic_projection,
               base.aeppli_class, base.indeterminacy, False,
               base.bidegree)), True)
    case.warm.prepare()
    verdict = case.warm.run()
    expect("massey: true perturbed %s product" % label,
           case.warm.check(verdict), False)
    moved = SimpleNamespace(
        nonzero=verdict.nonzero,
        aeppli_class=[a + b for a, b in zip(verdict.aeppli_class,
                                            base.aeppli_class)])
    expect("massey: class moved by the base class", case.warm.check(moved),
           True)
    case.warm.potentials[0] = case.warm.potentials[0] * 2
    expect("massey: potential f_ab doubled", case.warm.check(verdict), True)

    print("%d/%d checker cases behave" % (sum(results), len(results)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
