"""Command-line interface.

Exit status: 0 = computed; 1 = user error (one of the classes in
USER_ERRORS); 2 = broken internal invariant or any other internal fault,
reported as one line on stderr.  A model is checked when it is built, so
d^2 != 0 is a DslError naming a --file, and an AssemblyError (exit 2) in
a catalog model.  HERMFORM_ASCII=1 forces ASCII output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, dsl, formality, linalg, massey, obstructions
from .calculus import AssemblyError, HodgeEngine, NotClosedError
from .catalog import CatalogError
from .dsl import DslError
from .model import ModelError, _pretty_sum
from .obstructions import TableError
from .scalars import ScalarLiteralError

_SUB = str.maketrans("0123456789", "\u2080\u2081\u2082\u2083\u2084"
                     "\u2085\u2086\u2087\u2088\u2089")


def _ascii_only(args):
    if os.environ.get("HERMFORM_ASCII") == "1":
        return True
    return getattr(args, "ascii", False)


def paper_notation(spec, form, ascii_only=False):
    """Render a form in coframe notation (phi^{12 1-2-}) when the model
    uses the p/q or Calabi-Eckmann naming; plain names otherwise."""
    if ascii_only:
        return form.pretty(ascii_only=True)
    gens = spec.generators
    pq = all(g.name[:1] in "pq" and g.name[1:].isdigit() for g in gens)
    ce = all(g.name in ("phi", "phib", "w1", "w2") for g in gens)
    if not (pq or ce):
        return form.pretty()
    terms = []
    for mono in sorted(form.components):
        if pq:
            holo = "".join(g.name[1:] * e for e, g in zip(mono, gens)
                           if e and g.name[0] == "p")
            anti = "".join((g.name[1:] + "\u0304") * e
                           for e, g in zip(mono, gens)
                           if e and g.name[0] == "q")
            body = "\u03c6^{%s%s}" % (holo, anti) if (holo or anti) else "1"
        else:
            factors = []
            names = {"phi": "\u03c6", "phib": "\u03c6\u0304",
                     "w1": "\u03c9\u2081", "w2": "\u03c9\u2082"}
            for e, g in zip(mono, gens):
                if not e:
                    continue
                nm = names[g.name]
                factors.append(nm if e == 1 else "%s^%d" % (nm, e))
            body = "\u2227".join(factors) if factors else "1"
        terms.append((body, form.components[mono]))
    return _pretty_sum(terms, "\u00b7")


def _diamond(n, table, out):
    """Centered rows, degree 0 at the top down to 2n (the usual diamond
    layout)."""
    rows = []
    for k in range(2 * n + 1):
        cells = []
        for p in range(min(n, k), max(0, k - n) - 1, -1):
            cells.append(str(table.get((p, k - p), 0)))
        rows.append("   ".join(cells))
    width = max(len(r) for r in rows)
    for r in rows:
        out.write(r.center(width).rstrip() + "\n")


def _engine(args):
    """The engine of --model or of --file, with the --param values."""
    if bool(args.model) == bool(args.file):
        raise CatalogError("%s needs --model or --file%s"
                           % (args.verb, ", not both" if args.model else ""))
    params = catalog.parse_parameters(args.param)
    if args.file:
        return HodgeEngine(dsl.parse_file(args.file, params))
    return catalog.engine(args.model, params)


# -- verbs -------------------------------------------------------------

def cmd_list(args, out):
    for ident in catalog.ids():
        out.write(ident + "\n")
    return 0


# --theories name -> (CohomologyTable field, heading of its text)
_THEORIES = {"dbar": ("h_dbar", "Dolbeault diamond"),
             "del": ("h_del", "conjugate Dolbeault diamond"),
             "bc": ("h_bc", "Bott-Chern diamond"),
             "a": ("h_a", "Aeppli diamond"),
             "dr": ("betti", "Betti numbers")}


def cmd_cohomology(args, out):
    theories = (args.theories or "dbar,bc,a,dr").split(",")
    for t in theories:
        if t not in _THEORIES:
            raise CatalogError("unknown theory %r" % t)
    table = _engine(args).cohomology_table()
    if args.json:
        doc = table.to_dict()
        keep = {"model": doc["model"], "n": doc["n"]}
        for t in theories:
            keep[_THEORIES[t][0]] = doc[_THEORIES[t][0]]
        out.write(json.dumps(keep, indent=2, sort_keys=True) + "\n")
        return 0
    for t in theories:
        field, heading = _THEORIES[t]
        out.write("%s of %s:\n" % (heading, table.model_name))
        if field == "betti":
            out.write("  %s\n" % ", ".join(
                "b%d = %d" % kb for kb in enumerate(table.betti)))
        else:
            _diamond(table.n, getattr(table, field), out)
    return 0


_NOTION_ALIASES = {
    "dolbeault": "geom_dolbeault", "bott-chern": "geom_bott_chern",
    "abc": "geom_abc", "aeppli": "geom_aeppli", "de-rham": "geom_de_rham",
}


def cmd_formality(args, out):
    engine = _engine(args)
    ascii_only = _ascii_only(args)
    notions = formality.NOTIONS if args.notion in (None, "all") \
        else [_NOTION_ALIASES.get(args.notion, args.notion)]
    for notion in notions:
        report = formality.check_formality(engine, notion)
        out.write("%s: %s\n" % (notion, "yes" if report.verdict else "no"))
        for key, val in sorted(report.sub_verdicts.items()):
            out.write("  %s: %s\n" % (key, "yes" if val else "no"))
        if report.witness is not None:
            w = report.witness
            out.write("  witness: (%s) ^ (%s) violates %s\n" % (
                paper_notation(engine.spec, w.left, ascii_only),
                paper_notation(engine.spec, w.right, ascii_only),
                w.equation))
        if notion == "geom_bott_chern":
            hol = formality.holomorphic_closedness_obstruction(engine)
            if hol is not None:
                out.write(
                    "  metric-independent obstruction: holomorphic form "
                    "%s with del != 0\n"
                    % paper_notation(engine.spec, hol, ascii_only))
    return 0


def cmd_massey(args, out):
    engine = _engine(args)
    ascii_only = _ascii_only(args)
    alpha = dsl.parse_expression(engine.spec, args.a)
    beta = dsl.parse_expression(engine.spec, args.b)
    gamma = dsl.parse_expression(engine.spec, args.c)
    try:
        verdict = massey.triple_abc_massey(engine, alpha, beta, gamma)
    except (massey.PotentialError, NotClosedError) as e:
        raise CatalogError(str(e))
    out.write("nonzero: %s\n" % ("yes" if verdict.nonzero else "no"))
    out.write("bidegree: (%d,%d)\n" % verdict.bidegree)
    out.write("representative: %s\n"
              % paper_notation(engine.spec, verdict.representative,
                               ascii_only))
    out.write("aeppli projection: %s\n"
              % paper_notation(engine.spec, verdict.harmonic_projection,
                               ascii_only))
    out.write("indeterminacy dimension: %d\n" % verdict.indeterminacy.dim)
    return 0


def cmd_verify_appendix(args, out):
    params = catalog.parse_parameters(args.param)
    cases = [args.case] if args.case else list(catalog.APPENDIX_CASES)
    passed = 0
    total = 0
    for case in cases:
        runs = (catalog.V17_RUNS if case == "V.17" and not params
                else [params or None])
        for run in runs:
            total += 1
            ok, report = massey.verify_appendix_case(case, run)
            tag = "ok" if ok else "FAIL"
            extra = ""
            if run:
                extra = " [%s]" % ", ".join(
                    "%s=%s" % (k, v) for k, v in sorted(run.items()))
            out.write("%-6s%s: %s\n" % (case, extra, tag))
            if ok:
                passed += 1
    out.write("%d/%d cases verified\n" % (passed, total))
    return 0 if passed == total else 2


def cmd_ce(args, out):
    engine = catalog.engine_for("ce:u=%d,v=%d" % (args.u, args.v))
    table = engine.cohomology_table()
    out.write("Bott-Chern diamond of %s:\n" % engine.spec.name)
    _diamond(table.n, table.h_bc, out)
    out.write("Dolbeault diamond:\n")
    _diamond(table.n, table.h_dbar, out)
    if args.all_checks:
        for notion in ("geom_bott_chern", "geom_dolbeault"):
            report = formality.check_formality(engine, notion)
            label = {"geom_bott_chern": "geometrically Bott-Chern formal",
                     "geom_dolbeault": "geometrically Dolbeault formal"}
            out.write("%s: %s\n" % (label[notion],
                                    "yes" if report.verdict else "no"))
    return 0


def cmd_obstruct(args, out):
    table = obstructions.DimTable.from_json(
        dsl.read_text(args.input, obstructions.TableError))
    report = obstructions.analyze(table)
    for notion in sorted(report.verdicts):
        out.write("%s: %s\n" % (notion, report.verdicts[notion]))
    for f in report.fired:
        out.write("  fired [%s]: %s\n" % (f["notion"], f["test"]))
    for s in report.skipped:
        out.write("  skipped: %s\n" % s)
    return 0


def cmd_parse(args, out):
    spec = dsl.parse_file(args.file, catalog.parse_parameters(args.param))
    out.write("ok: %s (n = %d, %d generators)\n"
              % (spec.name, spec.n, len(spec.generators)))
    return 0


# -- driver ------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="hermform",
        description="Hermitian geometric formality on bigraded models")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, model=True):
        p.add_argument("--ascii", action="store_true",
                       help="force ASCII output")
        if model:
            p.add_argument("--model", help="catalog identifier")
            p.add_argument("--file", help="DSL source file")
            p.add_argument("--param", action="append",
                           help="parameter k=v (repeatable)")

    common(sub.add_parser("list", help="print catalog identifiers"),
           model=False)
    p = sub.add_parser("cohomology", help="dimension tables / diamonds")
    common(p)
    p.add_argument("--theories", help="comma list from dbar,del,bc,a,dr")
    p.add_argument("--json", action="store_true")
    p = sub.add_parser("formality", help="geometric-formality verdicts")
    common(p)
    p.add_argument("--notion",
                   help="dolbeault|bott-chern|abc|aeppli|de-rham|all")
    p = sub.add_parser("massey", help="triple ABC-Massey product")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p = sub.add_parser("verify-appendix", help="run the appendix suite")
    common(p, model=False)
    p.add_argument("--case")
    p.add_argument("--param", action="append")
    p = sub.add_parser("ce", help="Calabi-Eckmann model checks")
    common(p, model=False)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--all-checks", action="store_true")
    p = sub.add_parser("obstruct", help="dimension obstruction analysis")
    common(p, model=False)
    p.add_argument("--input", required=True)
    p = sub.add_parser("parse", help="check a DSL file")
    common(p, model=False)
    p.add_argument("file")
    p.add_argument("--validate", action="store_true",
                   help="accepted, adds nothing: parse checks d^2 = 0")
    p.add_argument("--param", action="append",
                   help="parameter k=v (repeatable)")
    return ap


# Errors in what the user asked for; everything else is an internal fault
# (cmd_massey turns the user's NotClosedError and PotentialError into one).
USER_ERRORS = (CatalogError, DslError, TableError, ModelError, OSError,
               ScalarLiteralError, formality.UnknownNotionError)

_HANDLERS = {
    "list": cmd_list, "cohomology": cmd_cohomology,
    "formality": cmd_formality, "massey": cmd_massey,
    "verify-appendix": cmd_verify_appendix, "ce": cmd_ce,
    "obstruct": cmd_obstruct, "parse": cmd_parse,
}


def run(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return _HANDLERS[args.verb](args, out)
    except (AssemblyError, linalg.DimensionMismatch) as e:
        err.write("internal invariant violated: %s\n" % e)
        return 2
    except USER_ERRORS as e:
        err.write("error: %s\n" % e)
        return 1
    except Exception as e:  # an internal fault, not a user error
        err.write("internal error: %s: %s\n" % (type(e).__name__, e))
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
