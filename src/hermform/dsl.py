"""Text format for models: parser and canonical printer.

Grammar (line oriented, '#' comments, UTF-8, LF or CRLF):

    algebra NAME dim N          (or: model NAME dim N)
    gen NAME : (p,q) [odd|even trunc K] [conj NAME | real]
    holo NAME1 ... NAMEk        shorthand: (1,0) generators with
                                auto-conjugates (p* -> q*, else *_bar)
    param NAME [= SCALAR]       a value given to `parse` overrides SCALAR
    d NAME = EXPR               split by bidegree into del/dbar parts;
                                holo generators auto-conjugate
    del NAME = EXPR
    dbar NAME = EXPR

EXPR is a sum of terms COEFF * MON (either part optional), one '+' or
'-' between two terms and an optional one before the first; MON is a
'*'-join of NAME['^'INT].  COEFF is a declared parameter name or a
Gaussian-rational literal: terms [N]i[/D] or N[/D][i] joined by one
sign each, as in 3, -1/2, 2i, i/2, 2i/3, 1/2i or 1 - 2i.  A sign may
also open a factor after '*' (p1*-2).  Blanks may stand around '/',
before an 'i' and at either end of a literal term, never inside a run
of digits.  There are no parentheses, and two terms side by side ('ii',
'i 1/2', '1 2', 'p1 p2') are refused.
"""

from __future__ import annotations

import re

from .model import AssemblyError, GeneratorSpec, ModelError, ModelSpec
from .scalars import (GaussianRational, ScalarLiteralError, parse_scalar,
                      signed_terms)


class DslError(ValueError):
    """Parse or validation failure, with its line number if it has one."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None
                         else "%s (line %d)" % (message, line))


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_GEN_LINE = re.compile(
    r"gen\s+(?P<name>\S+)\s*:\s*\(\s*(?P<p>\d+)\s*,\s*(?P<q>\d+)\s*\)"
    r"(?P<rest>.*)$")


def _conj_name(name):
    if name.startswith("p") and len(name) > 1:
        return "q" + name[1:]
    return name + "_bar"


class _Parser:
    def __init__(self, text, path=None):
        self.lines = text.replace("\r\n", "\n").split("\n")
        self.path = path        # the file's, named when d^2 != 0
        self.name = None
        self.n = None
        self.gens = []          # GeneratorSpec list
        self.holo = set()       # names declared via `holo`
        self.params = {}        # name -> scalar or None
        # op -> {name: (lineno, expr text)}
        self.raw = {"d": {}, "del": {}, "dbar": {}}

    def err(self, msg, lineno):
        raise DslError(msg, lineno)

    def run(self, parameters=None):
        for lineno, raw in enumerate(self.lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            self.statement(line, lineno)
        if self.name is None:
            raise DslError("missing 'algebra NAME dim N' header")
        self.bind(parameters or {})
        return self.build()

    def bind(self, parameters):
        """Give declared parameters the values passed in, over their
        defaults; an undeclared name is refused."""
        extra = sorted(set(parameters) - set(self.params))
        if extra:
            raise DslError("%s takes no parameter %s"
                           % (self.name, ", ".join(map(repr, extra))))
        for name, value in parameters.items():
            self.params[name] = GaussianRational.of(value)

    def statement(self, line, lineno):
        head = line.split(None, 1)[0]
        if head in ("algebra", "model"):
            m = re.match(r"(algebra|model)\s+(\S+)\s+dim\s+(\d+)$", line)
            if not m:
                self.err("malformed header", lineno)
            if self.name is not None:
                self.err("duplicate header", lineno)
            self.name, self.n = m.group(2), int(m.group(3))
        elif head == "gen":
            self.gen_line(line, lineno)
        elif head == "holo":
            names = line.split()[1:]
            if not names:
                self.err("holo needs at least one name", lineno)
            for nm in names:
                self.check_name(nm, lineno)
                self.gens.append(GeneratorSpec(nm, (1, 0), 2, _conj_name(nm)))
                self.holo.add(nm)
            for nm in names:
                self.gens.append(
                    GeneratorSpec(_conj_name(nm), (0, 1), 2, nm))
        elif head == "param":
            m = re.match(r"param\s+(\S+)\s*(?:=\s*(.*\S))?$", line)
            if not m:
                self.err("malformed param", lineno)
            self.check_name(m.group(1), lineno)
            value = None
            if m.group(2) is not None:
                try:
                    value = parse_scalar(m.group(2))
                except ScalarLiteralError as e:
                    self.err(str(e), lineno)
            self.params[m.group(1)] = value
        elif head in ("d", "del", "dbar"):
            m = re.match(r"(d|del|dbar)\s+(\S+)\s*=\s*(.*)$", line)
            if not m:
                self.err("malformed differential line", lineno)
            store = self.raw[m.group(1)]
            if m.group(2) in store:
                self.err("duplicate %s for %s" % (m.group(1), m.group(2)),
                         lineno)
            store[m.group(2)] = (lineno, m.group(3))
        else:
            self.err("unknown statement %r" % head, lineno)

    def check_name(self, nm, lineno):
        if not _NAME.match(nm):
            self.err("bad name %r" % nm, lineno)
        if any(g.name == nm for g in self.gens):
            self.err("duplicate generator %r" % nm, lineno)

    def gen_line(self, line, lineno):
        m = _GEN_LINE.match(line)
        if not m:
            self.err("malformed gen line", lineno)
        name = m.group("name")
        self.check_name(name, lineno)
        p, q = int(m.group("p")), int(m.group("q"))
        tokens = iter(m.group("rest").split())
        trunc = 2 if (p + q) % 2 else None
        conj = None
        for tok in tokens:
            if tok in ("odd", "even"):
                if (tok == "odd") != bool((p + q) % 2):
                    self.err("parity %r contradicts bidegree" % tok, lineno)
            elif tok == "trunc":
                value = next(tokens, "")
                if not value.isdecimal():
                    self.err("trunc needs an integer", lineno)
                trunc = int(value)
            elif tok == "conj":
                conj = next(tokens, None)
                if conj is None:
                    self.err("conj needs a name", lineno)
            elif tok == "real":
                conj = name
            else:
                self.err("unexpected token %r in gen line" % tok, lineno)
        if trunc is None:
            self.err("even generator %s needs a truncation" % name, lineno)
        if conj is None:
            if p == q:
                conj = name
            else:
                self.err("generator %s needs a conj clause" % name, lineno)
        self.gens.append(GeneratorSpec(name, (p, q), trunc, conj))

    # -- expressions ---------------------------------------------------

    def parse_expr(self, spec, text, lineno):
        total = spec.zero()
        for sign, term in signed_terms(text):
            term = term.strip()
            if not term:
                self.err("empty term", lineno)
            total = total + self.parse_term(spec, term, lineno) * sign
        return total

    def parse_term(self, spec, term, lineno):
        factors = [f.strip() for f in term.split("*")]
        value = spec.one()
        for f in factors:
            if not f:
                self.err("empty factor in %r" % term, lineno)
            base, _, exp = f.partition("^")
            base = base.strip()
            if base in spec.index:
                e = 1
                if exp:
                    if not exp.strip().isdecimal():
                        self.err("bad exponent %r" % exp, lineno)
                    e = int(exp)
                g = spec.gen(base)
                for _ in range(e):
                    value = value.wedge(g)
            elif exp:
                self.err("exponent on non-generator %r" % base, lineno)
            elif base in self.params:
                if self.params[base] is None:
                    self.err("parameter %s has no value" % base, lineno)
                value = value * self.params[base]
            else:
                try:
                    value = value * parse_scalar(base)
                except ScalarLiteralError:
                    self.err("unknown generator or bad literal %r" % base,
                             lineno)
        return value

    # -- assembly ------------------------------------------------------

    def build(self):
        # a printed model declares its parameters after its generators,
        # so a shared name would not parse back
        for g in self.gens:
            if g.name in self.params:
                raise DslError("parameter %s is also a generator" % g.name)
        try:
            spec = ModelSpec(
                self.name, self.n, self.gens, parameters={
                    k: v for k, v in self.params.items() if v is not None})
        except ModelError as e:
            raise DslError(str(e))
        del_a = {}
        dbar_a = {}

        def put(store, name, form, lineno):
            if name in store:
                self.err("conflicting assignment for %s" % name, lineno)
            store[name] = form

        for op, store in (("del", del_a), ("dbar", dbar_a)):
            for name, (lineno, text) in self.raw[op].items():
                self.check_target(spec, name, lineno)
                put(store, name, self.parse_expr(spec, text, lineno), lineno)
        for name, (lineno, text) in self.raw["d"].items():
            self.check_target(spec, name, lineno)
            form = self.parse_expr(spec, text, lineno)
            g = spec.generator(name)
            p, q = g.bidegree
            dpart = form.component_of_bidegree(p + 1, q)
            bpart = form.component_of_bidegree(p, q + 1)
            if not (dpart + bpart).equals(form):
                self.err("d %s has components outside (%d,%d)+(%d,%d)"
                         % (name, p + 1, q, p, q + 1), lineno)
            put(del_a, name, dpart, lineno)
            put(dbar_a, name, bpart, lineno)
            if name in self.holo:
                cname = g.conjugate
                put(dbar_a, cname, dpart.conjugate(), lineno)
                put(del_a, cname, bpart.conjugate(), lineno)
        try:
            spec._set_differentials(del_a, dbar_a)
        except AssemblyError as e:
            raise DslError("%s: %s" % (self.path, e) if self.path else str(e))
        except ModelError as e:
            raise DslError(str(e))
        return spec

    def check_target(self, spec, name, lineno):
        if name not in spec.index:
            self.err("unknown generator %r" % name, lineno)


def parse(text, parameters=None):
    """Parse DSL source into a validated ModelSpec; `parameters`
    {name: value} binds declared `param`s, over their defaults."""
    return _Parser(text).run(parameters)


def parse_expression(spec, text):
    """Parse one EXPR against an existing model (used by the CLI)."""
    parser = _Parser("")
    parser.params = {k: GaussianRational.of(v)
                     for k, v in spec.parameters.items()
                     if isinstance(v, (int, GaussianRational))}
    return parser.parse_expr(spec, text, 1)


def read_text(path, error=DslError):
    """The file's text; a file that is not UTF-8 raises `error`, a user
    error that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise error("%s is not UTF-8 text (byte %d: %s)"
                        % (path, e.start, e.reason)) from None


def parse_file(path, parameters=None):
    return _Parser(read_text(path), path).run(parameters)


# -- printer -----------------------------------------------------------

def _print_scalar_term(coeff, mono_text):
    """One grammar-safe '<sign> COEFF * MON' piece list for a coefficient
    (mixed complex coefficients are split into two terms)."""
    parts = []
    for c in ((GaussianRational(coeff.re), GaussianRational(0, coeff.im))
              if (coeff.re and coeff.im) else (coeff,)):
        if not c:
            continue
        neg = (c.re < 0) or (not c.re and c.im < 0)
        mag = -c if neg else c
        body = str(mag) if mono_text is None else "%s * %s" % (mag, mono_text)
        parts.append(("-" if neg else "+", body))
    return parts


def _print_image(spec, image):
    """One {monomial: scalar} image as a nonempty EXPR."""
    pieces = []
    for mono in sorted(image):
        mono_text = spec.pretty_monomial(mono) if any(mono) else None
        pieces.extend(_print_scalar_term(image[mono], mono_text))
    (sign, body), rest = pieces[0], pieces[1:]
    return " ".join([body if sign == "+" else "-" + body]
                    + ["%s %s" % piece for piece in rest])


def print_model(spec):
    """Canonical DSL source; parse(print_model(s)) reproduces s."""
    lines = ["algebra %s dim %d" % (spec.name, spec.n)]
    for g in spec.generators:
        parity = "odd" if g.odd else "even"
        conj = "real" if g.conjugate == g.name else "conj %s" % g.conjugate
        lines.append("gen %s : (%d,%d) %s trunc %d %s"
                     % (g.name, g.bidegree[0], g.bidegree[1], parity,
                        g.truncation, conj))
    for name in sorted(spec.parameters):
        value = spec.parameters[name]
        try:
            value = GaussianRational.of(value)
        except (TypeError, ValueError):
            continue
        lines.append("param %s = %s" % (name, value))
    for op, images in spec.differentials.items():
        for g in spec.generators:
            if g.name in images:
                lines.append("%s %s = %s" % (
                    op, g.name, _print_image(spec, images[g.name])))
    return "\n".join(lines) + "\n"


def models_equal(a, b):
    """Structural equality of two ModelSpecs: name, dimension, generators
    (name, bidegree, truncation, conjugate) and differentials."""
    return ((a.name, a.n, a.generators, a.differentials)
            == (b.name, b.n, b.generators, b.differentials))
