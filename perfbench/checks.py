"""Independent checks of the workload outputs.

Every reference here comes from a closed formula, a published table or
an exact computation written for this file.  None copies an output of
the engine.  The linear algebra is a small sparse Gaussian elimination
of its own, so a fault in `hermform.linalg` cannot vouch for itself.
Only the number type (`GaussianRational`) and the engine's operator
matrices (`matrix`, `ddbar_matrix`, the adjoints) are used.

Each checker returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

from math import comb

from hermform.scalars import ONE, ZERO, GaussianRational

THEORY_KEYS = {"dolbeault": "h_dbar", "conj_dolbeault": "h_del",
               "bott_chern": "h_bc", "aeppli": "h_a"}

# Criterion 4: Bott-Chern geometric formality of M_{u,v}, standard metric.
CE_BOTT_CHERN = {(0, 0): True, (0, 1): True, (1, 1): True, (0, 2): False,
                 (1, 2): False, (2, 2): False, (2, 3): False}

# Criterion 5: the invariant subcomplex of Example 1.
EXAMPLE1_BC = {(0, 0): 1, (1, 1): 4, (3, 0): 1, (0, 3): 1, (2, 2): 4,
               (3, 3): 1}
EXAMPLE1_BETTI = [1, 0, 4, 2, 4, 0, 1]


# -- exact linear algebra over Q(i) --------------------------------------

def rref(rows, ncols):
    """Reduced row echelon form of sparse rows (dicts column -> scalar):
    (pivot columns, reduced rows)."""
    rows = [dict(r) for r in rows if r]
    pivots, done = [], []
    for c in range(ncols):
        k = next((i for i, r in enumerate(rows) if c in r), None)
        if k is None:
            continue
        piv = rows.pop(k)
        inv = ONE / piv[c]
        piv = {j: a * inv for j, a in piv.items()}
        for r in rows + done:
            a = r.get(c)
            if a is not None:
                for j, b in piv.items():
                    x = r.get(j, ZERO) - a * b
                    if x:
                        r[j] = x
                    else:
                        del r[j]
        rows = [r for r in rows if r]
        pivots.append(c)
        done.append(piv)
    return pivots, done


def sparse(v):
    return {j: a for j, a in enumerate(v) if a}


def rank(vectors):
    ncols = len(vectors[0]) if vectors else 0
    return len(rref([sparse(v) for v in vectors], ncols)[0])


def in_span(vectors, v):
    vectors = list(vectors)
    return rank(vectors + [v]) == rank(vectors)


def kernel(matrix):
    """Basis of the kernel of an engine Matrix, as dense vectors."""
    pivots, red = rref(matrix.data, matrix.cols)
    out = []
    for f in sorted(set(range(matrix.cols)) - set(pivots)):
        x = [ZERO] * matrix.cols
        x[f] = ONE
        for c, row in zip(pivots, red):
            if f in row:
                x[c] = -row[f]
        out.append(x)
    return out


def inner(u, v, weights):
    """Weighted Hermitian inner product, conjugate-linear in v."""
    acc = ZERO
    for a, b, w in zip(u, v, weights):
        if a and b:
            acc = acc + a * b.conjugate() * GaussianRational(w)
    return acc


def project(basis, v, weights):
    """Orthogonal projection of v onto span(basis), weighted."""
    if not basis:
        return [ZERO] * len(v)
    k = len(basis)
    aug = [[inner(basis[j], basis[i], weights) for j in range(k)]
           + [inner(v, basis[i], weights)] for i in range(k)]
    _, red = rref([sparse(r) for r in aug], k + 1)
    coeffs = [row.get(k, ZERO) for row in red]
    out = [ZERO] * len(v)
    for c, b in zip(coeffs, basis):
        out = [x + c * y for x, y in zip(out, b)]
    return out


def proportional(u, v):
    """True when u = c v for a nonzero scalar c and v is nonzero."""
    j = next((i for i, b in enumerate(v) if b), None)
    if j is None or not u[j]:
        return False
    c = u[j] / v[j]
    return all(a == c * b for a, b in zip(u, v))


def coords(engine, form, bid):
    """Coefficients of form on the engine's (p, q) monomial basis."""
    index = {m: i for i, m in enumerate(engine.basis(*bid))}
    vec = [ZERO] * len(index)
    for m, c in form.components.items():
        if m not in index:
            raise ValueError("form leaves the %s basis" % (bid,))
        vec[index[m]] = c
    return vec


# -- tables ----------------------------------------------------------------

def check_tables(res):
    """res: one `tables` op (see workloads.TablesOp.check)."""
    bad = []
    n, t, kind = res["n"], res["table"], res["kind"]
    name = "%s[%s]" % (res["model"], res["metric"])
    cells = [(p, q) for p in range(n + 1) for q in range(n + 1)]

    for theory, key in THEORY_KEYS.items():
        for p, q in cells:
            got = res["harmonic"].get((theory, p, q), 0)
            if got != t[key][p][q]:
                bad.append("%s: %s harmonic dim %d != quotient %d at %s"
                           % (name, theory, got, t[key][p][q], (p, q)))
    if res["de_rham"] != t["betti"]:
        bad.append("%s: de Rham harmonic dims %s != Betti %s"
                   % (name, res["de_rham"], t["betti"]))

    chi = sum((-1) ** (p + q) * c for (p, q), c in res["cochains"].items())
    if sum((-1) ** k * b for k, b in enumerate(t["betti"])) != chi:
        bad.append("%s: Euler characteristic of Betti numbers" % name)
    if sum((-1) ** (p + q) * t["h_dbar"][p][q] for p, q in cells) != chi:
        bad.append("%s: Euler characteristic of Hodge numbers" % name)

    for p, q in cells:
        if t["h_dbar"][p][q] != t["h_del"][q][p]:
            bad.append("%s: h_dbar%s != h_del%s" % (name, (p, q), (q, p)))
        if t["h_bc"][p][q] != t["h_bc"][q][p]:
            bad.append("%s: h_bc%s != h_bc%s" % (name, (p, q), (q, p)))
        if t["h_bc"][p][q] != t["h_a"][n - p][n - q]:
            bad.append("%s: h_bc%s != h_a%s"
                       % (name, (p, q), (n - p, n - q)))

    if kind in ("torus", "parallelisable"):
        for p, q in cells:
            if t["h_dbar"][p][q] != comb(n, p) * t["h_dbar"][0][q]:
                bad.append("%s: h_dbar%s != C(n,p) h_dbar(0,q)"
                           % (name, (p, q)))
    if kind == "torus":
        for key in THEORY_KEYS.values():
            for p, q in cells:
                if t[key][p][q] != comb(n, p) * comb(n, q):
                    bad.append("%s: %s%s != C(n,p)C(n,q)"
                               % (name, key, (p, q)))
        if t["betti"] != [comb(2 * n, k) for k in range(2 * n + 1)]:
            bad.append("%s: torus Betti numbers %s" % (name, t["betti"]))
    if kind == "ce":
        u, v = res["u"], res["v"]
        for p, q in cells:
            if t["h_dbar"][p][q] != _ce_hodge(u, v, p, q):
                bad.append("%s: h_dbar%s = %d, published %d"
                           % (name, (p, q), t["h_dbar"][p][q],
                              _ce_hodge(u, v, p, q)))
            if u == v and t["h_bc"][p][q] != _ce_bc_uu(u, p, q):
                bad.append("%s: h_bc%s = %d, published %d"
                           % (name, (p, q), t["h_bc"][p][q],
                              _ce_bc_uu(u, p, q)))
        if t["betti"] != _kunneth_spheres(2 * u + 1, 2 * v + 1):
            bad.append("%s: Betti %s != Kunneth of S^%d x S^%d"
                       % (name, t["betti"], 2 * u + 1, 2 * v + 1))
    if kind == "example1":
        h_bc = {(p, q): t["h_bc"][p][q] for p, q in cells if t["h_bc"][p][q]}
        if h_bc != EXAMPLE1_BC or t["betti"] != EXAMPLE1_BETTI:
            bad.append("%s: published invariant table differs" % name)

    return bad


def _ce_hodge(u, v, p, q):
    """Dolbeault numbers of Calabi-Eckmann M_{u,v} (criterion 3)."""
    if p <= u and q in (p, p + 1):
        return 1
    if p > v and q in (p, p - 1):
        return 1
    return 0


def _ce_bc_uu(u, p, q):
    """Bott-Chern numbers of M_{u,u} (criterion 2)."""
    if u >= 1 and p == q and 1 <= p <= u:
        return 2
    if (p, q) in ((0, 0), (2 * u + 1, 2 * u + 1)):
        return 1
    if q == p + 1 and u <= p <= 2 * u:
        return 1
    if p == q + 1 and u <= q <= 2 * u:
        return 1
    if u % 2 == 1 and (p, q) == (u + 1, u + 1):
        return 1
    return 0


def _kunneth_spheres(a, b):
    betti = [0] * (a + b + 1)
    for i in (0, a):
        for j in (0, b):
            betti[i + j] += 1
    return betti


# -- formality -------------------------------------------------------------

def adjoint_equations(engine, theory, p, q):
    """The adjoint-route harmonic equations of a theory at (p, q)."""
    if theory == "dolbeault":
        return [engine.matrix("dbar", p, q),
                engine.adjoint_matrix("dbar", p, q)]
    if theory == "bott_chern":
        return [engine.matrix("del", p, q), engine.matrix("dbar", p, q),
                engine.ddbar_adjoint_matrix(p, q)]
    return [engine.ddbar_matrix(p, q), engine.adjoint_matrix("del", p, q),
            engine.adjoint_matrix("dbar", p, q)]


def satisfies(engine, theory, form):
    bid = form.bidegree()
    vec = coords(engine, form, bid)
    return all(not any(m.mul_vec(vec))
               for m in adjoint_equations(engine, theory, *bid))


# notion -> (theory of the left factor, of the right factor, of the product)
WITNESS_THEORIES = {
    "geom_dolbeault": ("dolbeault", "dolbeault", "dolbeault"),
    "geom_bott_chern": ("bott_chern", "bott_chern", "bott_chern"),
    "geom_aeppli": ("aeppli", "bott_chern", "aeppli"),
}


def check_formality(res, engine):
    """res: one `formality` op (see workloads.FormalityOp.run)."""
    bad = []
    name = res["model"]
    v = {k: r.verdict for k, r in res["reports"].items()}
    if v["geom_aeppli"] and not (v["geom_abc"] and v["geom_dolbeault"]):
        bad.append("%s: Aeppli formal but not ABC and Dolbeault" % name)
    if v["geom_abc"] and not v["geom_bott_chern"]:
        bad.append("%s: ABC formal but not Bott-Chern" % name)

    kind = res["kind"]
    f = res["obstruction"]
    if kind == "torus":
        if not all(v.values()):
            bad.append("%s: a torus notion fails: %s" % (name, v))
        if f is not None:
            bad.append("%s: holomorphic obstruction on a torus" % name)
    elif kind == "ce":
        u, w = res["u"], res["v"]
        if v["geom_bott_chern"] != CE_BOTT_CHERN[(u, w)]:
            bad.append("%s: Bott-Chern verdict %s" % (name,
                                                     v["geom_bott_chern"]))
        if v["geom_dolbeault"] != (u == 0):
            bad.append("%s: Dolbeault verdict %s" % (name,
                                                    v["geom_dolbeault"]))
    else:
        if v["geom_bott_chern"]:
            bad.append("%s: parallelisable model is Bott-Chern formal"
                       % name)
        bid = f.bidegree() if f is not None else None
        if bid is None or bid[1] != 0:
            bad.append("%s: no (p,0) holomorphic obstruction" % name)
        else:
            vec = coords(engine, f, bid)
            if any(engine.matrix("dbar", *bid).mul_vec(vec)):
                bad.append("%s: obstruction is not dbar-closed" % name)
            if not any(engine.matrix("del", *bid).mul_vec(vec)):
                bad.append("%s: obstruction is del-closed" % name)

    for notion, (left, right, prod) in WITNESS_THEORIES.items():
        w = res["reports"][notion].witness
        if w is None:
            continue
        if not satisfies(engine, left, w.left):
            bad.append("%s: %s witness left factor is not %s-harmonic"
                       % (name, notion, left))
        if not satisfies(engine, right, w.right):
            bad.append("%s: %s witness right factor is not %s-harmonic"
                       % (name, notion, right))
        if w.product.is_zero() or satisfies(engine, prod, w.product):
            bad.append("%s: %s witness product is %s-harmonic"
                       % (name, notion, prod))
    return bad


# -- massey ----------------------------------------------------------------

def check_appendix(engine, listed, verdict):
    """A cold appendix product: nonzero, and its harmonic projection is a
    nonzero multiple of the listed representative's projection."""
    bad = []
    if not verdict.nonzero:
        bad.append("product is zero")
    bid = verdict.bidegree
    basis = [coords(engine, f, bid)
             for f in engine.harmonic_space("aeppli", *bid).forms]
    w = engine.weights(*bid)
    closed = engine.ddbar_matrix(*bid)
    rep = coords(engine, verdict.representative, bid)
    lst = coords(engine, listed, bid)
    for label, vec in (("representative", rep), ("listed", lst)):
        if any(closed.mul_vec(vec)):
            bad.append("%s is not del-dbar-closed" % label)
    own = project(basis, rep, w)
    if own != coords(engine, verdict.harmonic_projection, bid):
        bad.append("harmonic projection differs from the weighted "
                   "orthogonal projection")
    if not proportional(own, project(basis, lst, w)):
        bad.append("projection is not a nonzero multiple of the listed "
                   "representative's")
    return bad


def check_potential(engine, f, target, src, ker=None):
    """del dbar f = target for f of bidegree src; with ker (a basis of
    ker del dbar at src), also f orthogonal to it in the weighted inner
    product."""
    vec = coords(engine, f, src)
    bad = []
    if engine.ddbar_matrix(*src).mul_vec(vec) != coords(
            engine, target, (src[0] + 1, src[1] + 1)):
        bad.append("potential fails del dbar f = target")
    if ker is not None:
        w = engine.weights(*src)
        if any(inner(vec, k, w) for k in ker):
            bad.append("potential is not orthogonal to ker del dbar")
    return bad


def check_perturbed(base, verdict):
    """Same verdict, and the class moves only inside the indeterminacy."""
    bad = []
    if verdict.nonzero != base.nonzero:
        bad.append("perturbed verdict %s != base %s"
                   % (verdict.nonzero, base.nonzero))
    diff = [a - b for a, b in zip(verdict.aeppli_class, base.aeppli_class)]
    if not in_span(base.indeterminacy.basis, diff):
        bad.append("perturbed class leaves the indeterminacy")
    return bad
