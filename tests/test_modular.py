"""Every cohomology and harmonic dimension, against ranks over F_p.

The rank below works modulo a prime on plain ints and shares no code
with the exact core (`linalg`, `scalars`): it reads each entry's two
rational parts and nothing else.  For a theory with closed operators C
and exact operators E at a degree with N basis forms, the dimension is
N − rank(C) − rank(E into the degree).  rank_p is at most the rank over
Q(i) and equals it for all but finitely many p, so a disagreement at one
prime can be bad luck; a disagreement at both is a fault.
"""

import pytest

from hermform.calculus import SHIFT, THEORY
from hermform.catalog import default_instances, engine_for, load_with_action

# (p, i): primes p ≡ 1 (mod 4) just below 2^31, and a square root i of
# −1 mod p, the image of the imaginary unit.
PRIMES = ((2147483629, 1518275076), (2147483549, 895500278))

INSTANCES = [(ident, params) for ident, params in default_instances()
             if load_with_action(ident, params)[0].n <= 4]
INSTANCES.append(("nakamura:V.10", None))


def _mod(x, p, i):
    re, im = x.re, x.im
    return (re.numerator * pow(re.denominator, -1, p)
            + i * im.numerator * pow(im.denominator, -1, p)) % p


def rank_mod(rows, p, i):
    """Rank over F_p of sparse rows {column: scalar}, by forward
    elimination on a row of ints against pivot rows with leading 1."""
    pivots = {}
    for row in rows:
        r = {}
        for j, x in row.items():
            v = _mod(x, p, i)
            if v:
                r[j] = v
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in r.items()}
                break
            a = r[c]
            for j, v in piv.items():
                w = (r.get(j, 0) - a * v) % p
                if w:
                    r[j] = w
                else:
                    r.pop(j, None)
    return len(pivots)


def _columns(m):
    cols = {}
    for k, row in enumerate(m.data):
        for j, x in row.items():
            cols.setdefault(j, {})[k] = x
    return list(cols.values())


def quotient_dim_mod(engine, theory, degree, p, i):
    ops = THEORY[theory]
    closed = [row for op in ops.closed
              for row in engine.matrix(op, *degree).data]
    exact = []
    for op in ops.exact:
        src = tuple(a - b for a, b in zip(degree, SHIFT[op]))
        if min(src) >= 0:
            exact += _columns(engine.matrix(op, *src))
    return (len(engine.basis(*degree)) - rank_mod(closed, p, i)
            - rank_mod(exact, p, i))


def test_primes_carry_a_square_root_of_minus_one():
    for p, i in PRIMES:
        assert p % 4 == 1 and pow(2, p - 1, p) == 1
        assert i * i % p == p - 1


@pytest.mark.parametrize(("ident", "params"), INSTANCES,
                         ids=["%s%s" % (ident, "" if params is None
                                        else sorted(params.items()))
                              for ident, params in INSTANCES])
def test_dimensions_match_ranks_mod_p(ident, params):
    engine = engine_for(ident, params)
    wrong = []
    for theory in THEORY:
        for degree in engine.degrees(theory):
            want = [quotient_dim_mod(engine, theory, degree, p, i)
                    for p, i in PRIMES]
            got = (engine.cohomology_dim(theory, *degree),
                   engine.harmonic_space(theory, *degree).dim)
            if any(g not in want for g in got):
                wrong.append((theory, degree, got, want))
    assert not wrong
