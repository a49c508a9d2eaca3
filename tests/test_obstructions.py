"""Dimension tables, obstruction analysis and blow-up arithmetic."""

import pytest

from hermform.calculus import CohomologyTable
from hermform.catalog import engine_for
from hermform.obstructions import (DimTable, TableError, analyze,
                                   blowup_bc_threefold_curve,
                                   blowup_derham, rational_curve_table,
                                   torus_table)


def test_torus_tables_clean():
    for n in range(1, 7):
        report = analyze(torus_table(n))
        assert not report.fired
        assert all(v == "not_obstructed_by_these_tests"
                   for v in report.verdicts.values())


def test_json_roundtrip():
    t = torus_table(3)
    again = DimTable.from_json(t.to_json())
    assert again.n == t.n
    assert again.h_dbar == t.h_dbar
    assert again.h_bc == t.h_bc
    assert again.h_a == t.h_a
    assert again.betti == t.betti
    assert again.to_json() == t.to_json()


def test_partial_table_roundtrip_and_skips():
    t = DimTable(2, h_dbar={(1, 1): 3}, betti=None)
    again = DimTable.from_json(t.to_json())
    assert again.h_dbar == {(1, 1): 3}
    assert not again.betti
    report = analyze(again)
    assert "frolicher" in report.skipped
    assert "betti_bounds" in report.skipped


def test_validation_errors():
    with pytest.raises(TableError):
        DimTable(0)
    with pytest.raises(TableError):
        DimTable(2, h_dbar={(0, 0): -1})
    with pytest.raises(TableError):
        DimTable(2, h_bc={(1, 0): 2, (0, 1): 1})
    with pytest.raises(TableError):
        DimTable.from_json("not json")
    with pytest.raises(TableError):
        DimTable.from_json("[]")


def test_torus_bound_fires():
    t = DimTable(2, h_dbar={(1, 1): 5}, betti={2: 3})
    report = analyze(t)
    assert report.verdicts["geom_dolbeault"] == "obstructed"
    assert any("h_dbar^{1,1} = 5 > 4" in f["test"] for f in report.fired)


def test_product_lower_bound_fires():
    # h^{1,0} * h^{0,1} = 4 > 2 = h^{1,1}
    t = DimTable(2, h_dbar={(1, 0): 2, (0, 1): 2, (1, 1): 2})
    report = analyze(t)
    assert any("h_dbar^{1,0} * h_dbar^{0,1} = 4 > 2" in f["test"]
               for f in report.fired)


def test_frolicher_fires():
    full = {(p, q): 1 for p in range(3) for q in range(3)}
    t = DimTable(2, h_dbar=full, betti={2: 9})
    report = analyze(t)
    assert any(f["test"].startswith("b_2 = 9 > 3") for f in report.fired)


def test_betti_binomial_bound():
    t = DimTable(2, betti={2: 22})
    report = analyze(t)
    assert report.verdicts["geom_riemannian"] == "obstructed"
    assert any("22 > 6" in f["test"] for f in report.fired)


def test_blowup_derham_curve_in_threefold():
    center = rational_curve_table()
    out = blowup_derham(torus_table(3), center, 2)
    # b_2 gains b_0(center), b_4 gains b_2(center)
    assert out.betti[2] == torus_table(3).betti[2] + 1
    assert out.betti[4] == torus_table(3).betti[4] + 1
    assert out.betti[0] == 1


def test_blowup_derham_validation():
    with pytest.raises(TableError):
        blowup_derham(torus_table(3), rational_curve_table(), 1)
    with pytest.raises(TableError):
        blowup_derham(torus_table(3), torus_table(1), 3)
    with pytest.raises(TableError):
        blowup_derham(DimTable(3), rational_curve_table(), 2)


def test_blowup_bc_threefold_curve():
    base = torus_table(3)
    curve = rational_curve_table()
    out = blowup_bc_threefold_curve(base, curve)
    assert out.h_bc[(1, 1)] == base.h_bc[(1, 1)] + 1
    assert out.h_bc[(2, 2)] == base.h_bc[(2, 2)] + 1
    assert out.h_bc[(1, 2)] == base.h_bc[(1, 2)]
    with pytest.raises(TableError):
        blowup_bc_threefold_curve(torus_table(2), curve)
    with pytest.raises(TableError):
        blowup_bc_threefold_curve(base, torus_table(2))


def test_iterated_blowups_eventually_obstruct():
    """Repeated curve blow-ups push b_2 past every torus bound."""
    t = torus_table(3)
    curve = rational_curve_table()
    for _ in range(16):
        t = blowup_derham(t, curve, 2)
    report = analyze(t)
    assert report.verdicts["geom_riemannian"] == "obstructed"


def test_from_cohomology_table_adapter():
    table = engine_for("torus:2").cohomology_table()
    t = DimTable.from_cohomology_table(table)
    assert t.h_dbar == torus_table(2).h_dbar
    assert t.betti == torus_table(2).betti
    assert not analyze(t).fired


@pytest.mark.parametrize("table", (
    {"h_dbar": {(2, 2): 1}}, {"h_bc": {(0, 2): 0}}, {"h_a": {(-1, 0): 1}},
    {"betti": {3: 5}}, {"betti": {-1: 0}},
))
def test_cells_out_of_range_are_refused(table):
    """In dimension n a cell has p and q in 0..n and a Betti index lies
    in 0..2n; anything else is a malformed table, whatever its value."""
    with pytest.raises(TableError, match="outside"):
        DimTable(1, **table)



def test_adapter_keeps_a_zero_cell_known():
    """A CohomologyTable leaves its zero cells out; the adapter fills them
    in, so b_1 = 2 over an empty antidiagonal fires both Frölicher-type
    tests instead of leaving them unchecked."""
    h = {(0, 0): 1, (1, 1): 1}
    t = DimTable.from_cohomology_table(
        CohomologyTable("x", 1, h, h, h, h, [1, 2, 1]))
    assert t.h_dbar == t.h_bc == t.h_a == {
        (0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    report = analyze(t)
    assert [f["test"] for f in report.fired] == [
        "b_1 = 2 > 0 = sum h_dbar^{p,q}, p+q=1",
        "2 b_1 = 4 > 0 = sum (h_bc + h_a), p+q=1"]
    assert report.skipped == []
