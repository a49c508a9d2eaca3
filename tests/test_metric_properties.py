"""Property tests over random diagonal metrics: under per-generator
weights, both harmonic routes agree, every harmonic dimension equals the
inner-product-free quotient dimension, and no dimension depends on the
metric."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermform.calculus import THEORY, HodgeEngine
from hermform.catalog import load

from test_calculus import generator_metric

MODELS = ("torus:3", "iwasawa", "ce:u=1,v=1", "nakamura:III.3")


@pytest.mark.parametrize("ident", MODELS)
def test_dimensions_do_not_depend_on_the_metric(ident):
    spec = load(ident)
    reference = HodgeEngine(spec)
    dims = {(theory, degree): reference.cohomology_dim(theory, *degree)
            for theory in THEORY for degree in reference.degrees(theory)}

    @settings(max_examples=6, derandomize=True, deadline=None,
              database=None)
    @given(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4,
                                 max_denominator=4),
                    min_size=len(spec.generators),
                    max_size=len(spec.generators)))
    def check(gen_weights):
        engine = HodgeEngine(spec, generator_metric(spec, gen_weights))
        for (theory, degree), dim in dims.items():
            # harmonic_space raises AssemblyError if the routes disagree
            assert engine.harmonic_space(theory, *degree).dim == dim
            assert engine.cohomology_dim(theory, *degree) == dim

    check()
