"""Every library entry point reads its scalars through the model's readers.

The library counterpart of the CLI's ``TestMalformedValueSweep``: each
scalar parameter of each entry point, given a value that is not a real
number (or, where an integer is expected, not an integer), raises
``InvalidInput`` naming the parameter.  Neither numpy's nor math's own
exception escapes, and no misread value gives a silent answer.
"""

import math
from functools import partial

import numpy as np
import pytest

from gausdet import (
    BayesTest,
    Box,
    DiscretePrior,
    IntensityVector,
    NpTest,
    ProductFloor,
    SumFloor,
    alpha_upper_bound,
    berry_esseen_alpha,
    beta_lower_bound,
    beta_mismatch_upper,
    beta_upper_bound,
    bound_transfer,
    chi2_lower_tail_sandwich,
    chi2_upper_tail_sandwich,
    estimate_error_probs,
    example3_experiment,
    g_eval,
    lemma1_check,
    lemma2_certificate,
    normal_tail_bounds,
    solve_u0,
    sufficient_condition_check,
    weighted_chi2_cdf,
)
from gausdet.errors import InvalidInput

SIGMA = IntensityVector([0.5, 1, 1.5, 2])
ONES = IntensityVector([1.0, 1.0])

# name -> (call, valid keyword arguments); every keyword is a scalar parameter.
ENTRY_POINTS = {
    "ProductFloor": (ProductFloor, {"n": 2, "D": 1.0}),
    "SumFloor": (SumFloor, {"n": 3, "R": 1.0}),
    "NpTest": (partial(NpTest, SIGMA), {"A": 0.0}),
    "BayesTest": (partial(BayesTest, DiscretePrior((SIGMA,), [1.0])),
                  {"level": 0.0}),
    "solve_u0": (partial(solve_u0, SIGMA), {"A": 0.0}),
    "beta_upper_bound": (partial(beta_upper_bound, SIGMA), {"A": 0.0}),
    "beta_lower_bound": (partial(beta_lower_bound, SIGMA), {"A": -1.0, "K": 2}),
    "alpha_upper_bound": (partial(alpha_upper_bound, SIGMA), {"A": 0.0}),
    "beta_mismatch_upper": (partial(beta_mismatch_upper, SIGMA, SIGMA),
                            {"A": 0.0}),
    "bound_transfer": (partial(bound_transfer, SIGMA, SIGMA), {"A": 0.0}),
    "sufficient_condition_check": (
        partial(sufficient_condition_check, SIGMA, SIGMA), {"A": 0.0}),
    "g_eval": (partial(g_eval, SIGMA), {"A": 0.0, "u": 0.5}),
    "normal_tail_bounds": (normal_tail_bounds, {"z": 1.0}),
    "chi2_lower_tail_sandwich": (chi2_lower_tail_sandwich, {"A": 1.0, "n": 3}),
    "chi2_upper_tail_sandwich": (chi2_upper_tail_sandwich, {"A": 4.0, "n": 3}),
    "berry_esseen_alpha": (partial(berry_esseen_alpha, SIGMA), {"A": 0.0}),
    "weighted_chi2_cdf": (partial(weighted_chi2_cdf, [1.0, 2.0]), {"x": 1.0}),
    "estimate_error_probs": (partial(estimate_error_probs, NpTest(SIGMA, 0.0)),
                             {"samples": 1000, "seed": 1}),
    "lemma1_check": (partial(lemma1_check, Box(np.ones(2)), [1, 1], [1, 1]),
                     {"samples": 1000, "seed": 1}),
    "example3_experiment": (example3_experiment,
                            {"n": 10, "R": 1.0, "samples": 1000, "seed": 1}),
}
INTEGERS = {"n", "K", "samples", "seed"}
NOT_NUMBERS = [True, "1", None, math.nan, math.inf]
NOT_INTEGERS = NOT_NUMBERS + [2.5]
VALID = [("K", None)]  # K=None asks for the default block count


def _sweep_cases():
    for entry, (_, kwargs) in ENTRY_POINTS.items():
        for name in kwargs:
            for value in NOT_INTEGERS if name in INTEGERS else NOT_NUMBERS:
                if (name, value) in VALID:
                    continue
                yield pytest.param(entry, name, value,
                                   id=f"{entry}-{name}-{value!r}")


class TestMalformedScalarSweep:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_valid_arguments_accepted(self, entry):
        call, kwargs = ENTRY_POINTS[entry]
        call(**kwargs)

    @pytest.mark.parametrize("entry, name, value", _sweep_cases())
    def test_rejected(self, entry, name, value):
        call, kwargs = ENTRY_POINTS[entry]
        with pytest.raises(InvalidInput, match=rf"^{name}\b"):
            call(**{**kwargs, name: value})

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_intensity_vector_rejected(self, value):
        with pytest.raises(InvalidInput, match=r"^sigma\b"):
            IntensityVector([value, value])

    @pytest.mark.parametrize("values", [
        [True, 1.0], [1.0, False], (2.0, np.True_), [1, True],
    ])
    def test_bool_entry_among_numbers_rejected(self, values):
        # numpy alone reads [True, 1.0] as [1.0, 1.0].
        with pytest.raises(InvalidInput, match=r"^sigma\b"):
            IntensityVector(values)
        with pytest.raises(InvalidInput, match=r"^weights\b"):
            weighted_chi2_cdf(values, 1.0)

    def test_int_and_float_lists_accepted(self):
        assert IntensityVector([1, 2.5, 0]).values.tolist() == [1.0, 2.5, 0.0]
        assert IntensityVector((np.int64(3), 0.5)).values.tolist() == [3.0, 0.5]

    @pytest.mark.parametrize("groups", [
        *([[value, 1]] for value in NOT_INTEGERS), None, 5, [0, 1],
    ])
    def test_partition_rejected(self, groups):
        with pytest.raises(InvalidInput, match=r"^groups\b"):
            lemma2_certificate(ONES, ONES, groups)

    def test_numpy_indices_read_as_ints(self):
        cert = lemma2_certificate(ONES, ONES, [np.array([0, 1])])
        assert cert.groups == ((0, 1),) and cert.valid
        assert all(type(i) is int for i in cert.groups[0])

    @pytest.mark.parametrize("index", [0, 1, 3])
    @pytest.mark.parametrize("bad, why", [
        (None, "must be a real number"), ("1", "must be a real number"),
        (True, "must be a real number"), ([1.0], "must be a real number"),
        (math.nan, "must be finite, got nan"), (-math.inf, "must be finite, got -inf"),
    ])
    def test_bad_list_entry_named_by_its_index(self, index, bad, why):
        values = [0.5, 1.0, 1.5, 2.0]
        values[index] = bad
        for call, name in [(IntensityVector, "sigma"),
                           (partial(weighted_chi2_cdf, x=1.0), "weights"),
                           (Box, "half_widths")]:
            with pytest.raises(InvalidInput) as info:
                call(values)
            assert str(info.value) == f"{name}[{index}] {why}"

    def test_integers_beyond_int64_read_as_floats(self):
        # numpy holds them only as objects; each is a real number.
        assert IntensityVector([2**64, 1]).values.tolist() == [2.0**64, 1.0]
