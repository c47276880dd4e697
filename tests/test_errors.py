import math
import re

import numpy as np
import pytest

from crossdiff import (Field, InputError, MatrixPolynomial, PolynomialMap,
                       Region, SolverConfig, bmo_profile, build_grid,
                       classic_skt, decay_bound_check, norms, run, stable_dt,
                       step, ystar_dominance)
from crossdiff.errors import (finite, nonnegative, number, number_list,
                              positive, whole_number)


class TestRangeHelpers:
    @pytest.mark.parametrize("rule,value", [
        (finite, -2.5), (finite, 0), (positive, 1e-300), (positive, 3),
        (nonnegative, 0.0), (nonnegative, np.float32(0.5))])
    def test_admitted_value_is_its_float(self, rule, value):
        got = rule(value, "x")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("rule,value,words", [
        (finite, math.inf, "must be finite"),
        (finite, math.nan, "must be finite"),
        (positive, 0.0, "must be finite and positive"),
        (positive, math.inf, "must be finite and positive"),
        (positive, math.nan, "must be finite and positive"),
        (nonnegative, -1e-300, "must be finite and nonnegative"),
        (nonnegative, math.inf, "must be finite and nonnegative"),
        (positive, True, "must be a number"),
        (nonnegative, "1", "must be a number"),
        (finite, None, "must be a number")])
    def test_refused_value_names_what(self, rule, value, words):
        with pytest.raises(InputError, match=f"^the knob {words}, got "):
            rule(value, "the knob")

    def test_list_entries_take_the_rule(self):
        assert number_list([1, 2.5], "xs", positive) == (1.0, 2.5)
        with pytest.raises(InputError,
                           match="every entry of xs must be finite and positive"):
            number_list([1.0, -1.0], "xs", positive)


class TestTooLargeForAFloat:
    HUGE = 10 ** 400

    @pytest.mark.parametrize("convert", [number, finite, positive,
                                         nonnegative, whole_number])
    def test_is_an_input_error_without_the_digits(self, convert):
        with pytest.raises(InputError) as info:
            convert(self.HUGE, "seed")
        assert str(info.value) == "seed is too large for a float"

    def test_in_a_list(self):
        with pytest.raises(InputError,
                           match="^every entry of region hi is too large"):
            number_list([self.HUGE], "region hi")


class TestWholeNumber:
    def test_keeps_its_message_for_what_number_refuses(self):
        for value in (True, "2", None, 2.5, math.inf):
            with pytest.raises(InputError,
                               match="^n must be a whole number, got "):
                whole_number(value, "n")


SKT = classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0, lv=(1.0,) * 6)
GRID = build_grid(1.0, 1.0, 8, 8)
FIELD = Field.constant(GRID, [1.0, 1.0])

# one library call per owner of a number: each hands one argument that
# is not a number, or not a number of the kind the argument takes.
# decay_bound_check(p=True) already raised an InputError naming p, for
# reading True as 1.0, which is not above 1; every other call went on
# (a bare TypeError for Lambda_hat and dt, no error for the rest)
LIBRARY_CALLS = {
    "PolynomialMap-m": (
        lambda: PolynomialMap(2.5, [[(1.0, (1, 0))], [(1.0, (0, 1))]]),
        "component count m"),
    "MatrixPolynomial-m": (
        lambda: MatrixPolynomial(2.7, (2, 2), [(0, 0, 3.0, 0.0, (1, 0))]),
        "component count m"),
    "MatrixPolynomial-shape": (
        lambda: MatrixPolynomial(2, ("2", 2), [(0, 0, 3.0, 0.0, (1, 0))]),
        "matrix shape"),
    "MatrixPolynomial-coefficient": (
        lambda: MatrixPolynomial(2, (2, 2), [(0, 0, "3", 0.0, (1, 0))]),
        "coefficient"),
    "norms-p_list": (lambda: norms(FIELD, SKT, p_list=["3"]), "p_list"),
    "norms-s0": (lambda: norms(FIELD, SKT, s0="1"), "s0"),
    "Region.symmetric-U": (lambda: Region.symmetric("2", 2), "U"),
    "stable_dt-cfl": (lambda: stable_dt(SKT, FIELD, cfl="0.9"), "cfl"),
    "bmo_profile-Lambda_hat": (
        lambda: bmo_profile(FIELD, [0.5], Lambda_hat="2"), "Lambda_hat"),
    "decay_bound_check-p": (
        lambda: decay_bound_check([0.0, 1.0, 2.0], [3.0, 2.0, 1.0], p=True),
        "p"),
    "ystar_dominance-tol": (
        lambda: ystar_dominance(
            run(SKT, FIELD, SolverConfig(scheme="explicit", dt0=1e-3,
                                         t_end=3e-3)),
            SKT, tol=True),
        "tol"),
    "step-dt": (lambda: step(SKT, FIELD, "1e-3"), "dt"),
}


@pytest.mark.parametrize("call,what", LIBRARY_CALLS.values(),
                         ids=LIBRARY_CALLS.keys())
def test_library_call_refuses_a_non_number(call, what):
    with pytest.raises(InputError) as info:
        call()
    assert re.search(rf"\b{what}\b", str(info.value)), info.value
