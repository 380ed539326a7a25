"""The lemma battery checks the functions discovery runs, so a fault there fails it."""

import dataclasses

import numpy as np
import pytest

from causalcomb import checks, combs


@pytest.mark.parametrize("seed", range(5))
def test_the_inversion_and_sandwich_checks_pass(seed):
    assert checks.check_reconstruction(seed).passed
    assert checks.check_frame_sandwich(seed).passed


def test_an_inversion_off_by_1e_8_fails_the_reconstruction_check(monkeypatch):
    inverse = checks.reconstruct_pair
    monkeypatch.setattr(checks, "reconstruct_pair", lambda a, b, joint: inverse(a, b, joint) + 1e-8)
    assert not checks.check_reconstruction(3).passed


def test_a_smallest_frame_eigenvalue_10_percent_high_fails_the_sandwich_check(monkeypatch):
    """At seed 4 the lower side of the bound is 3 % from tight, and the fault,
    squared into the product frame's eigenvalue, is 21 %."""
    frame_of = checks.frame_of

    def too_high(povm):
        frame = frame_of(povm)
        scale = np.ones_like(frame.eigenvalues)
        scale[0] = 1.1
        return dataclasses.replace(frame, eigenvalues=frame.eigenvalues * scale)

    monkeypatch.setattr(checks, "frame_of", too_high)
    assert not checks.check_frame_sandwich(4).passed


def test_a_reduction_that_keeps_roundoff_columns_fails_the_rank_check(monkeypatch):
    """With no eigenvalue cut, ``Factor.shut`` keeps columns that hold only
    roundoff, which the dense chain's ``numerical_rank`` never counted."""
    assert checks.check_reduction_rank(7).passed
    monkeypatch.setattr(combs, "_RANK_RTOL", 0.0)
    assert not checks.check_reduction_rank(7).passed
