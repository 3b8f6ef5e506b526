"""Acceptance gate: every frozen reference outcome, one pass/fail line each.

Each criterion is a single test wrapping one check from nichols.verify; the
checks rebuild their inputs from scratch and raise AssertionError with the
offending value on any mismatch.  Runtime budgets from the requirements are
asserted where stated.
"""

import time

from nichols import verify


def timed(check, budget_seconds=None):
    start = time.perf_counter()
    detail = check()
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (elapsed, budget_seconds)
    return detail


def test_criterion_01_fk3_dimension_is_12_under_one_second():
    assert "total 12" in timed(verify.check_fk3_dimension, 1.0)


def test_criterion_02_s4_dimensions_all_576_within_budget():
    # budget is ten minutes per module; the three run together far under it
    detail = timed(verify.check_s4_dimensions, 600.0)
    assert detail.count("576") == 3


def test_criterion_03_s3_pair_obstruction_witness():
    detail = timed(verify.check_s3_pair_obstruction)
    assert "-x2" in detail and "a[1,2] <= -2" in detail
    assert "[[2, -2], [-2, 2]], not of finite type" in detail


def test_criterion_04_d9_pair_obstruction_witness_under_five_seconds():
    assert "-v5" in timed(verify.check_d9_pair_obstruction, 5.0)


def test_criterion_05_s4_mixed_pair_obstruction_witnesses():
    detail = timed(verify.check_s4_mixed_pair_obstruction)
    assert "zt2" in detail and "w2" in detail


def test_criterion_06_multiplication_table_all_108_cells():
    assert "108/108" in timed(verify.check_multiplication_table)


def test_criterion_07_symmetrizer_oracle_matches_engine_to_degree_4():
    detail = timed(verify.check_symmetrizer_oracle)
    for name in ("fk3", "fk3-double", "diag-a2", "trunc-n5", "four-cycle",
                 "zero-pair"):
        assert name in detail


def test_criterion_08_graded_duality_and_inverse_braiding_invariance():
    timed(verify.check_duality_and_inverse_braiding)


def test_criterion_09_reflection_involution_and_dimension_invariance():
    detail = timed(verify.check_reflection_invariance)
    assert "total 27" in detail


def test_criterion_10_finite_type_recognition_rule_and_affine_triangle():
    timed(verify.check_finite_type_recognition)


def test_criterion_11_zero_cartan_factorization():
    detail = timed(verify.check_zero_cartan_factorization)
    assert "total 144" in detail


def test_matrix_has_no_other_checks():
    names = [name for name, _, _ in verify.CHECKS]
    assert len(names) == len(set(names)) == 11
