"""Acceptance gate: every criterion at its stated tolerance (exact).

Each test prints the one-line pass/fail verdict of its criterion; run
with `pytest -s tests/test_acceptance.py` to see them, or use the CLI
`mptypes selftest`.
"""

import pytest

from mptypes.selftest import (
    CriterionResult,
    criterion_1_triangularity,
    criterion_2_measure_half,
    criterion_3_multiplicity_half,
    criterion_4_formula_structure,
    criterion_5_round_trip,
    criterion_6_minimality,
    criterion_7_geodesics,
    criterion_8_power_of_q,
    criterion_9_conservation,
    _matrices,
    _timed,
    default_config,
    relation_instances,
)

SEED = 0


@pytest.fixture(scope="module")
def cfg2():
    return default_config(2)


@pytest.fixture(scope="module")
def cfg3():
    return default_config(3)


@pytest.fixture(scope="module")
def records(cfg2):
    return relation_instances(cfg2, seed=SEED)


@pytest.fixture(scope="module")
def mats(cfg2, cfg3):
    return _matrices(cfg2, cfg3)


def _report(result: CriterionResult, budget: float):
    print(result.line())
    assert result.passed, result.detail
    assert result.seconds < budget, f"over budget: {result.seconds:.1f}s >= {budget}s"


def test_criterion_1_triangularity_dichotomy(cfg2):
    res = _timed(lambda: criterion_1_triangularity(cfg2), "criterion-1 triangularity dichotomy")
    _report(res, 60)


def test_criterion_2_measure_half(cfg2, records):
    res = _timed(
        lambda: criterion_2_measure_half(cfg2, records), "criterion-2 relation measure half"
    )
    _report(res, 120)


def test_criterion_3_multiplicity_half(cfg2):
    res = _timed(
        lambda: criterion_3_multiplicity_half(cfg2, SEED),
        "criterion-3 relation multiplicity half",
    )
    _report(res, 30)


def test_criterion_4_formula_structure(mats):
    res = _timed(
        lambda: criterion_4_formula_structure(mats),
        "criterion-4 formula structure",
    )
    _report(res, 60)


def test_criterion_5_round_trip(mats):
    res = _timed(
        lambda: criterion_5_round_trip(SEED, mats),
        "criterion-5 uniqueness round trip",
    )
    _report(res, 10)


def test_criterion_6_minimality(cfg2):
    res = _timed(
        lambda: criterion_6_minimality(cfg2), "criterion-6 lift minimality certificate"
    )
    _report(res, 120)
    assert res.detail.startswith("36 degenerate elements"), res.detail


def test_criterion_7_geodesics(cfg2, cfg3):
    res = _timed(
        lambda: criterion_7_geodesics(cfg2, cfg3, SEED), "criterion-7 geodesic certificates"
    )
    _report(res, 60)


def test_criterion_8_power_of_q(cfg2, records):
    res = _timed(
        lambda: criterion_8_power_of_q(cfg2, records), "criterion-8 B-counts are powers of q"
    )
    _report(res, 60)


def test_criterion_9_conservation(cfg2, records):
    res = _timed(
        lambda: criterion_9_conservation(cfg2, records), "criterion-9 subcoset conservation"
    )
    _report(res, 60)


def test_criterion_8_fails_when_bfs_and_dimension_count_disagree(cfg2, records, monkeypatch):
    # a BFS that never leaves its start finds orbits of size 1, where the
    # dimension count finds q on the worked lower-pattern instance
    from mptypes import graded

    monkeypatch.setattr(
        graded, "_apply_direction", lambda cfg, a, i, j, c: tuple(map(tuple, a))
    )
    res = _timed(
        lambda: criterion_8_power_of_q(cfg2, records), "criterion-8 B-counts are powers of q"
    )
    assert not res.passed
    assert "BFS orbit size 1 disagrees with dimension count 5" in res.detail
