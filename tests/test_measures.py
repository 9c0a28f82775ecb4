import numpy as np
import pytest

from mixdiv import (
    Density,
    DensityBundle,
    DivergenceReport,
    make_bundle,
    make_space,
    probability_density,
    validate_density,
)
from mixdiv.errors import (
    LengthMismatch,
    NonPositiveWeight,
    NormalizationFailure,
    ZeroDensityAtom,
)
from mixdiv.inequalities import FactorDecomposition
from mixdiv.measures import _density_rows


def test_make_space_counting():
    s = make_space([1, 1])
    assert s.size == 2
    assert s.total_mass == 2.0


def test_make_space_total_mass():
    assert make_space([0.5, 0.5, 1.0]).total_mass == 2.0


@pytest.mark.parametrize("weights", [[1, 0], [1, -1], [1, float("inf")], [float("nan")],
                                     [1, -0.0], [-float("inf")], [1, float("nan")],
                                     [[1.0, 1.0]]])
def test_make_space_rejects_bad_weights(weights):
    with pytest.raises(NonPositiveWeight):
        make_space(weights)


@pytest.mark.parametrize("values, error", [
    ([], None),
    ([-0.0, 1.0], None),
    ([0.0, 2.0], None),
    ([float("nan")], ZeroDensityAtom),
    ([float("inf")], ZeroDensityAtom),
    ([-float("inf")], ZeroDensityAtom),
    ([-1e-300], ZeroDensityAtom),
    ([[0.5, 0.5]], LengthMismatch),
])
def test_density_accepts_exactly_the_finite_nonnegative_vectors(values, error):
    if error is None:
        assert np.array_equal(Density(values).values, values)
    else:
        with pytest.raises(error):
            Density(values)


NAN, INF = float("nan"), float("inf")


# a bad vector for Density, and a block that holds it as a row (or has the wrong rank)
@pytest.mark.parametrize("vector, block, error", [
    ([0.5, NAN], [[0.5, 0.5], [0.5, NAN]], ZeroDensityAtom),
    ([INF, 0.5], [[INF, 0.5]], ZeroDensityAtom),
    ([-INF, 0.5], [[-INF, 0.5]], ZeroDensityAtom),
    ([0.5, -1e-300], [[0.5, 0.5], [0.5, -1e-300]], ZeroDensityAtom),
    (["a", 0.5], [["a", 0.5]], ZeroDensityAtom),
    ([[1.0], [1.0, 2.0]], [[[1.0], [1.0, 2.0]]], ZeroDensityAtom),
    ([[0.5, 0.5]], [0.5, 0.5], LengthMismatch),
    ([[0.5, 0.5]], [[[0.5, 0.5]]], LengthMismatch),
], ids=["nan", "inf", "-inf", "negative", "string", "ragged", "rank_1_block", "rank_3_block"])
def test_a_block_is_refused_as_its_bad_row_is(vector, block, error):
    with pytest.raises(error):
        Density(vector)
    with pytest.raises(error):
        _density_rows(block)


@pytest.mark.parametrize("block", [
    np.array([[0.25, 0.75, 0.0], [-0.0, 1.5, 1e-300]]),
    np.random.default_rng(3).exponential(1.0, (5, 7)),
    np.empty((0, 4)),
])
def test_each_row_of_a_block_is_a_view_with_the_bits_of_a_density(block):
    rows = _density_rows(block)
    assert len(rows) == len(block)
    for row, d in zip(block, rows):
        assert type(d) is Density and np.shares_memory(d.values, block)
        assert d.values.tobytes() == Density(row).values.tobytes()


def test_validate_probability_ok(counting2):
    validate_density(Density([0.5, 0.5]), counting2, probability=True)
    validate_density(Density([0.25, 0.75]), counting2, probability=True)


def test_validate_reports_bad_sum(counting2):
    with pytest.raises(NormalizationFailure) as exc:
        validate_density(Density([0.5, 0.4]), counting2, probability=True)
    assert exc.value.total == pytest.approx(0.9)


def test_validate_strictly_positive(counting2):
    with pytest.raises(ZeroDensityAtom):
        validate_density(Density([1.0, 0.0]), counting2, strictly_positive=True)


def test_validate_length_mismatch(counting2):
    with pytest.raises(LengthMismatch):
        validate_density(Density([1.0]), counting2)


def test_validate_is_pure(counting2):
    d = Density([0.5, 0.5])
    before = d.values.copy()
    for _ in range(3):
        validate_density(d, counting2, strictly_positive=True, probability=True)
    assert np.array_equal(d.values, before)


def test_probability_density_normalize_flag(counting2):
    d = probability_density([2.0, 2.0], counting2, normalize=True)
    assert np.allclose(d.values, [0.5, 0.5])
    with pytest.raises(NormalizationFailure):
        probability_density([2.0, 2.0], counting2)


def test_bundle_shares_space(counting2):
    b = make_bundle(counting2, [[0.5, 0.5], [0.25, 0.75]])
    assert len(b) == 2
    with pytest.raises(LengthMismatch):
        DensityBundle(counting2, (Density([1.0]),))


# records that hold arrays: numpy's == has no single truth value, so they
# compare by identity and hash by id
RECORDS = {
    "MeasureSpace": lambda: make_space([0.5, 1.5]),
    "Density": lambda: Density([0.5, 1.5]),
    "DensityBundle": lambda: DensityBundle(make_space([1.0, 1.0]), (Density([0.5, 1.5]),)),
    "DivergenceReport": lambda: DivergenceReport(1.0, np.array([0.5, 1.5])),
    "FactorDecomposition": lambda: FactorDecomposition(np.ones(2), (np.ones(2),)),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_records_that_hold_arrays_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert len({a, b, a}) == 2 and {a: 1}[a] == 1
