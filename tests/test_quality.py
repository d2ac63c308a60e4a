"""Quality filters: combining formula, EWMA behavior, classification."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vroverlay.errors import OutOfRange
from vroverlay.quality import (
    LinkState,
    QualityFactor,
    classify_link,
    raw_quality,
    update_ewma,
    _blend,
)

LINK = (1, 2)


def test_perfect_link_scores_one():
    assert raw_quality(0.0, 0.0) == 1.0


def test_dead_link_scores_zero():
    assert raw_quality(1.0, 0.0) == 0.0
    assert raw_quality(1.0, 5000.0) == 0.0


def test_combining_formula_worked_example():
    # (1 - 0.1) * 200 / (200 + 200) = 0.9 * 0.5 = 0.45, checked by hand.
    assert raw_quality(0.1, 200.0, rtt_ref_ms=200.0) == pytest.approx(0.45, abs=1e-12)


def test_raw_quality_monotone_in_loss_and_rtt():
    losses = [i / 10 for i in range(11)]
    rtts = [0.0, 10.0, 50.0, 200.0, 1000.0]
    for rtt in rtts:
        qs = [raw_quality(loss, rtt) for loss in losses]
        assert qs == sorted(qs, reverse=True)
    for loss in losses:
        qs = [raw_quality(loss, rtt) for rtt in rtts]
        assert qs == sorted(qs, reverse=True)


def test_raw_quality_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        raw_quality(-0.1, 0.0)
    with pytest.raises(OutOfRange):
        raw_quality(1.1, 0.0)
    with pytest.raises(OutOfRange):
        raw_quality(0.0, -1.0)


def test_alpha_one_tracks_sample_exactly():
    state = QualityFactor(link=LINK, alpha=1.0)
    for sample in (0.3, 0.9, 0.1):
        state = update_ewma(state, sample)
        assert state.q == sample


def test_ewma_hand_evaluated_step():
    # q' = 0.2*0.5 + 0.8*1.0 = 0.9, evaluated by hand once.
    state = QualityFactor(link=LINK, q=1.0, alpha=0.2, sample_count=1)
    state = update_ewma(state, 0.5)
    assert state.q == pytest.approx(0.9, abs=1e-12)
    assert state.sample_count == 2


def test_first_sample_initializes_directly():
    state = QualityFactor(link=LINK, alpha=0.25)
    state = update_ewma(state, 0.7, at=5.0)
    assert state.q == 0.7
    assert state.sample_count == 1
    assert state.updated_at == 5.0


def test_geometric_convergence_bound_exact():
    # |q - c| <= (1-alpha)^n for constant input c, any start, n in 1..50.
    alpha = 0.25
    for start in (0.0, 1.0, 0.42):
        for c in (0.0, 1.0, 0.5, 0.87):
            state = QualityFactor(link=LINK, q=start, alpha=alpha, sample_count=1)
            for n in range(1, 51):
                state = update_ewma(state, c)
                assert abs(state.q - c) <= (1.0 - alpha) ** n


def test_update_rejects_out_of_range_sample():
    state = QualityFactor(link=LINK)
    with pytest.raises(OutOfRange):
        update_ewma(state, 1.5)
    with pytest.raises(OutOfRange):
        update_ewma(state, -0.5)


@settings(max_examples=200)
@given(
    start=st.floats(0.0, 1.0),
    alpha=st.floats(0.01, 1.0),
    samples=st.lists(st.floats(0.0, 1.0), max_size=50),
)
def test_range_preservation_property(start, alpha, samples):
    state = QualityFactor(link=LINK, q=start, alpha=alpha, sample_count=1)
    for s in samples:
        state = update_ewma(state, s)
        assert 0.0 <= state.q <= 1.0


def test_determinism_bit_identical_trajectories():
    rng = random.Random(99)
    samples = [rng.random() for _ in range(200)]

    def run():
        state = QualityFactor(link=LINK, alpha=0.25)
        trajectory = []
        for s in samples:
            state = update_ewma(state, s)
            trajectory.append(state.q)
        return trajectory

    assert run() == run()



@pytest.mark.parametrize("q", [0.0, -0.0, 5e-324, 0.1, 2 / 7, 1.0])
@pytest.mark.parametrize("alpha", [0.25, 0.1, 1 / 3, 0.9, 1.0])
def test_a_sample_equal_to_q_updates_as_the_blend_does(q, alpha):
    state = QualityFactor(LINK, q=q, alpha=alpha, updated_at=4.0, sample_count=3)
    updated = update_ewma(state, q, at=9.0)
    assert updated.q.hex() == _blend(alpha, q, q).hex()  # the sign of a zero counts
    assert (updated.sample_count, updated.updated_at) == (4, 9.0)

def test_classification_boundaries():
    assert classify_link(QualityFactor(link=LINK, q=0.0, sample_count=1)) is LinkState.DOWN
    assert classify_link(QualityFactor(link=LINK, q=0.5, sample_count=1)) is LinkState.USABLE
    # Exactly at the threshold stays usable: Down needs strict inequality.
    assert classify_link(QualityFactor(link=LINK, q=0.05, sample_count=1), q_min=0.05) is LinkState.USABLE
    assert classify_link(QualityFactor(link=LINK, q=0.0499, sample_count=1), q_min=0.05) is LinkState.DOWN


def fraction_blend(alpha, sample, q):
    """The EWMA blend evaluated in rationals: the reference for ``_blend``."""
    frac_alpha = Fraction(alpha)
    frac_sample = Fraction(sample)
    exact = frac_alpha * frac_sample + (1 - frac_alpha) * Fraction(q)
    rounded = float(exact)
    if abs(Fraction(rounded) - frac_sample) > abs(exact - frac_sample):
        rounded = math.nextafter(rounded, sample)
    return rounded


unit = st.floats(0.0, 1.0)
EDGES = (0.0, 1.0, 5e-324, 1 - 2**-53)


@settings(max_examples=2000)
@given(alpha=unit.filter(lambda a: a > 0.0), sample=unit, q=unit)
def test_blend_matches_rational_reference(alpha, sample, q):
    assert _blend(alpha, sample, q).hex() == fraction_blend(alpha, sample, q).hex()


def test_blend_matches_rational_reference_on_edge_values():
    for alpha in EDGES[1:] + (0.25, 0.1):
        for sample in EDGES + (0.3,):
            for q in EDGES + (0.7,):
                assert _blend(alpha, sample, q).hex() == fraction_blend(alpha, sample, q).hex()
