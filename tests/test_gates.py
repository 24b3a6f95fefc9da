"""The one gate: every refusal names its code, value and limit, and NaN
never passes.

Each probe feeds one NaN coefficient to an entry point and expects the
refusal of the first gate on its path, by code.  A NaN argument that the
entry point checks by hand is refused there, with a ValueError, before any
gate runs.
"""

import numpy as np
import pytest

from torusnf.errors import (
    GATES,
    HypothesisViolation,
    NumericalFailure,
    above,
    at_most,
)
from torusnf.fibering import fibering_step
from torusnf.flows import TorusMapLift, flow, invert_map
from torusnf.moser import moser_normalize
from torusnf.pipeline import (
    STAGE_TOL,
    TorusEmbedding,
    modulus_phase_split,
    normal_form_curve,
    normalize_embedding,
)
from torusnf.series import PeriodicSeries, divide

from test_flows import stream_field
from test_pipeline import rich_profile, seeded_embedding
from test_series import random_series


def with_nan(h, k):
    """h with its coefficient at the multi-index k set to NaN."""
    c = np.array(h.coeffs)
    c[tuple(j + h.N for j in k)] = np.nan
    return PeriodicSeries(c, real=h.real)


@pytest.mark.parametrize("code", sorted(GATES))
def test_nan_is_refused_with_code_value_and_limit(code):
    for gate in (at_most, above):
        with pytest.raises(GATES[code][0]) as err:
            gate(code, np.nan, 1.0)
        assert err.value.bound == code and code in str(err.value)
        assert np.isnan(err.value.value) and err.value.limit == 1.0


def test_at_the_limit_at_most_accepts_and_above_refuses():
    at_most("(phase)", STAGE_TOL, STAGE_TOL)
    with pytest.raises(NumericalFailure) as err:
        above("(denominator)", 1e-8, 1e-8)
    assert (err.value.value, err.value.limit) == (1e-8, 1e-8)


def test_embedding_with_a_nan_coefficient():
    emb, _ = seeded_embedding(1e-3)
    first = with_nan(emb.components[0], (1, 0))
    emb = TorusEmbedding((first,) + emb.components[1:], emb.r0)
    with pytest.raises(NumericalFailure, match="not totally real") as err:
        normalize_embedding(emb)
    assert err.value.bound == "(jacobian)"


def test_flow_of_a_nan_field():
    v = stream_field(np.random.default_rng(3))
    v = (v[0], with_nan(v[1], (1, 1)))
    with pytest.raises(HypothesisViolation) as err:
        flow(v, 1.0, 0.5, 0.1, N_out=8)
    assert err.value.bound == "(z1)"


def test_flow_for_a_nan_time():
    v = stream_field(np.random.default_rng(3))
    with pytest.raises(ValueError, match=r"\|t\| <= 1"):
        flow(v, np.nan, 0.5, 0.1, N_out=8)


def test_normal_form_curve_of_a_nan_amplitude():
    k = rich_profile(1e-3)
    with pytest.raises(ValueError, match="amplitude must be positive"):
        normal_form_curve(k, np.nan)


def test_normal_form_curve_of_a_nan_mean_profile():
    k = with_nan(rich_profile(1e-3), (0,))
    with pytest.raises(ValueError, match="zero mean"):
        normal_form_curve(k, 1.0)


def test_moser_of_a_nan_density():
    b = with_nan(1e-3 * random_series(np.random.default_rng(4), 2, 3),
                 (0, 0))
    with pytest.raises(NumericalFailure, match="vanishes") as err:
        moser_normalize(b, N_out=7)
    assert err.value.bound == "(density)"


def test_polar_split_of_nan_data():
    a = with_nan(1e-3 * random_series(np.random.default_rng(5), 2, 3,
                                      real=False), (2, -1))
    with pytest.raises(HypothesisViolation) as err:
        modulus_phase_split(a)
    assert err.value.bound == "(branch)"


def test_fibering_step_on_a_nan_leading_part():
    h = with_nan(1e-3 * random_series(np.random.default_rng(8), 2, 3), (2, 0))
    with pytest.raises(HypothesisViolation) as err:
        fibering_step(h, 0.25, 0.1)
    assert err.value.bound == "(p4)"


def test_divide_by_a_nan_denominator():
    num = random_series(np.random.default_rng(6), 2, 3)
    den = with_nan(PeriodicSeries.constant(2, 3, 1.0), (1, 0))
    with pytest.raises(NumericalFailure) as err:
        divide(num, den, N_out=6)
    assert err.value.bound == "(denominator)"


def test_inverse_of_a_nan_lift_is_refused_before_any_step():
    rng = np.random.default_rng(7)
    parts = [1e-4 * random_series(rng, 2, 3) for _ in range(2)]
    phi = TorusMapLift(np.eye(2, dtype=int), [parts[0], with_nan(parts[1],
                                                                 (0, 1))])
    with pytest.raises(HypothesisViolation) as err:
        invert_map((phi,), 0.25, N_out=7)
    assert err.value.bound == "(nf)"
