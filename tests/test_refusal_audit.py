"""Every refusal names a measured cause, and every acceptance meets the bounds.

Draws n = 2 normal forms with amplitude rho0 in [0.8, 1.3] behind random
reparametrizations of size up to 1e-3, and annulus densities of norm up to
2e-2.  A run either refuses with `NumericalFailure` or with a violated bound
measured on the run itself, or it returns a result inside the bounds the
benchmark gates its outputs with.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torusnf.errors import HypothesisViolation, NumericalFailure
from torusnf.fibering import phase_profile_distance
from torusnf.flows import TorusMapLift
from torusnf.pipeline import normalize_embedding, precompose_torus_map
from torusnf.realization import realize_form

from annulus_oracle import det_jacobian_z, eval_z
from test_pipeline import seeded_embedding
from test_realization import random_annulus_function, torus_points
from test_series import random_series

MEASURED_BOUNDS = {"(branch)", "(z1)", "(nf)", "(p4)", "(kn)"}
INVARIANT_TOL = 1e-6
RESIDUAL_TOL = 1e-8
DET_TOL = 1e-7
INVERSE_TOL = 1e-9

audit = settings(derandomize=True, database=None, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)


def accepted(run):
    """run(), or None when it refuses for a measured cause."""
    try:
        return run()
    except NumericalFailure:
        return None
    except HypothesisViolation as err:
        assert err.bound in MEASURED_BOUNDS, str(err)
        return None


@settings(audit, max_examples=14)
@given(rho0=st.floats(0.8, 1.3), scale=st.floats(0.0, 1e-3), seed=seeds)
def test_normal_form_behind_a_reparametrization(rho0, scale, seed):
    emb, k_seed = seeded_embedding(1e-3, rho0)
    rng = np.random.default_rng(seed)
    parts = [scale * random_series(rng, 2, 3) for _ in range(2)]
    emb = precompose_torus_map(emb, TorusMapLift(np.eye(2, dtype=int), parts))
    rep = accepted(lambda: normalize_embedding(emb))
    if rep is None:
        return
    assert abs(rep.rho0 - rho0) <= INVARIANT_TOL
    assert phase_profile_distance(
        k_seed, rep.k, allow_half_turn=True) <= INVARIANT_TOL
    assert rep.phase_residual <= RESIDUAL_TOL
    assert rep.volume_residual <= RESIDUAL_TOL


@settings(audit, max_examples=30)
@given(norm=st.floats(0.0, 2e-2), seed=seeds)
def test_annulus_density(norm, seed):
    a = random_annulus_function(np.random.default_rng(seed), 2, 8, 0.5, norm)
    res = accepted(lambda: realize_form(a, 0.5))
    if res is None:
        return
    assert res.converged
    assert res.det_residual <= DET_TOL
    assert res.inverse_residual <= INVERSE_TOL
    # the realized Jacobian by the direct sum, away from the witness grid
    z = torus_points(2, 13)
    witness = np.max(np.abs(det_jacobian_z(res.phi, z) - 1.0 - eval_z(a, z)))
    assert witness <= DET_TOL
