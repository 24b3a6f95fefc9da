"""Off-grid oracles for annulus data at arbitrary points z of the annulus.

Laurent data (a series) and an `AnnulusMap` z_j -> z_j g_j(z) are evaluated
through the angles theta = -i log z, point by point with `eval_many`, so
these oracles share no grid or FFT code with the residual witnesses of
`realize_form` or the grid reads of the pipeline.  The map oracles take
f = -i log g itself from `eval_many` rather than from the image theta + f,
which would round f off at the scale of theta.  The z-derivatives of
`divergence_z` are taken term by term here, not by the package.
"""

import numpy as np

from torusnf.series import PeriodicSeries, eval_many

from oracles import eval_points


def eval_z(f, zpts):
    """Laurent data f (a series) at (m, n) points z."""
    zpts = np.asarray(zpts, dtype=complex)
    return eval_points(f, -1j * np.log(zpts))


def holo_components(p):
    """q_j = i z_j p_j: the Laurent components of the holomorphic field
    v = sum_j q_j d/dz_j whose conjugated angle field is p."""
    return [1j * PeriodicSeries(np.roll(c.pad_to(c.N + 1).coeffs, 1, axis=j))
            for j, c in enumerate(p)]


def divergence_z(q):
    """div_z v = sum_j d q_j / d z_j of v = sum_j q_j d/dz_j, as a series,
    by the power rule d/dz_j z^I = I_j z^{I - e_j} on each stored term."""
    n, N = q[0].n, max(q_j.N for q_j in q)
    terms = {}
    for j, q_j in enumerate(q):
        for idx in zip(*np.nonzero(q_j.coeffs)):
            I = np.array(idx) - q_j.N
            if I[j]:
                out = tuple(I - np.eye(n, dtype=int)[j])
                terms[out] = terms.get(out, 0.0) + I[j] * q_j.coeffs[idx]
    return PeriodicSeries.from_terms(n, N + 1, terms)


def _angle_parts(psi):
    """f_j = -i log g_j, the parts of the torus lift theta + f of psi."""
    return [-1j * lg.series for lg in psi.log_g]


def apply_z(psi, zpts):
    """z' = e^{i (theta + f)} = z e^{i f}."""
    zpts = np.asarray(zpts, dtype=complex)
    f = eval_many(_angle_parts(psi), -1j * np.log(zpts))
    return zpts * np.exp(1j * f.T)


def det_jacobian_z(psi, zpts):
    """det D_z psi = e^{i sum_j f_j} det(I + grad f), from one `eval_many`
    call over the parts and their first derivatives."""
    theta = -1j * np.log(np.asarray(zpts, dtype=complex))
    parts = _angle_parts(psi)
    n = len(parts)
    grads = [p.derivative(l) for p in parts for l in range(n)]
    vals = eval_many(parts + grads, theta)
    jac = np.eye(n, dtype=int) + vals[n:].T.reshape(-1, n, n)
    return np.exp(1j * vals[:n].sum(axis=0)) * np.linalg.det(jac)
