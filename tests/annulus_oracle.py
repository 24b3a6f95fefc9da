"""Off-grid oracles for annulus data at arbitrary points z of the annulus.

Laurent data and an `AnnulusMap` z_j -> z_j g_j(z) are evaluated through the
angles theta = -i log z, point by point with `eval_many`, so these oracles
share no grid or FFT code with the residual witnesses of `realize_form` or
the grid reads of the pipeline.  The map oracles take f itself from
`eval_many` rather than from the image theta + f, which would round f off
at the scale of theta.
"""

import numpy as np

from torusnf.realization import AnnulusFunction
from torusnf.series import PeriodicSeries, eval_many

from oracles import eval_points


def eval_z(f, zpts):
    """Laurent data f (an `AnnulusFunction`) at (m, n) points z."""
    zpts = np.asarray(zpts, dtype=complex)
    return eval_points(f.series, -1j * np.log(zpts))


def holo_components(p):
    """q_j = i z_j p_j: the Laurent components of the holomorphic field
    v = sum_j q_j d/dz_j whose conjugated angle field is p."""
    return [AnnulusFunction(1j * PeriodicSeries(
                np.roll(c.pad_to(c.N + 1).coeffs, 1, axis=j)))
            for j, c in enumerate(p.components)]


def divergence_z(q):
    """div_z v = sum_j d q_j / d z_j of v = sum_j q_j d/dz_j, as a series."""
    return sum(q_j.z_derivative(j).series for j, q_j in enumerate(q))


def apply_z(psi, zpts):
    """z' = e^{i (theta + f)} = z e^{i f}."""
    zpts = np.asarray(zpts, dtype=complex)
    f = eval_many(psi.to_torus_lift().parts, -1j * np.log(zpts))
    return zpts * np.exp(1j * f.T)


def det_jacobian_z(psi, zpts):
    """det D_z psi = e^{i sum_j f_j} det(I + grad f), from one `eval_many`
    call over the parts and their first derivatives."""
    theta = -1j * np.log(np.asarray(zpts, dtype=complex))
    parts = psi.to_torus_lift().parts
    n = len(parts)
    grads = [p.derivative(l) for p in parts for l in range(n)]
    vals = eval_many(parts + tuple(grads), theta)
    jac = np.eye(n, dtype=int) + vals[n:].T.reshape(-1, n, n)
    return np.exp(1j * vals[:n].sum(axis=0)) * np.linalg.det(jac)
