"""Workloads of the torusnf benchmark.

Each workload makes a batch of inputs from the seed, calls one public entry
point per item (`normalize_embedding` or `realize_form`) and gates every
output with the bounds of the test suite.  The program only ever sees the
generated inputs; the seed's own invariants are the reference.
"""

import dataclasses
import hashlib
import time

import numpy as np

from torusnf import pipeline, realization
from torusnf.curves import CurveImmersion
from torusnf.errors import HypothesisViolation, TorusNFError
from torusnf.flows import TorusMapLift
from torusnf.series import PeriodicSeries

# Gates, as in tests/test_pipeline.py and tests/test_realization.py.
INVARIANT_TOL = 1e-6    # |rho0 - rho0_seed| and the profile distance
RESIDUAL_TOL = 1e-8     # phase_residual and volume_residual
DET_TOL = 1e-7          # det_residual, and the finite-difference witness
INVERSE_TOL = 1e-9      # inverse_residual

R0 = 0.5
# The n = 3 generating curve carries round-off coefficients near 1e-18 at
# high degree; the (f-id) closeness gate weights them by e^{r0 sum|k|} and
# refuses the unchopped embedding.  Chopping at this floor drops about 1e-15.
CURVE_CHOP = 1e-15
# rho0 - 1 is drawn uniformly from +-AMPLITUDE_SPREAD.  A normal draw of this
# scale leaves the (na) volume-normalization region about 1% of the time at
# n = 2 and more often at n = 3, which would make refusals seed-dependent.
AMPLITUDE_SPREAD = 5e-4


@dataclasses.dataclass
class Item:
    input: object
    reference: object        # (rho0, k) of the seed, or the density a
    chop_mass: float = 0.0   # coefficient mass dropped by CURVE_CHOP


@dataclasses.dataclass
class Outcome:
    seconds: float
    error: float = float("nan")   # against the reference; nan when refused
    failure: str = ""             # empty when the item passed its gate
    fingerprint: str = ""         # digest of the output, for bit-exact checks


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    batch: int                # distinct inputs made from one seed
    make_item: object         # rng -> Item
    make_warm_input: object   # () -> small fixed input for the warm-up call
    call: object              # input -> output
    check: object             # (output, Item) -> (error, failure)
    fingerprint: object       # output -> hex digest
    entry: str                # traced layer of the entry point
    layers: tuple             # traced layers this workload must reach

    def make_batch(self, seed):
        rng = np.random.default_rng(seed)
        return [self.make_item(rng) for _ in range(self.batch)]

    def run(self, item):
        start = time.perf_counter()
        try:
            out = self.call(item.input)
        except TorusNFError as err:
            seconds = time.perf_counter() - start
            bound = f" {err.bound}" if isinstance(err, HypothesisViolation) else ""
            return Outcome(seconds, failure=f"{type(err).__name__}{bound}: {err}")
        seconds = time.perf_counter() - start
        error, failure = self.check(out, item)
        return Outcome(seconds, error, failure, self.fingerprint(out))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a)).tobytes())
    return h.hexdigest()


def _random_series(rng, n, N, decay, real):
    """Random coefficients decaying like e^{-decay |k|} per axis."""
    shape = (2 * N + 1,) * n
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = np.exp(-decay * np.abs(np.arange(-N, N + 1)))
    for j in range(n):
        sh = [1] * n
        sh[j] = 2 * N + 1
        c = c * w.reshape(sh)
    s = PeriodicSeries(c)
    return s.symmetrized() if real else s


def _profile(rng, size, N=3):
    """Zero-mean profile of degree N and coefficient l1 norm `size`.

    Every harmonic gets the same modulus and a random phase.  Coefficient
    moduli then fix which powers of the profile survive CURVE_CHOP, so the
    degree of the generating curve, and with it the problem size, does not
    depend on the seed.  With random moduli an n = 3 input now and then
    keeps one more degree and costs about ten times as much.
    """
    c = size / (2 * N) * np.exp(2j * np.pi * rng.uniform(size=N))
    return PeriodicSeries(np.concatenate([np.conj(c[::-1]), [0.0], c]), real=True)


def _seeded_curve(rng, size):
    k = pipeline.exactness_correct(_profile(rng, size))
    rho0 = 1.0 + AMPLITUDE_SPREAD * rng.uniform(-1.0, 1.0)
    g, _ = pipeline.normal_form_curve(k, rho0)
    return g, rho0, k


def make_n2_reparam(rng):
    """Normal form reparametrized by a map that does not preserve volume."""
    g, rho0, k = _seeded_curve(rng, 3e-4)
    emb = pipeline.normal_form_embedding(g, 2, R0)
    parts = [2e-5 * _random_series(rng, 2, 3, 0.7, real=True) for _ in range(2)]
    lift = TorusMapLift(np.eye(2, dtype=int), parts)
    return Item(pipeline.precompose_torus_map(emb, lift), (rho0, k))


def make_n3_seeded(rng):
    g, rho0, k = _seeded_curve(rng, 1e-4)
    chopped = g.series.chop(CURVE_CHOP)
    emb = pipeline.normal_form_embedding(CurveImmersion(chopped), 3, R0)
    return Item(emb, (rho0, k), chop_mass=chopped.trunc_mass - g.series.trunc_mass)


def make_annulus(rng):
    """Degree-8 Laurent density of norm 1e-4 at r0 without the 1/(z1 z2) term."""
    s = _random_series(rng, 2, 8, 0.8, real=False)
    c = np.array(s.coeffs)
    c[7, 7] = 0.0   # the all-(-1) monomial obstructs realization
    a = realization.AnnulusFunction(PeriodicSeries(c))
    a = a * (1e-4 / a.norm(R0))
    return Item(a, a)


def _warm_embedding():
    k = pipeline.exactness_correct(
        PeriodicSeries.from_terms(1, 3, {(2,): -5e-4j, (-2,): 5e-4j}))
    g, _ = pipeline.normal_form_curve(k, 1.0)
    return pipeline.normal_form_embedding(g, 2, R0)


def _warm_density():
    return realization.AnnulusFunction.from_terms(
        2, 2, {(1, 0): 1e-5, (0, 1): 1e-5j})


# The entry points are looked up on their modules at call time, so a tracer
# that rebinds them there sees the call.
def _normalize(emb):
    return pipeline.normalize_embedding(emb)


def _realize(a):
    return realization.realize_form(a, R0)


def _profile_values(k, t, shift):
    j = np.arange(-k.N, k.N + 1)
    return (k.coeffs * np.exp(1j * j * shift)) @ np.exp(1j * np.outer(j, t))


def profile_distance(k_ref, k_out, M=4096):
    """Sup-grid distance of two profiles, minimized over the half turn."""
    t = 2.0 * np.pi * np.arange(M) / M
    ref = _profile_values(k_ref, t, 0.0)
    return min(float(np.max(np.abs(_profile_values(k_out, t, s) - ref)))
               for s in (0.0, np.pi))


def _check_invariant(rep, item):
    rho0, k = item.reference
    error = max(abs(rep.rho0 - rho0), profile_distance(k, rep.k))
    bad = [f"{name} {value:.3e} > {tol:.0e}" for name, value, tol in (
        ("invariant error", error, INVARIANT_TOL),
        ("phase_residual", rep.phase_residual, RESIDUAL_TOL),
        ("volume_residual", rep.volume_residual, RESIDUAL_TOL))
        if not value <= tol]
    return error, "; ".join(bad)


def _laurent(f, z):
    """Values at (m, 2) points z of a 2-D Laurent polynomial, by direct sum."""
    e = np.arange(-f.N, f.N + 1)
    return np.einsum("ij,mi,mj->m", f.series.coeffs, z[:, :1] ** e, z[:, 1:] ** e)


def density_witness(phi, a, M=16, h=1e-5):
    """sup |det D phi - (1 + a)| on the 2-torus, by central differences.

    phi_j(z) = z_j exp(log g_j(z)) is summed here from the returned
    coefficients, so the witness shares no evaluation code with the program
    and makes no traced call.
    """
    t = 2.0 * np.pi * np.arange(M) / M
    z = np.exp(1j * np.stack(np.meshgrid(t, t, indexing="ij"), -1).reshape(-1, 2))

    def apply(w):
        return np.stack([w[:, j] * np.exp(_laurent(lg, w))
                         for j, lg in enumerate(phi.log_g)], axis=-1)

    jac = np.empty((z.shape[0], 2, 2), dtype=complex)
    for l in range(2):
        dz = np.zeros(2)
        dz[l] = h
        jac[:, :, l] = (apply(z + dz) - apply(z - dz)) / (2.0 * h)
    return float(np.max(np.abs(np.linalg.det(jac) - 1.0 - _laurent(a, z))))


def _check_realization(res, item):
    witness = density_witness(res.phi, item.reference)
    bad = [f"{name} {value:.3e} > {tol:.0e}" for name, value, tol in (
        ("det_residual", res.det_residual, DET_TOL),
        ("inverse_residual", res.inverse_residual, INVERSE_TOL),
        ("finite-difference det residual", witness, DET_TOL))
        if not value <= tol]
    if not res.converged:
        bad.append("not converged")
    return res.det_residual, "; ".join(bad)


def _fingerprint_report(rep):
    return _digest([rep.rho0, rep.phase_residual, rep.volume_residual],
                   rep.k.coeffs, rep.normalizer.D,
                   *(p.coeffs for p in rep.normalizer.parts))


def _fingerprint_realization(res):
    return _digest([res.det_residual, res.inverse_residual],
                   *(lg.series.coeffs for lg in res.phi.log_g))


_SERIES = ("series.eval_many", "series.PeriodicSeries.eval_real_grid",
           "series.series_from_real_grid")
# A seeded normal form needs no fibering step, so n3-seeded never flows.
_SEEDED_LAYERS = _SERIES + (
    "series.divide", "flows.compose_maps", "flows.MapChain.to_single",
    "flows.TorusMapLift.pullback", "flows.invert_map", "flows.MapChain.apply",
    "flows.MapChain.jacobian_det", "pipeline.jacobian_density",
    "pipeline.modulus_phase_split", "moser.moser_normalize",
    "fibering.fibering_normalize", "curves.gauss_degree",
    "pipeline.normalize_embedding")
_REPARAM_LAYERS = _SEEDED_LAYERS + ("flows.flow", "fibering.fibering_step")
_REALIZE_LAYERS = _SERIES + (
    "flows.flow", "flows.compose_maps", "flows.MapChain.to_single",
    "flows.MapChain.apply", "realization.realization_step",
    "realization.realize_form")

WORKLOADS = {w.name: w for w in (
    # Moser does real work and fibering takes two steps; RK4 flows, spent in
    # eval_many point evaluation, dominate.
    Workload("n2-reparam", 6, make_n2_reparam, _warm_embedding, _normalize,
             _check_invariant, _fingerprint_report,
             "pipeline.normalize_embedding", _REPARAM_LAYERS),
    # No flow at all: off-grid composition, the residual witness and the
    # n = 3 Jacobian density dominate, so a flow-only change should not
    # move it.
    Workload("n3-seeded", 1, make_n3_seeded, _warm_embedding, _normalize,
             _check_invariant, _fingerprint_report,
             "pipeline.normalize_embedding", _SEEDED_LAYERS),
    # Complex conjugated fields with the log-det line integrand, and the
    # second inverter: a flow or inverter rewrite must not break this path.
    Workload("annulus-realize", 8, make_annulus, _warm_density, _realize,
             _check_realization, _fingerprint_realization,
             "realization.realize_form", _REALIZE_LAYERS),
)}
