"""Empirical interpolation of parameter-dependent nodal fields.

The interpolant of a field w is sum_m beta_m q_m with the coefficients
solving the lower triangular system B beta = w(t), where t are the
interpolation points (dof indices, so point evaluation is exact) and
B[i, m] = q_m(t_i).  Basis fields are residuals of the greedy sweep,
normalized to unit sup norm over the dofs.

A snapshot provider maps a list of P parameters to the fields of those
parameters and a dict {index: exception} of the parameters whose field
it could not compute (a Newton or linear solver failure); those rows hold
no field.  The fields need only be sliceable by row ranges:
``fields[lo:hi]`` is a (hi - lo, ndof) float array of dof values, one row
per parameter, so a plain (P, ndof) array qualifies, and so does a lazy
block that makes each range on request (``ser.GBlock``).  A greedy step
asks for the whole training set at once and walks it in chunks of rows
that fit in cache; it owns every slice it takes and overwrites it with
the interpolation residuals, so each chunk costs one triangular solve
with one right-hand side per row and one (rows, M) @ (M, ndof) product,
and only the best residual so far is kept.  Swapping a provider of
truth solutions for one of reduced solutions is what turns the standard
training loop into the simultaneous build.
"""

from dataclasses import dataclass

import numpy as np

# a greedy step saturates below max(SATURATION_FLOOR, SATURATION_REL times
# the largest training error recorded so far)
SATURATION_FLOOR = 1e-14
SATURATION_REL = 1e-13
# doubles per chunk of rows in a greedy step (1 MB): a chunk and its
# residual stay in a core's L2 cache from the provider to the sup errors
BUDGET = 2 ** 17


class DegenerateSnapshot(ValueError):
    """First snapshot is identically zero; pick a different first parameter."""


class DegenerateInterpolationPoint(RuntimeError):
    """Greedy residual peaks at an already selected interpolation point."""


class EimTrainingError(RuntimeError):
    """Too many provider failures during a greedy sweep."""


class EimBasis:
    """Interpolation basis: fields q_m, points t_m and the matrix B."""

    def __init__(self, space):
        self.space = space
        self.fields = []        # unit-sup-norm dof vectors, append only
        self.t = []             # interpolation point dof indices
        self.B = np.zeros((0, 0))
        self.mus = []           # parameter selected at each step
        self.train_errors = []  # sup error before each enrichment

    @property
    def M(self):
        return len(self.t)

    def field_matrix(self):
        """Stacked basis fields, shape (M, ndof)."""
        return np.array(self.fields)

    def coeffs(self, values_at_points):
        """Solve B beta = w(t) by forward substitution, a row at a time
        (numpy's LU solve of one vector rounds otherwise, and the
        surrogate snapshots of a build read these bits)."""
        w = np.asarray(values_at_points, dtype=float)
        if w.shape != (self.M,):
            raise ValueError(f"expected {self.M} point values, got {w.shape}")
        B = self.B
        beta = np.zeros(self.M)
        for i in range(self.M):
            beta[i] = (w[i] - B[i, :i] @ beta[:i]) / B[i, i]
        return beta

    def evaluate(self, beta):
        """Field sum_m beta_m q_m as a dof-value array."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.M,):
            raise ValueError(f"expected {self.M} coefficients, got {beta.shape}")
        if self.M == 0:
            return np.zeros(self.space.ndof)
        return self.field_matrix().T @ beta

    def interpolate(self, values):
        """Interpolant of a full nodal field (exact at the points t)."""
        values = np.asarray(values, dtype=float)
        if self.M == 0:
            return np.zeros_like(values)
        return self.evaluate(self.coeffs(values[self.t]))

    def sup_error(self, values):
        values = np.asarray(values, dtype=float)
        return float(np.max(np.abs(values - self.interpolate(values))))

    def append_from_residual(self, residual, mu, recorded_error):
        """Normalize a greedy residual into the next basis field.

        The new point is the dof where |residual| peaks (first index on
        ties); reusing an existing point means the basis is degenerate.
        The residual of an interpolant vanishes at the existing points,
        so the roundoff left there is cleared, keeping the interpolation
        matrix exactly unit lower triangular.
        """
        r = np.asarray(residual, dtype=float)
        t_new = int(np.argmax(np.abs(r)))
        if t_new in self.t:
            raise DegenerateInterpolationPoint(
                f"residual peaks at already used dof {t_new}")
        q = r / r[t_new]
        q[np.asarray(self.t, dtype=int)] = 0.0
        m = self.M
        newb = np.empty((m + 1, m + 1))
        newb[:m, :m] = self.B
        for k, f in enumerate(self.fields):
            newb[m, k] = f[t_new]
        newb[:m, m] = q[self.t]
        newb[m, m] = q[t_new]
        self.B = newb
        self.fields.append(q)
        self.t.append(t_new)
        self.mus.append(mu)
        self.train_errors.append(float(recorded_error))


@dataclass
class GreedyStep:
    mu: tuple | None
    sup_error: float
    saturated: bool
    skipped: list
    errors: np.ndarray  # per-sample sup errors, nan = skipped


def eim_initialize(space, provider, samples):
    """Start a basis from the first sample: q_1 = w / w(t_1), t_1 = argmax |w|."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    mu1 = samples[0]
    fields, failures = provider([mu1])
    if failures:
        raise failures[0]
    w = fields[0:1][0]
    sup = float(np.max(np.abs(w)))
    if sup == 0.0:
        raise DegenerateSnapshot(
            f"snapshot at first sample {tuple(map(float, mu1))} is "
            "identically zero")
    basis = EimBasis(space)
    basis.append_from_residual(w, tuple(mu1), sup)
    return basis


def eim_greedy_step(basis, provider, samples):
    """One greedy enrichment: pick the worst-approximated sample, add its residual.

    Samples the provider failed on, and rows that are not finite, are
    skipped for this sweep; more than half the set skipped aborts.  A sup
    error below the saturation threshold returns a saturated step without
    enriching.
    """
    if basis.M < 1:
        raise ValueError("initialize the basis before greedy steps")
    fields, failures = provider(samples)
    n_samples = len(samples)
    t_idx = np.asarray(basis.t, dtype=int)
    q = basis.field_matrix()
    bad = np.zeros(n_samples, dtype=bool)
    bad[list(failures)] = True
    errors = np.full(n_samples, np.nan)
    best, best_err, best_residual = None, -np.inf, None
    rows = max(1, BUDGET // basis.space.ndof)
    for lo in range(0, n_samples, rows):
        hi = min(lo + rows, n_samples)
        # the chunk becomes the interpolation residuals, in place
        chunk = fields[lo:hi]
        chunk_bad = bad[lo:hi]
        chunk_bad |= ~np.all(np.isfinite(chunk), axis=1)
        chunk[chunk_bad] = 0.0
        # B is unit lower triangular with no entry above 1 in size, so
        # the LU solve pivots no row and runs the triangular solve
        beta = np.linalg.solve(basis.B, chunk[:, t_idx].T)
        chunk -= beta.T @ q
        err = np.maximum(chunk.max(axis=1), -chunk.min(axis=1))
        err[chunk_bad] = np.nan
        errors[lo:hi] = err
        if np.isnan(err).all():
            continue
        k = int(np.nanargmax(err))
        # strictly larger: on ties the first sample wins, as in one argmax
        if err[k] > best_err:
            best, best_err, best_residual = lo + k, float(err[k]), chunk[k].copy()
    skipped = [(k, tuple(samples[k]),
                str(failures[k]) if k in failures else "snapshot field overflowed")
               for k in np.flatnonzero(bad).tolist()]
    if 2 * len(skipped) > n_samples:
        raise EimTrainingError(
            f"{len(skipped)} of {n_samples} samples failed during the sweep; "
            f"first failure: {skipped[0][2]}")
    if best is None:
        raise EimTrainingError("every sample failed during the sweep")
    best_mu = tuple(samples[best])
    # saturation is judged against the largest error seen: the first
    # snapshot (at the first training parameter) can sit orders of
    # magnitude below the manifold scale
    floor = max(SATURATION_FLOOR, SATURATION_REL * max(basis.train_errors))
    if best_err < floor:
        return GreedyStep(mu=best_mu, sup_error=best_err, saturated=True,
                          skipped=skipped, errors=errors)
    basis.append_from_residual(best_residual, best_mu, best_err)
    return GreedyStep(mu=best_mu, sup_error=best_err, saturated=False,
                      skipped=skipped, errors=errors)
