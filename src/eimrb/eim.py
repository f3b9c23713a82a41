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

A sweep needs the argmax row, its error and its residual; every other
row only has to be shown smaller.  When the fields offer a screen
(``fields.screen(t, B, q, rows)``, see ``screen``), it gives each row p
a bracket: an estimate e^_p of the error e_p that the float64 pass
computes and a bound d_p on |e^_p - e_p|, inf where it has none.  The
screen brackets some rows as it is made; the step then has it bracket
every other row whose bracket may still hold the largest error
(``SweepErrors.refine``), and runs the float64 pass on every chunk that
holds a row with e^_p + d_p >= max_q (e^_q - d_q), or a row whose
estimate or bound is not finite.  Without a screen that is every chunk.

Every row whose error ties or beats the largest has e^_p + d_p >= e_p >=
max_q (e^_q - d_q), so the largest error and the first row that reaches
it are found in the float64 chunks, in their order: the pick, its error,
its residual and the skipped rows keep the bits of a float64 pass over
every chunk.  ``GreedyStep.errors`` runs the float64 pass on the other
chunks the first time it is read, and ``GreedyStep.bounds`` holds what
the screen carries into the next sweep, which the step does not read.
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
        # (M, ndof) unit-sup-norm fields, one per row, append only: an
        # append makes a new array, so one read earlier stays as it was
        self.fields = np.zeros((0, space.ndof))
        self.t = []             # interpolation point dof indices
        self.B = np.zeros((0, 0))
        self.mus = []           # parameter selected at each step
        self.train_errors = []  # sup error before each enrichment

    @property
    def M(self):
        return len(self.t)

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

    def append_from_residual(self, residual, mu, recorded_error):
        """Normalize a greedy residual into the next basis field.

        The new point is the dof where |residual| peaks, the first in
        dof order on an exact tie (np.argmax of |r|; +a and -a tie).  A
        tie is a matter of rounding: on a symmetric problem two
        mirror-image dofs can hold residuals equal up to the last bit,
        and a change in the last bit of the residual moves the point
        from one to the other.  Reusing an existing point means the
        basis is degenerate.  The field is the residual divided by its
        value at the new point, so it is exactly 1 there and no larger
        than 1 in size anywhere.  The residual of an interpolant
        vanishes at the existing points, so the roundoff left there is
        cleared, keeping the interpolation matrix exactly unit lower
        triangular.  B is then read off the fields, B[i, m] = q_m(t_i).
        """
        r = np.asarray(residual, dtype=float)
        t_new = int(np.argmax(np.abs(r)))
        if t_new in self.t:
            raise DegenerateInterpolationPoint(
                f"residual peaks at already used dof {t_new}")
        q = r / r[t_new]
        q[np.asarray(self.t, dtype=int)] = 0.0
        self.fields = np.vstack([self.fields, q])
        self.t.append(t_new)
        self.B = np.ascontiguousarray(self.fields[:, self.t].T)
        self.mus.append(mu)
        self.train_errors.append(float(recorded_error))


class SweepErrors:
    """The float64 errors of a sweep's samples, nan = skipped, made a
    chunk at a time: a chunk's float64 pass runs when one of its rows may
    be the next one asked for.

    chunk_pass(lo, hi) runs the float64 pass on the rows lo:hi and gives
    their residuals and errors; bad marks the skipped samples, and est
    and dev are the samples' brackets (dev inf for a sample with none).
    screen is the sweep's screen, or None: ``screen.bracket(idx)`` gives
    the brackets of the samples of an index array and marks them in
    ``screen.screened``, and a sample it has not screened is screened
    before a float64 pass runs for it (``refine``).
    """

    def __init__(self, chunk_pass, rows, bad, est, dev, screen):
        self.chunk_pass, self.rows, self.bad = chunk_pass, rows, bad
        self.est, self.dev, self.screen = est, dev, screen
        self.errors = np.full(len(bad), np.nan)
        self.ran = np.zeros(len(bad), dtype=bool)
        self.n_chunks = -(-len(bad) // rows)

    def run(self, i):
        """The float64 pass on chunk i: its residuals and errors."""
        lo, hi = i * self.rows, min((i + 1) * self.rows, len(self.bad))
        chunk, err = self.chunk_pass(lo, hi)
        self.errors[lo:hi] = err
        self.ran[lo:hi] = True
        return chunk, err

    def unsure(self, mask):
        """The samples of the boolean mask whose float64 error may be the
        largest over the mask: est + dev >= max(est - dev), or dev not
        finite."""
        with np.errstate(invalid="ignore"):     # inf - inf where unbounded
            floor = np.max(self.est - self.dev,
                           where=mask & np.isfinite(self.dev), initial=-np.inf)
        return mask & ~(self.est + self.dev < floor)

    def leaders(self, mask):
        """The chunks holding a sample of the boolean mask whose float64
        error may be the largest over the mask."""
        return np.unique(np.flatnonzero(self.unsure(mask))
                         // self.rows).tolist()

    def refine(self, mask):
        """Screen the samples of the boolean mask that the screen has not
        bracketed and whose bracket may still hold the largest error over
        the mask, so that their brackets are the screen's."""
        if self.screen is not None:
            idx = np.flatnonzero(self.unsure(mask) & ~self.screen.screened)
            if len(idx):
                self.est[idx], self.dev[idx] = self.screen.bracket(idx)

    def all(self):
        for i in range(self.n_chunks):
            if not self.ran[i * self.rows]:
                self.run(i)
        return self.errors

    def worst_first(self):
        """Sample indices by decreasing error, skipped samples last, ties
        in sample order (a stable argsort of -errors, nan last).  Each
        next index screens the samples and runs only the chunks that may
        hold it."""
        left = ~self.bad
        count = 0
        while not self.ran.all():
            self.refine(left)
            for i in self.leaders(left):
                if not self.ran[i * self.rows]:
                    self.run(i)
            left &= ~self.bad
            if not left.any():
                break
            known = np.flatnonzero(left & self.ran)
            k = int(known[np.argmax(self.errors[known])])
            yield k
            left[k] = False
            count += 1
        order = np.argsort(np.nan_to_num(-self.all(), nan=np.inf),
                           kind="stable")
        yield from order[count:].tolist()


@dataclass
class GreedyStep:
    mu: tuple | None
    sup_error: float
    saturated: bool
    skipped: list
    confirmed: list         # the chunks whose float64 pass the pick ran
    screened: int | None    # the rows the screen bracketed, None for none
    bounds: object          # what the screen carries on, None for none
    sweep: SweepErrors      # the float64 errors, made on demand

    @property
    def errors(self):
        """Per-sample sup errors of the float64 pass, nan = skipped."""
        return self.sweep.all()


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
    enriching.  The float64 pass runs on the chunks that the fields'
    screen cannot rule out, or on all of them (module docstring).
    """
    if basis.M < 1:
        raise ValueError("initialize the basis before greedy steps")
    fields, failures = provider(samples)
    n_samples = len(samples)
    t_idx = np.asarray(basis.t, dtype=int)
    # the step's own q and B: the errors of the other chunks may be made
    # with them after the basis has grown, which replaces both arrays
    q, B = basis.fields, basis.B
    bad = np.zeros(n_samples, dtype=bool)
    bad[list(failures)] = True
    rows = max(1, BUDGET // basis.space.ndof)

    def chunk_pass(lo, hi):
        # the chunk becomes the interpolation residuals, in place
        chunk = fields[lo:hi]
        chunk_bad = bad[lo:hi]
        chunk_bad |= ~np.all(np.isfinite(chunk), axis=1)
        chunk[chunk_bad] = 0.0
        # B is unit lower triangular with no entry above 1 in size, so
        # the LU solve pivots no row and runs the triangular solve
        beta = np.linalg.solve(B, chunk[:, t_idx].T)
        chunk -= beta.T @ q
        err = np.maximum(chunk.max(axis=1), -chunk.min(axis=1))
        err[chunk_bad] = np.nan
        return chunk, err

    screen = (fields.screen(t_idx, B, q, rows) if hasattr(fields, "screen")
              else None)
    if screen is None:
        est, dev = np.zeros(n_samples), np.full(n_samples, np.inf)
    else:
        est, dev = screen.brackets
    sweep = SweepErrors(chunk_pass, rows, bad, est, dev, screen)
    sweep.refine(np.ones(n_samples, dtype=bool))
    confirmed = sweep.leaders(~bad)
    best, best_err, best_residual = None, -np.inf, None
    for i in confirmed:
        chunk, err = sweep.run(i)
        if np.isnan(err).all():
            continue
        k = int(np.nanargmax(err))
        # strictly larger: on ties the first sample wins, as in one argmax
        if err[k] > best_err:
            best, best_err, best_residual = (i * rows + k, float(err[k]),
                                             chunk[k].copy())
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
    screened, bounds = None, None
    if screen is not None:
        screened, bounds = int(screen.screened.sum()), screen.carry(sweep)
    step = GreedyStep(mu=best_mu, sup_error=best_err, saturated=False,
                      skipped=skipped, confirmed=confirmed, screened=screened,
                      bounds=bounds, sweep=sweep)
    # saturation is judged against the largest error seen: the first
    # snapshot (at the first training parameter) can sit orders of
    # magnitude below the manifold scale
    floor = max(SATURATION_FLOOR, SATURATION_REL * max(basis.train_errors))
    if best_err < floor:
        step.saturated = True
    else:
        basis.append_from_residual(best_residual, best_mu, best_err)
    return step
