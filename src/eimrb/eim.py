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
row only has to be shown smaller.  So a step runs in two passes, the
certified mixed-precision screening of Higham and Mary ("Mixed
precision algorithms in numerical linear algebra", Acta Numerica 31,
2022):

* the screen, in float32, when the fields offer one
  (``fields.screen(t)``, see ``ser.ReducedGBlock``).  Over chunks of
  the same byte budget, so twice the rows, it gives each row p an
  estimate e^_p of the error e_p that the float64 pass computes, and a
  bound d_p on |e^_p - e_p| (``screen_sweep``);
* the float64 pass, which runs on every chunk of BUDGET // ndof rows
  that holds a row with e^_p + d_p >= max_q (e^_q - d_q), or a row whose
  estimate or bound is not finite (a float32 exp overflows at 88.7, a
  float64 one at 709).  It is the whole step when the fields offer no
  screen.

Every row whose error ties or beats the largest has e^_p + d_p >= e_p >=
max_q (e^_q - d_q), so the largest error and the first row that reaches
it are found in the float64 chunks, in their order: the pick, its error,
its residual and the skipped rows keep the bits of a float64 pass over
every chunk.  ``GreedyStep.errors`` runs the float64 pass on the other
chunks the first time it is read.

The bound d_p follows from the dot-product bounds |fl(x.y) - x.y| <=
gamma_n |x|.|y|, gamma_n = n u / (1 - n u) with u the unit roundoff
(Higham, *Accuracy and Stability of Numerical Algorithms*, SIAM 2002,
3.1 and 8.1), on the float64 pass r = g - beta q, beta = B^-1 g(t):

* the fields: the screen gives a float32 block g^ and a bound on
  |g^ - g| per row, from the lift's and the term's rounding;
* beta: the screen gives g at the points in float64, by a separate
  product, and a bound on its distance from the float64 pass's values
  there; its beta~ is off from the pass's beta by ||B^-1||_inf times
  that, plus the forward error gamma_M ||B^-1||_inf ||B||_inf ||beta||_inf
  of each triangular solve (||B||_inf <= M, as |B| <= 1);
* beta q: every field has |q_m| <= 1, so the float32 product of the
  rounded beta~ and q is off from beta~ q by gamma32_(M+2) ||beta~||_1,
  the float64 one from beta q by gamma64_M ||beta||_1, and the gap
  between beta~ and beta adds M times its largest entry;
* the subtraction g^ - beta q in float32 adds u32 e^_p.

The float64 roundoff of the bound's own arithmetic, and the float64
subtraction's u64 e_p, are covered by a relative slack (SLACK).

A reduced sweep b that follows a reduced sweep a on the same reduced
space (its basis V_b starts with V_a, and its interpolant with a's M_a
fields) screens only the rows that can still hold its largest error.
Each row p carries a bound U_p on its float64 error from a into b
(``SweepBounds``, ``carried_bounds``).  The interpolants are nested
(Barrault, Maday, Nguyen and Patera, C. R. Acad. Sci. Paris 339, 2004):
with r = (I - I_M) f, I_(M+1) f = I_M f + r(t_(M+1)) q_(M+1), since
q_(M+1) is 1 at t_(M+1) and 0 at the earlier points, so (I - I_(M+1)) f
= r - r(t_(M+1)) q_(M+1), and |q_(M+1)| <= 1 makes its sup norm at most
2 ||r||.  With u_a and u_b the exact lifts of the row's reduced solutions
and e^x the exact interpolation errors,

    e^x_b <= 2^(M_b - M_a) e^x_a + (1 + L_b) ||g(u_b) - g(u_a)||,

where L_b = ||B_b^-1||_inf max_x sum_m |q_m(x)| bounds the interpolation
operator.  The screen of b gives G_p Delta_p for the last norm: Delta_p
bounds ||u_b - u_a||_inf from the two coefficient rows, and G_p the
largest |g'| over a range of u that holds both lifts (the term reads it
at the range's ends).  rho_p, the rounding of the float64 pass and of
the term (the float64 gamma terms above, over the row's range of u),
links each float64 error to its exact one, so

    U_p = (2^(M_b - M_a) (top_p + rho_a,p) + (1 + L_b) G_p Delta_p
           + rho_b,p) (1 + SLACK)

bounds the float64 error e_b,p.  top_p is the top of the row's bracket
in a: its float64 error where a's pick confirmed its chunk, else e^_p +
d_p, which is its own U_p when a ruled the row out.  U_p is inf in a
first reduced sweep, for a row that failed or was restarted in either
sweep, and where it is not finite.  The screen then runs in two passes:
the screen's chunk of rows with the largest U, which sets the floor
max (e^_q - d_q) over those rows, and every other row whose U reaches
that floor.  A row left out is entered with e^_p = d_p = U_p / 2, a
bracket [0, U_p] that holds its error, so the float64 pass, its order
and the errors read later run as above.  When an update ranks the rows
worst first, a row left out whose U may hold the next largest error is
screened before any float64 pass runs for it (``SweepErrors.refine``):
its loose bracket would otherwise send chunks to the float64 pass that
the screen rules out.
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
# unit roundoffs, and the smallest normal float32 (an underflow's error)
U32 = float(np.finfo(np.float32).eps) / 2
U64 = float(np.finfo(np.float64).eps) / 2
TINY32 = float(np.finfo(np.float32).tiny)
# relative slack on a screen bound: above the float64 roundoff of its
# arithmetic, and above u64 / u32 (2e-9), so u64 e_p is inside it
SLACK = 1e-6


def gamma(n, unit):
    """Higham's gamma_n = n u / (1 - n u), which bounds the relative
    error of n roundings, and that of a dot product of length n."""
    return n * unit / (1 - n * unit)


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
        triangular.
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


class SweepErrors:
    """The float64 errors of a sweep's samples, nan = skipped, made a
    chunk at a time: a chunk's float64 pass runs when one of its rows may
    be the next one asked for.

    chunk_pass(lo, hi) runs the float64 pass on the rows lo:hi and gives
    their residuals and errors; bad marks the skipped samples, and est
    and dev are the screen's estimates and bounds (dev inf for a sample
    with no bound).  screen is the sweep's ``Float32Pass``, or None: a
    sample that only its carried bound brackets is screened before a
    float64 pass runs for it (``refine``).
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
        run and whose carried bound may still hold the largest error over
        the mask, so that their brackets are the screen's."""
        if self.screen is not None:
            idx = np.flatnonzero(self.unsure(mask) & ~self.screen.screened)
            if len(idx):
                self.est[idx], self.dev[idx] = self.screen.bracket(idx)

    def tops(self, rho):
        """Per sample, a bound on the exact error, given rho, a bound on
        the distance of the float64 error from it: the top of the
        sample's bracket (its float64 error where its chunk ran, else est
        + dev) plus rho; inf for a skipped sample, a sample with no
        finite bound, and where the sum is not finite."""
        top = np.where(self.ran, self.errors, self.est + self.dev) + rho
        top[self.bad | ~np.isfinite(self.dev) | ~np.isfinite(top)] = np.inf
        return top

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
class SweepBounds:
    """What a screened sweep leaves to the next reduced sweep on the same
    reduced space (module docstring): its number of interpolant fields M,
    tops, per row a bound on the exact interpolation error (inf for
    none), and rows, the screen's own record of its rows, which only the
    next screen reads."""
    M: int
    tops: np.ndarray
    rows: object


@dataclass
class GreedyStep:
    mu: tuple | None
    sup_error: float
    saturated: bool
    skipped: list
    confirmed: list         # the chunks whose float64 pass the pick ran
    screened: int | None    # the rows the float32 screen ran, None for none
    bounds: SweepBounds | None  # what the next reduced sweep carries
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


class PointSolve:
    """The float64 coefficients of a sweep's point values, with what the
    screen bounds read of them: ||B^-1||_inf with room for the roundoff
    of the inverse, solve = gamma_M ||B^-1||_inf ||B||_inf, which bounds
    a triangular solve's relative forward error (||B||_inf <= M, as |B|
    <= 1), ok, the mask of the rows whose values are all finite, beta,
    the (M, P) coefficients (zero where a row is not ok), and each row's
    ||beta||_1 and ||beta||_inf."""

    def __init__(self, B, points):
        self.m = len(B)
        self.inv_norm = 1.01 * np.abs(np.linalg.inv(B)).sum(axis=1).max()
        self.solve = gamma(self.m, U64) * self.inv_norm * self.m
        self.ok = np.all(np.isfinite(points), axis=1)
        # a row of values that is not finite is zeroed, since the solve
        # mixes the points
        self.beta = np.linalg.solve(
            B, np.where(self.ok[:, None], points, 0.0).T)
        self.size = np.abs(self.beta).sum(axis=0)
        self.peak = np.abs(self.beta).max(axis=0)

    def deviation(self, w_dev, rows):
        """For the rows (an index), a bound on the distance between the
        coefficients of point values within w_dev of each other, each
        solved in float64."""
        return ((self.inv_norm * w_dev + 2 * self.solve * self.peak[rows])
                / (1 - self.solve))


class Float32Pass:
    """The float32 screen of a sweep (module docstring), run on the rows
    asked for.  ``bracket(idx)`` gives, for the rows of an index array,
    each one's estimated sup error and the bound on its distance from the
    float64 pass's error (inf where the screen cannot bound it), in
    chunks of `rows` rows, and marks them ``screened``.

    screen.chunks(idx, rows) gives, for the rows of an index array in
    chunks of `rows`, their float32 fields and the least and largest
    float32 u of each.  screen.bounds(lo, hi, idx) takes those two
    arrays and gives two per-row bounds: on the float32 fields' distance
    from the float64 pass's fields, and on the distance of the rows'
    screen.points, the float64 field values at the points, from the
    float64 pass's values there (``ser.Float32Screen``).  solved is the
    ``PointSolve`` of screen.points.
    """

    def __init__(self, screen, solved, q, rows):
        self.screen, self.solved, self.q, self.rows = screen, solved, q, rows
        with np.errstate(over="ignore"):
            self.beta32 = solved.beta.T.astype(np.float32)
        self.screened = np.zeros(len(solved.ok), dtype=bool)

    def bracket(self, idx):
        solved, m = self.solved, self.solved.m
        est, lo, hi = np.empty((3, len(idx)))
        # the float32 arrays are made for the call only: a sweep's screen
        # outlives it while an update ranks its rows
        q32 = self.q.astype(np.float32)
        product = np.empty((min(self.rows, len(idx)), q32.shape[1]),
                           dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            chunks = self.screen.chunks(idx, self.rows)
            for start, (g, lo_part, hi_part) in zip(
                    range(0, len(idx), self.rows), chunks):
                part = slice(start, start + self.rows)
                lo[part], hi[part] = lo_part, hi_part
                # a row of g that is not finite gives an error that is
                # not, and the rows of the product stay apart
                g -= np.matmul(self.beta32[idx[part]], q32,
                               out=product[:len(g)])
                est[part] = np.maximum(g.max(axis=1), -g.min(axis=1))
            g_dev, w_dev = self.screen.bounds(lo, hi, idx)
            size, beta_dev = solved.size[idx], solved.deviation(w_dev, idx)
            bound = (g_dev + gamma(m + 2, U32) * size + m * beta_dev
                     + gamma(m, U64) * (size + m * beta_dev) + U32 * est
                     + (m + 2) * TINY32) * (1 + SLACK)
            dev = np.where(solved.ok[idx] & np.isfinite(est + bound)
                           & (solved.solve < 1), bound, np.inf)
        self.screened[idx] = True
        return est, dev


def float64_rounding(screen, solved):
    """Per row, rho: a bound on the distance of the float64 pass's error
    from the exact interpolation error of g(u), for an exact u within the
    screen's range of the row (``screen.lo`` to ``screen.hi``; nan for a
    row it has no range for, and then rho is not finite).  The float64
    fields and point values are within b64 = ``screen.rounding`` of the
    exact ones, and the rest is the beta and beta q terms of the screen
    bound."""
    m, every = solved.m, slice(None)
    b64 = screen.rounding(screen.lo, screen.hi, every)
    beta_dev = solved.deviation(2 * b64, every)
    rho = (b64 + m * beta_dev + gamma(m, U64) * (solved.size + m * beta_dev)
           + (m + 2) * TINY32) * (1 + SLACK)
    return rho if solved.solve < 1 else np.full_like(rho, np.inf)


def carried_bounds(screen, solved, q):
    """Per row, the bound U on the float64 pass's error that the screen's
    prior carries into this sweep (module docstring), inf where it
    carries none: every row when screen.prior is None.  screen.prior is
    the last sweep's ``SweepBounds`` when it carries into this one, and
    then screen.drift is the per-row bound G Delta on ||g(u) -
    g(u_prior)||_inf (``ser.Float32Screen``)."""
    prior = screen.prior
    if prior is None:
        return np.full(len(solved.ok), np.inf)
    spread = solved.inv_norm * np.abs(q).sum(axis=0).max()
    carried = (2.0 ** (solved.m - prior.M) * prior.tops
               + (1 + spread) * screen.drift
               + float64_rounding(screen, solved)) * (1 + SLACK)
    carried[~(solved.ok & np.isfinite(carried))] = np.inf
    return carried


def screen_sweep(screen, carried):
    """The float32 screen of a sweep (module docstring), given the bound
    U that each row carries into it (inf where none, ``carried_bounds``):
    each row's estimated sup error and the bound on its distance from the
    float64 pass's error.  screen is the sweep's ``Float32Pass``.  Its
    first chunk of rows is those with the largest U, which set the floor
    max(est - dev) over them; every other row whose U reaches the floor
    is screened too, and the rest enter as est = dev = U / 2."""
    est, dev = carried / 2, carried / 2
    first = np.sort(np.argsort(-carried, kind="stable")[:screen.rows])
    est[first], dev[first] = screen.bracket(first)
    with np.errstate(invalid="ignore"):     # inf - inf where unbounded
        floor = np.max(est[first] - dev[first],
                       where=np.isfinite(dev[first]), initial=-np.inf)
    rest = np.flatnonzero(~screen.screened & ~(carried < floor))
    est[rest], dev[rest] = screen.bracket(rest)
    return est, dev


def eim_greedy_step(basis, provider, samples):
    """One greedy enrichment: pick the worst-approximated sample, add its residual.

    Samples the provider failed on, and rows that are not finite, are
    skipped for this sweep; more than half the set skipped aborts.  A sup
    error below the saturation threshold returns a saturated step without
    enriching.  The float64 pass runs on the chunks that the float32
    screen cannot rule out, or on all of them (module docstring).
    """
    if basis.M < 1:
        raise ValueError("initialize the basis before greedy steps")
    fields, failures = provider(samples)
    n_samples = len(samples)
    t_idx = np.asarray(basis.t, dtype=int)
    # the step's own q and B: the errors of the other chunks may be made
    # with them after the basis has grown
    q, B = basis.field_matrix(), basis.B
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

    screen = fields.screen(t_idx) if hasattr(fields, "screen") else None
    float32 = None
    if screen is None:
        est, dev = np.zeros(n_samples), np.full(n_samples, np.inf)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            solved = PointSolve(B, screen.points)
            carried = carried_bounds(screen, solved, q)
        float32 = Float32Pass(screen, solved, q, 2 * rows)
        est, dev = screen_sweep(float32, carried)
    sweep = SweepErrors(chunk_pass, rows, bad, est, dev, float32)
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
    if float32 is not None:
        screened = int(float32.screened.sum())
        with np.errstate(over="ignore", invalid="ignore"):
            rho = float64_rounding(screen, solved)
            bounds = SweepBounds(len(B), sweep.tops(rho), screen.record())
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
