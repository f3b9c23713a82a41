"""The float32 screen of a reduced greedy sweep, and the bound each row
carries from one reduced sweep into the next.

A sweep needs the argmax row, its error and its residual; every other
row only has to be shown smaller.  The greedy step (``eim``) therefore
takes from its fields, when they offer one, a screen that brackets each
row's float64 error, and runs its float64 pass only on the chunks that
may hold the largest.  This module is the screen of a reduced sweep
(``ser.ReducedGBlock``), the certified mixed-precision screening of
Higham and Mary ("Mixed precision algorithms in numerical linear
algebra", Acta Numerica 31, 2022): over chunks of the same bytes as the
float64 pass's, so twice the rows, it gives each row p an estimate e^_p
of the error e_p that the float64 pass computes, and a bound d_p on
|e^_p - e_p|, inf where it cannot bound it (a float32 exp overflows at
88.7, a float64 one at 709).

The bound d_p follows from the dot-product bounds |fl(x.y) - x.y| <=
gamma_n |x|.|y|, gamma_n = n u / (1 - n u) with u the unit roundoff
(Higham, *Accuracy and Stability of Numerical Algorithms*, SIAM 2002,
3.1 and 8.1), on the float64 pass r = g - beta q, beta = B^-1 g(t):

* the fields: with c the float64 coefficients of a row and V the basis,
  the screen lifts u^ = fl32(c) @ fl32(V^T), which is within du =
  (gamma32_(N+2) + gamma64_N) |c| @ max|V| of the float64 pass's lift
  and of the exact one V c (each is within its gamma of the exact
  product).  The float32 block g(u^) is within the term's float32 bound
  with du of the exact g, and the float64 fields within the term's
  float64 bound with dt (below), over the row's range of u^;
* beta: g at the points is made in float64, from c @ V(t)^T, which is
  within dt = 2 gamma64_N |c| @ max|V| of the float64 pass's lift
  there, so those values are within twice the term's float64 bound of
  the pass's.  Their beta~ is off from the pass's beta by ||B^-1||_inf
  times that, plus the forward error gamma_M ||B^-1||_inf ||B||_inf
  ||beta||_inf of each triangular solve (||B||_inf <= M, as |B| <= 1);
* beta q: every field has |q_m| <= 1, so the float32 product of the
  rounded beta~ and q is off from beta~ q by gamma32_(M+2) ||beta~||_1,
  the float64 one from beta q by gamma64_M ||beta||_1, and the gap
  between beta~ and beta adds M times its largest entry;
* the subtraction g^ - beta q in float32 adds u32 e^_p.

The float64 roundoff of the bound's own arithmetic, and the float64
subtraction's u64 e_p, are covered by a relative slack (SLACK).

A reduced sweep b that follows a reduced sweep a screens only the rows
that can still hold its largest error.  Its interpolant starts with a's
M_a fields, and its basis V_b either starts with V_a or, after a
``rebuild_wn`` update, replaces it.  Each row p carries a bound U_p on
its float64 error from a into b (``SweepBounds``).  The interpolants are
nested (Barrault, Maday, Nguyen and Patera, C. R. Acad. Sci. Paris 339,
2004): with r = (I - I_M) f, I_(M+1) f = I_M f + r(t_(M+1)) q_(M+1),
since q_(M+1) is 1 at t_(M+1) and 0 at the earlier points, so (I -
I_(M+1)) f = r - r(t_(M+1)) q_(M+1), and |q_(M+1)| <= 1 makes its sup
norm at most 2 ||r||, whatever basis each sweep is on.  With u_a and u_b
the exact lifts of the row's reduced solutions and e^x the exact
interpolation errors,

    e^x_b <= 2^(M_b - M_a) e^x_a + (1 + L_b) ||g(u_b) - g(u_a)||,

where L_b = ||B_b^-1||_inf max_x sum_m |q_m(x)| bounds the interpolation
operator.  G_p Delta_p bounds the last norm.  The row's solve in b
starts at m, a's coefficients c_a on V_b: c_a padded with zeros when V_b
starts with V_a (``SweepBounds.padded``), else c_a S^T, the coefficients
of the X-projection onto V_b, S = V_b^T X V_a (``SweepBounds.rebased``).
As u_b - u_a = V_b (c_b - m) - (V_a c_a - V_b m),

    Delta_p = (1 + gamma64_(N_b+2)) |c_b - m| @ max|V_b| + offset_p

bounds ||u_b - u_a||_inf, with offset_p a bound on ||V_a c_a - V_b
m||_inf: 0 for a padded m, which V_b lifts to V_a c_a, and for a
projected one

    offset_p = (|c_a| @ d + gamma64_(N_a) (|c_a| @ |S|^T) @ max|V_b|)
               (1 + SLACK),

d_n = max|D[:, n]| + gamma64_(N_b+1) (max|V_a[:, n]| + sum_k max|V_b[:,
k]| |S_kn|), with D = fl(V_a - V_b S) made in one pass: the exact V_a -
V_b S is within gamma64_(N_b+1) (|V_a| + |V_b| |S|) of D, and the
float64 m within gamma64_(N_a) |c_a| |S|^T of the exact c_a S^T.  G_p
is the largest |g'| over a range of u that holds both lifts, a's range
of exact u widened by Delta_p (the term reads it at the range's ends).
rho_p, the rounding of the float64 pass and of the term (the float64
terms above, over the row's range of u), links each float64 error to its
exact one, so

    U_p = (2^(M_b - M_a) (top_p + rho_a,p) + (1 + L_b) G_p Delta_p
           + rho_b,p) (1 + SLACK)

bounds the float64 error e_b,p.  top_p is the top of the row's bracket
in a: its float64 error where a's float64 pass ran its chunk, else e^_p
+ d_p.  U_p is inf for a row that failed or was restarted in either
sweep, and where it is not finite: on every row of a first reduced
sweep, whose prior is ``SweepBounds.unknown`` (M_a = 0, inf tops, no
range of u, no coefficients, zero offsets), so the rule needs no case
of its own there.  A row enters the sweep with e^_p = d_p = U_p / 2, a
bracket [0, U_p] that holds its error, and the screen brackets first
the chunk of rows with the largest U; the greedy step then screens
every row whose bracket may still hold the largest error
(``eim.SweepErrors.refine``) before its float64 pass.
"""

from dataclasses import dataclass, replace

import numpy as np

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


@dataclass
class SweepBounds:
    """What a screened sweep carries into the next reduced sweep (module
    docstring): its number of interpolant fields M, tops, per row a bound
    on the exact interpolation error (inf for none), each row's range lo
    to hi of exact u (nan for none), its reduced coefficients on a basis,
    and per row a bound offset on the sup distance between the exact
    lift of those coefficients and the row's exact u: zero on the
    sweep's own basis (``Float32Screen.carry``), and on the basis that
    extends it (``padded``), the basis-change term on a new one
    (``rebased``)."""
    M: int
    tops: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    coeffs: np.ndarray
    offset: np.ndarray

    @classmethod
    def unknown(cls, rows):
        """The bounds of no sweep over `rows` rows, where a first reduced
        sweep starts: no field, no bound (inf), no range of u (nan), no
        coefficients, and no offset."""
        return cls(0, np.full(rows, np.inf), np.full(rows, np.nan),
                   np.full(rows, np.nan), np.zeros((rows, 0)), np.zeros(rows))

    def padded(self, n):
        """These bounds on a basis of n vectors that starts with this
        one: the coefficients with a zero for each vector added."""
        added = n - self.coeffs.shape[1]
        return replace(self, coeffs=np.pad(self.coeffs, ((0, 0), (0, added))))

    def rebased(self, basis, new_basis, new_x_basis):
        """These bounds on the new basis of a rebuild, from the (N_a, ndof)
        rows of the basis of their coefficients, the (N_b, ndof) rows of
        the new one and their products with the inner product X: the
        coefficients c S^T of the X-projection, S = V_b^T X V_a, and the
        basis-change term added to the offset (module docstring).  The
        coefficients are first padded to the old basis: those of a first
        sweep have none."""
        coeffs = self.padded(len(basis)).coeffs
        s = new_x_basis @ basis.T
        n_b, n_a = s.shape
        reach = np.abs(new_basis).max(axis=1)
        size, across = np.abs(coeffs), np.abs(s).T
        # d_n >= max|(V_a - V_b S)[:, n]|, from D = fl(V_a - V_b S)
        d = (np.abs(basis - s.T @ new_basis).max(axis=1)
             + gamma(n_b + 1, U64) * (np.abs(basis).max(axis=1)
                                      + across @ reach))
        offset = (size @ d + gamma(n_a, U64) * ((size @ across) @ reach)
                  ) * (1 + SLACK)
        return replace(self, coeffs=coeffs @ s.T,
                       offset=self.offset + offset)


class Float32Screen:
    """The float32 screen of a ReducedGBlock's sweep at the points t, with
    the sweep's interpolation matrix B and fields q, over chunks of twice
    the float64 pass's `rows` (module docstring).

    ``brackets`` holds each row's estimate and bound as the sweep starts:
    [0, U] for a row, as est = dev = U / 2, but the screen's own for its
    first chunk, the rows with the largest U.  ``bracket(idx)`` screens
    the rows of an index array, gives each one's estimate and bound, and
    marks them ``screened``.  ``carry(sweep)`` gives the ``SweepBounds``
    that the next sweep's screen reads.

    ``lo`` and ``hi`` hold each row's range of exact u: the block's
    prior's range widened by Delta until the screen lifts the row (nan
    where the prior has none), [min u^ - du, max u^ + du] once it has.
    A restarted row has no range, so it carries no bound.
    The float32 copies of V and q, and the buffers, are made per call of
    ``bracket``: the screen lives on while an update ranks the sweep's
    rows.
    """

    def __init__(self, block, t, B, q, rows):
        basis, coeffs, term, prior = (block.basis, block.coeffs, block.term,
                                      block.prior)
        self.term, self.mus, self.coeffs = term, block.mus, coeffs
        self.basis, self.mus32 = basis, block.mus.astype(np.float32)
        self.q, self.rows, self.restarted = q, 2 * rows, block.restarted
        n, self.m = basis.shape[1], len(B)
        reach = np.abs(basis).max(axis=0)
        scale = np.abs(coeffs) @ reach
        self.du = (gamma(n + 2, U32) + gamma(n, U64)) * scale + n * TINY32
        self.dt = 2 * gamma(n, U64) * scale
        with np.errstate(over="ignore", invalid="ignore"):
            points = term.g(coeffs @ basis[t].T, block.mus)
            # ||B^-1||_inf with room for the roundoff of the inverse, and
            # gamma_M ||B^-1||_inf ||B||_inf, a triangular solve's relative
            # forward error
            self.inv_norm = 1.01 * np.abs(np.linalg.inv(B)).sum(axis=1).max()
            self.solve = gamma(self.m, U64) * self.inv_norm * self.m
            # a row of values that is not finite is zeroed, since the
            # solve mixes the points
            self.ok = np.all(np.isfinite(points), axis=1)
            beta = np.linalg.solve(
                B, np.where(self.ok[:, None], points, 0.0).T)
            self.size = np.abs(beta).sum(axis=0)
            self.peak = np.abs(beta).max(axis=0)
            self.beta32 = beta.T.astype(np.float32)
            delta = ((1 + gamma(n + 2, U64))
                     * (np.abs(coeffs - prior.coeffs) @ reach) + prior.offset)
            delta[block.restarted] = np.nan
            self.lo, self.hi = prior.lo - delta, prior.hi + delta
            ends = term.dg_du(np.column_stack([self.lo, self.hi]), self.mus)
            drift = np.abs(ends).max(axis=1) * delta
            spread = self.inv_norm * np.abs(q).sum(axis=0).max()
            # ldexp scales by 2^(M_b - M_a), to inf where that overflows
            carried = (np.ldexp(prior.tops, self.m - prior.M)
                       + (1 + spread) * drift + self.rho()) * (1 + SLACK)
            self.carried = np.where(self.ok & np.isfinite(carried), carried,
                                    np.inf)
        self.screened = np.zeros(len(coeffs), dtype=bool)
        self.brackets = self.start(self.carried)

    def start(self, carried):
        """The brackets [0, U] of the rows, as est = dev = U / 2, with the
        screen's own for the `rows` rows of the largest U."""
        est, dev = carried / 2, carried / 2
        first = np.sort(np.argsort(-carried, kind="stable")[:self.rows])
        est[first], dev[first] = self.bracket(first)
        return est, dev

    def deviation(self, w_dev, rows):
        """For the rows (an index), a bound on the distance between the
        coefficients of point values within w_dev of each other, each
        solved in float64."""
        return ((self.inv_norm * w_dev + 2 * self.solve * self.peak[rows])
                / (1 - self.solve))

    def rounding(self, lo, hi, rows):
        """For the rows (an index) whose exact u lies in [lo, hi], the
        term's float64 rounding: the float64 values are within dt of u."""
        dt = self.dt[rows]
        return self.term.error_bound(lo - dt, hi + dt, dt, self.mus[rows],
                                     np.float64)

    def rho(self):
        """Per row, rho: a bound on the distance of the float64 pass's
        error from the exact interpolation error of g(u), for an exact u
        in the row's range (not finite for a row with none)."""
        m, every = self.m, slice(None)
        b64 = self.rounding(self.lo, self.hi, every)
        beta_dev = self.deviation(2 * b64, every)
        rho = (b64 + m * beta_dev + gamma(m, U64) * (self.size + m * beta_dev)
               + (m + 2) * TINY32) * (1 + SLACK)
        return rho if self.solve < 1 else np.full_like(rho, np.inf)

    def bracket(self, idx):
        m, rows = self.m, self.rows
        est, lo, hi = np.empty((3, len(idx)))
        v32 = np.ascontiguousarray(self.basis.T, dtype=np.float32)
        q32 = self.q.astype(np.float32)
        lift = np.empty((min(rows, len(idx)), v32.shape[1]), dtype=np.float32)
        product = np.empty((len(lift), q32.shape[1]), dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(idx), rows):
                part, at = idx[start:start + rows], slice(start, start + rows)
                u = np.matmul(self.coeffs[part].astype(np.float32), v32,
                              out=lift[:len(part)])
                lo[at], hi[at] = u.min(axis=1), u.max(axis=1)
                # a row of g that is not finite gives an error that is
                # not, and the rows of the product stay apart
                g = self.term.g(u, self.mus32[part])
                g -= np.matmul(self.beta32[part], q32,
                               out=product[:len(part)])
                est[at] = np.maximum(g.max(axis=1), -g.min(axis=1))
            du = self.du[idx]
            self.lo[idx], self.hi[idx] = lo - du, hi + du
            b64 = self.rounding(lo - du, hi + du, idx)
            g_dev = (self.term.error_bound(lo, hi, du, self.mus[idx],
                                           np.float32) + b64)
            size, beta_dev = self.size[idx], self.deviation(2 * b64, idx)
            bound = (g_dev + gamma(m + 2, U32) * size + m * beta_dev
                     + gamma(m, U64) * (size + m * beta_dev) + U32 * est
                     + (m + 2) * TINY32) * (1 + SLACK)
            dev = np.where(self.ok[idx] & np.isfinite(est + bound)
                           & (self.solve < 1), bound, np.inf)
        self.screened[idx] = True
        return est, dev

    def carry(self, sweep):
        """The ``SweepBounds`` of this sweep, given its ``SweepErrors``:
        per row the top of its bracket (its float64 error where its chunk
        ran, else est + dev) plus rho, inf for a skipped row, a row with
        no finite bound, and where the sum is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            top = (np.where(sweep.ran, sweep.errors, sweep.est + sweep.dev)
                   + self.rho())
        top[sweep.bad | ~np.isfinite(sweep.dev) | ~np.isfinite(top)] = np.inf
        lo, hi = self.lo.copy(), self.hi.copy()
        lo[self.restarted] = hi[self.restarted] = np.nan
        return SweepBounds(self.m, top, lo, hi, self.coeffs,
                           np.zeros(len(top)))
