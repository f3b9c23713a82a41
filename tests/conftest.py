import numpy as np
import pytest
import scipy.sparse as sp

import eimrb as er
from eimrb.fem import factor_sparse, solve_factored


@pytest.fixture(scope="session")
def space8():
    return er.FESpace(er.Mesh(8), 2)


@pytest.fixture(scope="session")
def problem8():
    return er.benchmark_problem(8, 2)


@pytest.fixture(scope="session")
def train5():
    return er.SampleSet.log_grid(5, 5)


@pytest.fixture(scope="session")
def newton_roomy():
    """Default tolerances with headroom on iterations for tiny test meshes,
    where crude interpolants can make Newton from zero converge slowly."""
    return er.NewtonConfig(max_iter=200)


@pytest.fixture(scope="session")
def standard_small(problem8, train5):
    """Sequential build on the small mesh, shared across test modules."""
    cfg = er.SerConfig(r="standard", n_max=6, m_max=8, train_set=train5,
                       checkpoints=((3, 4), (6, 8)))
    return er.build_ser(problem8, cfg)


def small_config(name, train_set, newton):
    """Config of the r=1 session build ser_small, or of rebuild_small."""
    if name == "ser_small":
        return er.SerConfig(r=1, n_max=5, m_max=5, train_set=train_set,
                            newton=newton, checkpoints=((3, 3), (5, 5)))
    return er.SerConfig(r=1, rebuild_wn=True, n_max=4, m_max=4,
                        train_set=train_set, newton=newton,
                        checkpoints=((2, 2), (4, 4)))


@pytest.fixture(scope="session")
def ser_small(problem8, train5, newton_roomy):
    return er.build_ser(problem8,
                        small_config("ser_small", train5, newton_roomy))


@pytest.fixture(scope="session")
def rebuild_small(problem8, train5, newton_roomy):
    """r=1 build that rebuilds the basis at every update."""
    return er.build_ser(problem8,
                        small_config("rebuild_small", train5, newton_roomy))


MODEL_FIELDS = ("problem", "t", "B", "A", "F", "Rq", "Tr", "avg", "basis",
                "snapshot_mus", "start_mus")
# the arrays of a model, those derived from its fields included: xg, W
# and the start table (the model's solutions and their slopes at its
# start parameters, where its online solves start; a model remade from
# its fields by model_with derives these from the arrays it is given)
MODEL_ARRAYS = ("t", "B", "A", "F", "Rq", "Tr", "avg", "basis", "W", "xg")
TABLE_ARRAYS = ("mus", "coeffs", "slopes", "logs")


def model_arrays(model):
    """Every array of a model by name, the start table's among them."""
    arrays = {name: getattr(model, name) for name in MODEL_ARRAYS}
    arrays.update({"start_table." + name: getattr(model.start_table, name)
                   for name in TABLE_ARRAYS})
    return arrays


def model_with(model, **changes):
    """The model made again from its arrays, with some of them replaced."""
    fields = {name: getattr(model, name) for name in MODEL_FIELDS}
    fields.update(changes)
    return er.ReducedModel(**fields)


def with_term(model, g=None, dg_du=None):
    """The model with its nonlinear term's g or dg_du replaced."""
    term = model.problem.term
    problem = er.NonlinearProblem(model.problem.space,
                                  er.NonlinearTerm(g or term.g,
                                                   dg_du or term.dg_du),
                                  er.benchmark_rhs)
    return model_with(model, problem=problem)


def poisoned_at(func, bad, value):
    """func, but filled with value in the rows of the parameter bad."""
    def out(u, xy, mus):
        res = np.array(func(u, xy, mus), dtype=float)
        res[np.all(mus == bad, axis=1)] = value
        return res
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_model(a, b, mus=((0.37, 0.8), (5.0, 0.02), (2.0, 6.0))):
    """Two models equal bitwise: every array (the interpolation points and
    matrix among them) and the coefficients and outputs of online solves
    at mus."""
    arrays = model_arrays(b)
    for name, array in model_arrays(a).items():
        assert same_bits(array, arrays[name]), name
    assert a.snapshot_mus == b.snapshot_mus
    assert same_bits(a.start_mus, b.start_mus)
    for mu in mus:
        sa, sb = a.solve(mu), b.solve(mu)
        assert same_bits(sa.coeffs, sb.coeffs)
        assert same_bits(a.output(sa), b.output(sb))


def assert_same_interpolant(a, b, m=None):
    """Two interpolants equal bitwise in their first m fields, or in all of
    them (and in their size) when m is None: points, picks, training
    errors, interpolation matrix and fields."""
    if m is None:
        assert a.M == b.M
        m = a.M
    assert min(a.M, b.M) >= m
    assert a.t[:m] == b.t[:m] and a.mus[:m] == b.mus[:m]
    assert a.train_errors[:m] == b.train_errors[:m]
    assert same_bits(a.B[:m, :m], b.B[:m, :m])
    assert same_bits(a.field_matrix()[:m], b.field_matrix()[:m])


def poisson_solve(space, rhs):
    """Solve -Laplace(u) = rhs with zero boundary values on the package's
    one linear-solve path: A_II u_I = F_I on the interior block of a
    problem with no nonlinear term.  Returns the ndof nodal values."""
    problem = er.NonlinearProblem(space, None, rhs)
    idx, a_ii = problem.interior_block[:2]
    u = np.zeros(space.ndof)
    u[idx] = solve_factored(factor_sparse(a_ii), problem.load[idx])
    return u


def eliminate_boundary(space, op, rhs):
    """Symmetric elimination of the homogeneous boundary conditions on the
    full system, an independent reference for the interior-block solves:
    boundary rows and columns of op become identity and the matching rhs
    entries zero, interior entries are untouched."""
    keep = np.ones(space.ndof)
    keep[space.boundary_dofs] = 0.0
    p_int = sp.diags(keep)
    eliminated = (p_int @ op @ p_int + sp.diags(1.0 - keep)).tocsr()
    return eliminated, np.asarray(rhs, dtype=float) * keep


def gram_matrix(rb):
    """Gram matrix of an RbSpace basis in its inner product."""
    basis = rb.basis_matrix()
    return basis.T @ (rb.x_op @ basis)


def eim_train(space, provider, samples, m_max, basis=None):
    """Initialize (if needed) and greedily enrich up to m_max fields,
    stopping early at saturation."""
    if basis is None:
        basis = er.eim_initialize(space, provider, samples)
    while basis.M < m_max:
        step = er.eim_greedy_step(basis, provider, samples)
        if step.saturated:
            break
    return basis


def at_mu(func, u, xy, mu):
    """func of the term (g or dg_du) at the one parameter mu: u is passed
    as one row and the row of the result is returned."""
    return func(np.asarray(u, dtype=float)[None], xy,
                np.asarray(mu, dtype=float).reshape(1, -1))[0]


def check_derivative(term, mus, u_values, x=(0.3, 0.7), h=1e-6, tol=1e-5):
    """Central-difference check of dg_du against g at every (mu, u) pair,
    all at the point x; returns the worst error.  The pairs form one
    (len(mus), len(u_values)) block: row p holds every u at mus[p]."""
    mus = np.asarray(mus, dtype=float).reshape(-1, 2)
    u = np.broadcast_to(np.atleast_1d(np.asarray(u_values, dtype=float)),
                        (len(mus), np.size(u_values)))
    xy = np.tile(np.asarray(x, dtype=float), (u.shape[1], 1))
    fd = (term.g(u + h, xy, mus) - term.g(u - h, xy, mus)) / (2 * h)
    worst = float(np.max(np.abs(fd - term.dg_du(u, xy, mus))))
    if worst > tol:
        raise ValueError(f"dg_du disagrees with finite differences by {worst:.3e}")
    return worst


def rows_provider(field):
    """Greedy-sweep provider whose block stacks field(mu) over the samples."""
    return lambda samples: (np.array([field(mu) for mu in samples]), {})


def quad_l2_error(space, values, exact):
    """Independent L2 error: fields sampled at quadrature points per element."""
    xq = space.quad_phys_points()
    uh = np.einsum("tn,nq->tq", values[space.elem_dofs], space._phi)
    ue = exact(xq.reshape(-1, 2)).reshape(uh.shape)
    return float(np.sqrt(np.einsum("q,t,tq->", space.quad_weights,
                                   space._detj, (uh - ue) ** 2)))
