import numpy as np
import pytest

import eimrb as er


@pytest.fixture(scope="session")
def space8():
    return er.build_space(er.build_mesh(8), 2)


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
    return er.build_standard(problem8, cfg)


@pytest.fixture(scope="session")
def ser_small(problem8, train5, newton_roomy):
    cfg = er.SerConfig(r=1, n_max=5, m_max=5, train_set=train5,
                       newton=newton_roomy, checkpoints=((3, 3), (5, 5)))
    return er.build_ser(problem8, cfg)


def quad_l2_error(space, values, exact):
    """Independent L2 error: fields sampled at quadrature points per element."""
    xq = space.quad_phys_points()
    uh = np.einsum("tn,nq->tq", values[space.elem_dofs], space._phi)
    ue = exact(xq.reshape(-1, 2)).reshape(uh.shape)
    return float(np.sqrt(np.einsum("q,t,tq->", space.quad_weights,
                                   space._detj, (uh - ue) ** 2)))
