import copy

import numpy as np
import pytest

import eimrb as er
from eimrb.eim import SATURATION_FLOOR

from conftest import (eim_evaluate, eim_interpolate, eim_sup_error, eim_train,
                      rows_provider, same_bits)


@pytest.fixture(scope="module")
def grid10():
    return er.SampleSet.log_grid(10, 10)


def rank2_field(space):
    x = space.dof_coords[:, 0]
    return lambda mu: mu[0] * x + mu[1] * x**2


class TestInitialize:
    def test_constant_field(self, space8, train5):
        basis = er.eim_initialize(
            space8, rows_provider(lambda mu: np.full(space8.ndof, 5.0)),
            list(train5))
        assert np.all(basis.fields[0] == 1.0)
        assert basis.B.shape == (1, 1) and basis.B[0, 0] == 1.0

    def test_point_at_sup_of_coordinate_field(self, space8, train5):
        x = space8.dof_coords[:, 0]
        basis = er.eim_initialize(space8, rows_provider(lambda mu: mu[0] * x),
                                  list(train5))
        assert space8.dof_coords[basis.t[0], 0] == 1.0
        assert np.allclose(basis.fields[0], x, atol=1e-15)

    def test_benchmark_first_field_is_normalized(self, problem8, train5):
        truth = er.TruthReferences(problem8)
        basis = er.eim_initialize(problem8.space, er.truth_g_block(truth),
                                  list(train5))
        assert abs(np.max(np.abs(basis.fields[0])) - 1.0) <= 1e-12
        assert basis.mus[0] == tuple(train5[0])

    def test_zero_snapshot_rejected(self, space8, train5):
        with pytest.raises(er.DegenerateSnapshot):
            er.eim_initialize(space8,
                              rows_provider(lambda mu: np.zeros(space8.ndof)),
                              list(train5))

    def test_empty_sample_set(self, space8):
        with pytest.raises(ValueError):
            er.eim_initialize(space8,
                              rows_provider(lambda mu: np.ones(space8.ndof)), [])


class TestGreedy:
    def test_rank1_saturates_after_one_field(self, space8, grid10):
        x = space8.dof_coords[:, 0]
        provider = rows_provider(lambda mu: mu[0] * x)
        basis = er.eim_initialize(space8, provider, list(grid10))
        step = er.eim_greedy_step(basis, provider, list(grid10))
        assert step.saturated
        assert step.sup_error <= max(SATURATION_FLOOR,
                                     1e-13 * basis.train_errors[0])
        assert basis.M == 1

    def test_rank2_exact_at_two_fields(self, space8, grid10):
        field = rank2_field(space8)
        samples = list(grid10)
        basis = eim_train(space8, rows_provider(field), samples, m_max=2)
        assert basis.M == 2
        # brute-force check over the full grid
        worst = max(eim_sup_error(basis, field(mu)) for mu in samples)
        assert worst <= 1e-12

    def test_benchmark_training_decay(self, problem8, train5):
        truth = er.TruthReferences(problem8)
        basis = eim_train(problem8.space, er.truth_g_block(truth), list(train5),
                          m_max=10)
        errs = basis.train_errors[1:]
        assert len(errs) == 9
        for a, b in zip(errs, errs[1:]):
            assert b < a

    def test_monotone_training_error(self, space8, grid10):
        # interpolation is not an orthogonal projection, so this holds for
        # well-behaved manifolds (as here and for the benchmark), not for
        # arbitrary providers
        x, y = space8.dof_coords[:, 0], space8.dof_coords[:, 1]
        provider = rows_provider(lambda mu: np.exp(-mu[0] * x) + mu[1] * y**2)
        basis = eim_train(space8, provider, list(grid10), m_max=8)
        errs = basis.train_errors[1:]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-13

    def test_provider_failures_skipped(self, space8, grid10):
        x = space8.dof_coords[:, 0]
        bad = tuple(grid10[3])

        def provider(samples):
            # the failed row holds a valid field, which must not be ranked
            block = np.array([mu[0] * x + mu[1] * x**3 for mu in samples])
            failures = {k: er.NewtonFailure("synthetic failure", [1.0])
                        for k, mu in enumerate(samples) if tuple(mu) == bad}
            return block, failures

        basis = er.eim_initialize(space8, provider, list(grid10))
        step = er.eim_greedy_step(basis, provider, list(grid10))
        assert step.skipped == [(3, bad, "synthetic failure")]
        assert np.isnan(step.errors[3])
        assert np.isfinite(np.delete(step.errors, 3)).all()
        assert basis.M == 2

    def test_first_sample_failure_raises(self, space8, grid10):
        def provider(samples):
            return (np.ones((len(samples), space8.ndof)),
                    {0: er.NewtonFailure("synthetic failure", [1.0])})

        with pytest.raises(er.NewtonFailure, match="synthetic failure"):
            er.eim_initialize(space8, provider, list(grid10))

    def test_majority_failure_aborts(self, space8, grid10):
        def provider(samples):
            block = np.array([np.full(space8.ndof, mu[0]) for mu in samples])
            failures = {k: er.NewtonFailure("synthetic failure", [1.0])
                        for k, mu in enumerate(samples) if mu[0] > 0.02}
            return block, failures

        basis = er.eim_initialize(space8, provider, list(grid10))
        with pytest.raises(er.EimTrainingError):
            er.eim_greedy_step(basis, provider, list(grid10))

    def test_block_step_matches_per_sample_reference(self, space8, grid10,
                                                     chunk_rows=None):
        x, y = space8.dof_coords[:, 0], space8.dof_coords[:, 1]
        field = lambda mu: np.exp(-mu[0] * x) + np.sin(mu[1] * y)
        samples = list(grid10)
        basis = eim_train(space8, rows_provider(field), samples, m_max=4)
        fields = [field(mu) for mu in samples]
        fields[11][5] = np.inf
        fields[20][0] = np.nan
        failed = {7: er.SolverFailure("synthetic singular solve")}

        # the per-sample loop the block step replaces
        q, t = np.array(basis.fields), basis.t
        ref_errors = np.full(len(samples), np.nan)
        ref_skipped, best_err, best_k = [], -1.0, None
        for k, mu in enumerate(samples):
            if k in failed:
                ref_skipped.append((k, mu, "synthetic singular solve"))
                continue
            w = fields[k]
            if not np.all(np.isfinite(w)):
                ref_skipped.append((k, mu, "snapshot field overflowed"))
                continue
            beta = np.linalg.solve(basis.B, w[t])
            ref_errors[k] = np.max(np.abs(w - q.T @ beta))
            if ref_errors[k] > best_err:
                best_err, best_k = ref_errors[k], k
        w = fields[best_k]
        ref_residual = w - q.T @ np.linalg.solve(basis.B, w[t])
        if chunk_rows is not None:
            chunks = {k // chunk_rows for k in (7, 11, 20, best_k)}
            assert len(chunks) == 4
            assert len(samples) % chunk_rows == 1

        step = er.eim_greedy_step(
            basis, lambda mus: (np.array(fields), dict(failed)), samples)
        assert step.skipped == ref_skipped
        assert step.mu == samples[best_k]
        assert step.sup_error == pytest.approx(best_err, rel=1e-12)
        assert np.array_equal(np.isnan(step.errors), np.isnan(ref_errors))
        ok = ~np.isnan(ref_errors)
        # relative, plus roundoff of the field's size where the error is
        # roundoff itself (at the samples picked before)
        sups = np.array([np.max(np.abs(w)) for w in fields])
        assert np.all(np.abs(step.errors[ok] - ref_errors[ok])
                      <= 1e-12 * ref_errors[ok] + 1e-14 * sups[ok])
        assert basis.M == 5
        expected = ref_residual / ref_residual[basis.t[-1]]
        expected[basis.t[:-1]] = 0.0
        assert np.abs(basis.fields[-1] - expected).max() <= 1e-12
        assert basis.t[-1] == int(np.argmax(np.abs(ref_residual)))

    def test_block_step_in_small_chunks_matches_per_sample_reference(
            self, space8, grid10, monkeypatch):
        # with 3-row chunks the failed, inf, nan and best rows each fall in
        # a chunk of their own and the last chunk holds one row
        monkeypatch.setattr("eimrb.eim.BUDGET", 3 * space8.ndof)
        self.test_block_step_matches_per_sample_reference(space8, grid10,
                                                          chunk_rows=3)

    @pytest.mark.parametrize("chunk_rows", [None, 3],
                             ids=["default-chunks", "3-row-chunks"])
    def test_ties_go_to_the_first_sample(self, space8, grid10, monkeypatch,
                                         chunk_rows):
        # rows 4 and 40 are equal and approximated worst; with 3-row chunks
        # they fall in different chunks
        if chunk_rows is not None:
            monkeypatch.setattr("eimrb.eim.BUDGET", chunk_rows * space8.ndof)
        x = space8.dof_coords[:, 0]
        samples = list(grid10)
        scale = np.ones(len(samples))
        scale[[4, 40]] = 2.0
        fields = np.array([x + s * x**2 for s in scale])
        basis = er.eim_initialize(space8, rows_provider(lambda mu: x), samples)
        step = er.eim_greedy_step(basis, lambda mus: (fields.copy(), {}),
                                  samples)
        assert step.errors[4] == step.errors[40] == np.nanmax(step.errors)
        assert step.mu == samples[4]
        assert basis.mus[-1] == samples[4]

    def test_degenerate_point_guard(self, space8):
        basis = er.EimBasis(space8)
        field = np.zeros(space8.ndof)
        field[7] = 2.0
        basis.append_from_residual(field, (1.0, 1.0), 2.0)
        clash = np.zeros(space8.ndof)
        clash[7] = -3.0
        with pytest.raises(er.DegenerateInterpolationPoint):
            basis.append_from_residual(clash, (2.0, 2.0), 3.0)

    def test_each_field_peaks_at_exactly_one_at_its_point(self, problem8,
                                                          train5):
        # the facts the carried sweep bound reads: max|q_m| = 1 with
        # q_m(t_m) = 1 exactly, and B exactly unit lower triangular with
        # no entry above 1 in size, after every step of a benchmark build
        truth = er.TruthReferences(problem8)
        provider = er.truth_g_block(truth)
        basis = er.eim_initialize(problem8.space, provider, list(train5))
        while basis.M < 8:
            er.eim_greedy_step(basis, provider, list(train5))
            q, B = basis.fields, basis.B
            assert np.all(np.abs(q).max(axis=1) == 1.0)
            assert np.all(q[np.arange(basis.M), basis.t] == 1.0)
            assert np.all(np.diag(B) == 1.0)
            assert np.all(np.triu(B, 1) == 0.0)
            assert np.all(np.abs(B) <= 1.0)
            assert np.array_equal(B, q[:, basis.t].T)

    def test_b_and_the_mass_products_are_read_off_the_field_rows(
            self, problem8, train5):
        # the interpolant holds its fields as the rows of one (M, ndof)
        # array; after every append B is bitwise B[i, m] = q_m(t_i) and
        # exactly unit lower triangular, and row m of the build's mass
        # products is bitwise M q_m of row m, made once
        truth = er.TruthReferences(problem8)
        provider = er.truth_g_block(truth)
        basis = er.eim_initialize(problem8.space, provider, list(train5))
        mass_fields = er.MassFields(problem8, basis)
        while True:
            q, B, m = basis.fields, basis.B, basis.M
            assert q.shape == (m, problem8.space.ndof)
            assert same_bits(B, q[:, basis.t].T)
            assert same_bits(np.diag(B), np.ones(m))
            assert same_bits(np.triu(B, 1), np.zeros((m, m)))
            vectors = mass_fields.update()
            assert vectors.shape == q.shape
            for k in range(m):
                assert same_bits(vectors[k], problem8.mass @ q[k])
            assert mass_fields.update() is vectors
            if m == 6:
                break
            er.eim_greedy_step(basis, provider, list(train5))

    @pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
    def test_an_exact_tie_goes_to_the_first_dof(self, space8, signs):
        # |r| peaks at dofs 9 and 31 with the same size, +a against -a
        # included: the first dof is the point, and the field is exactly
        # 1 there and +-1 at the other
        basis = er.EimBasis(space8)
        first = np.zeros(space8.ndof)
        first[2] = 1.0
        basis.append_from_residual(first, (1.0, 1.0), 1.0)
        r = np.linspace(-0.4, 0.4, space8.ndof)
        r[2] = 0.0
        r[9], r[31] = signs[0] * 0.7, signs[1] * 0.7
        basis.append_from_residual(r, (2.0, 2.0), 0.7)
        q = basis.fields[-1]
        assert basis.t == [2, 9]
        assert q[9] == 1.0 and q[31] == signs[0] * signs[1]
        assert np.abs(q).max() == 1.0

    def test_nestedness_is_bitwise(self, space8, grid10):
        # richer manifold so the greedy can run longer
        x, y = space8.dof_coords[:, 0], space8.dof_coords[:, 1]
        provider = rows_provider(lambda mu: np.exp(-mu[0] * x) + mu[1] * y**2)
        samples = list(grid10)
        basis = eim_train(space8, provider, samples, m_max=3)
        frozen = copy.deepcopy(basis)
        eim_train(space8, provider, samples, m_max=6, basis=basis)
        assert basis.M == 6
        for m in range(3):
            assert np.array_equal(basis.fields[m], frozen.fields[m])
        assert basis.t[:3] == frozen.t
        assert np.array_equal(basis.B[:3, :3], frozen.B)
        assert basis.mus[:3] == frozen.mus


@pytest.fixture(scope="module")
def trained(space8, grid10):
    x, y = space8.dof_coords[:, 0], space8.dof_coords[:, 1]
    field = lambda mu: np.exp(-mu[0] * x) + np.sin(mu[1] * y)
    samples = list(grid10)
    basis = er.eim_initialize(space8, rows_provider(field), samples)
    states = []
    while basis.M < 6:
        er.eim_greedy_step(basis, rows_provider(field), samples)
        states.append((basis.B.copy(), list(basis.t)))
    return basis, states, field, samples


class TestStructure:
    def test_lower_triangular_unit_diagonal_after_every_step(self, trained):
        _, states, _, _ = trained
        for b, _ in states:
            m = b.shape[0]
            for i in range(m):
                assert abs(b[i, i] - 1.0) <= 1e-12
                for j in range(i + 1, m):
                    assert abs(b[i, j]) <= 1e-12

    def test_unit_sup_norm_fields(self, trained):
        basis, _, _, _ = trained
        for q in basis.fields:
            assert abs(np.max(np.abs(q)) - 1.0) <= 1e-12

    def test_points_distinct(self, trained):
        basis, _, _, _ = trained
        assert len(set(basis.t)) == basis.M

    def test_interpolation_exactness_at_points(self, trained):
        basis, _, field, _ = trained
        for k, mu in enumerate(basis.mus):
            w = field(mu)
            interp = eim_interpolate(basis, w)
            scale = max(1.0, np.max(np.abs(w)))
            for i in range(k + 1):
                assert abs(interp[basis.t[i]] - w[basis.t[i]]) <= 1e-12 * scale


class TestOnline:
    def test_single_field_coeff(self, space8):
        basis = er.EimBasis(space8)
        f = np.zeros(space8.ndof)
        f[3] = 1.0
        basis.append_from_residual(f, (0.0, 0.0), 1.0)
        assert np.allclose(basis.coeffs([3.5]), [3.5])

    def test_forward_substitution_by_hand(self, space8):
        basis = er.EimBasis(space8)
        basis.fields = [np.zeros(space8.ndof), np.zeros(space8.ndof)]
        basis.t = [0, 1]
        basis.B = np.array([[1.0, 0.0], [0.4, 1.0]])
        beta = basis.coeffs([1.0, 2.0])
        assert np.allclose(beta, [1.0, 1.6], atol=1e-15)

    def test_evaluate_unit_vectors(self, space8, grid10):
        basis = eim_train(space8, rows_provider(rank2_field(space8)),
                          list(grid10), m_max=2)
        e1 = np.zeros(2)
        e1[0] = 1.0
        assert np.array_equal(eim_evaluate(basis, e1), basis.fields[0])
        assert np.all(eim_evaluate(basis, np.zeros(2)) == 0.0)

    def test_empty_coeffs(self, space8):
        basis = er.EimBasis(space8)
        assert basis.coeffs([]).shape == (0,)

    def test_training_snapshot_exact_at_points(self, space8, grid10):
        field = rank2_field(space8)
        basis = eim_train(space8, rows_provider(field), list(grid10),
                          m_max=2)
        w = field(basis.mus[1])
        interp = eim_evaluate(basis, basis.coeffs(w[basis.t]))
        assert np.abs(interp[basis.t] - w[basis.t]).max() <= 1e-12
