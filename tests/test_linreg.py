import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from benchsel.errors import (
    EnvironmentLookupError,
    SchemaError,
    SingularMatrixError,
    ValidationError,
)
from benchsel.formats import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from benchsel.linreg import (
    LinearModel,
    _chol_solve_batched,
    cross_validated_mse,
    fit_nnls,
    fit_ols,
    predict_linear,
    r_squared,
)
from conftest import cholesky_reference, lstsq_cv_mse


def brute_force_ols(X, t, with_intercept=False):
    """Independent oracle: explicit (X'X)^-1 X't on the augmented design."""
    Xa = np.hstack([X, np.ones((len(t), 1))]) if with_intercept else X
    beta = np.linalg.inv(Xa.T @ Xa) @ (Xa.T @ t)
    if with_intercept:
        return beta[:-1], beta[-1]
    return beta, None


# Both solvers are backward stable: on a system with condition number
# kappa, each solution is within about kappa * C * eps of the exact one.
# The regular stacks below have kappa <= C + 1 <= 17 and C <= 16, so the
# two agree to about 6e-14 in norm; 1e-12 (about 4,500 eps) is the bound.
SOLVER_RTOL = 1e-12

stack_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 9)),
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
)


class TestBatchedSolver:
    """``_chol_solve_batched`` against the Cholesky reference it replaced."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), C=st.integers(1, 16),
           shape=stack_shapes)
    def test_regular_stacks_match_reference(self, seed, C, shape):
        # G = B B' + C I with |B_ij| <= 1 has eigenvalues in [C, C + C^2].
        rng = np.random.default_rng(seed)
        B = rng.uniform(-1.0, 1.0, size=(*shape, C, C))
        G = B @ np.swapaxes(B, -1, -2) + C * np.eye(C)
        b = rng.normal(size=(*shape, C))
        x, bad = _chol_solve_batched(np.concatenate([G, b[..., None]], -1))
        x_ref, bad_ref = cholesky_reference(G, b)
        assert x.shape == x_ref.shape
        assert np.all(np.linalg.norm(x - x_ref, axis=-1)
                      <= SOLVER_RTOL * np.linalg.norm(x_ref, axis=-1))
        assert np.array_equal(bad, bad_ref)
        assert np.all(bad == -1)

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), C=st.integers(2, 16),
           shape=stack_shapes, data=st.data())
    def test_copied_column_flags_match_reference(self, seed, C, shape, data):
        first = data.draw(st.integers(0, C - 2), label="first")
        copy = data.draw(st.integers(first + 1, C - 1), label="copy")
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(*shape, 3 * C + 2, C))
        t = rng.normal(size=(*shape, 3 * C + 2))
        copied = rng.random(shape) < 0.5
        X[..., copy] = np.where(copied[..., None], X[..., first],
                                X[..., copy])
        Xt = np.swapaxes(X, -1, -2)
        G, b = Xt @ X, (Xt @ t[..., None])[..., 0]
        _, bad = _chol_solve_batched(np.concatenate([G, b[..., None]], -1))
        _, bad_ref = cholesky_reference(G, b)
        assert np.array_equal(bad, bad_ref)
        assert np.array_equal(bad, np.where(copied, copy, -1))

    def test_stack_last_systems_are_solved_without_a_copy(self):
        # The kernel hands the solver (C, C + 1, N, F) arrays viewed as
        # (N, F, C, C + 1); eliminating them in place allocates less than
        # one copy of the stack.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(800, 10, 20, 5))
        t = rng.normal(size=(800, 10, 20, 1))
        Xt = np.swapaxes(X, -1, -2)
        G, b = Xt @ X, (Xt @ t)[..., 0]
        stack_last = np.moveaxis(np.concatenate([G, b[..., None]], -1),
                                 (-2, -1), (0, 1)).copy()
        assert stack_last.shape == (5, 6, 800, 10)
        tracemalloc.start()
        try:
            x, bad = _chol_solve_batched(
                np.moveaxis(stack_last, (0, 1), (-2, -1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack_last.nbytes
        x_ref, bad_ref = cholesky_reference(G, b)
        assert np.all(np.linalg.norm(x - x_ref, axis=-1)
                      <= SOLVER_RTOL * np.linalg.norm(x_ref, axis=-1))
        assert np.array_equal(bad, bad_ref)


class TestFitOls:
    def test_exact_line_through_origin(self):
        model = fit_ols(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-14)
        assert model.intercept is None
        assert model.stats.r_squared == pytest.approx(1.0, abs=1e-14)

    def test_constant_target_with_intercept(self):
        X = np.array([[1.0], [2.0], [3.0]])
        t = np.array([5.0, 5.0, 5.0])
        model = fit_ols(X, t, with_intercept=True)
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-12)
        assert model.intercept == pytest.approx(5.0, abs=1e-12)
        # SS_tot = 0 -> r_squared pinned to 0 by convention
        assert model.stats.r_squared == 0.0

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 3))
        t = rng.normal(size=50)
        model = fit_ols(X, t)
        oracle, _ = brute_force_ols(X, t)
        assert np.abs(model.coefficients - oracle).max() <= \
            1e-9 * max(1.0, np.abs(oracle).max())

    def test_oracle_sweep_up_to_200x11(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rows = int(rng.integers(20, 201))
            cols = int(rng.integers(1, 12))
            with_intercept = bool(rng.integers(2))
            X = rng.normal(size=(rows, cols))
            t = rng.normal(size=rows)
            model = fit_ols(X, t, with_intercept=with_intercept)
            oracle, c = brute_force_ols(X, t, with_intercept)
            scale = max(1e-30, np.abs(oracle).max())
            assert np.abs(model.coefficients - oracle).max() / scale <= 1e-9
            if with_intercept:
                assert abs(model.intercept - c) <= 1e-9 * max(1.0, abs(c))

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(120, 7))
        t = rng.normal(size=120)
        model = fit_ols(X, t)
        residual = t - X @ model.coefficients
        assert np.abs(X.T @ residual).max() <= 1e-8

    def test_singular_design_names_column(self):
        X = np.ones((10, 2))
        X[:, 0] = np.arange(10)
        X = np.hstack([X, X[:, :1]])  # duplicate first column
        with pytest.raises(SingularMatrixError, match="third"):
            fit_ols(X, np.arange(10.0),
                    environment_ids=("first", "second", "third"))

    def test_constant_column_names_the_intercept(self):
        rng = np.random.default_rng(19)
        X = np.column_stack([rng.normal(size=20), np.full(20, 2.0)])
        with pytest.raises(SingularMatrixError) as err:
            fit_ols(X, rng.normal(size=20), with_intercept=True)
        assert err.value.column == "intercept"

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValidationError):
            fit_ols(np.ones((2, 2)), np.ones(2))

    def test_too_many_columns_rejected(self):
        with pytest.raises(ValidationError):
            fit_ols(np.ones((40, 17)), np.ones(40))


class TestFitNnls:
    def test_recovers_true_nonnegative_solution(self):
        # x2 orthogonal to both x1 and the target, so OLS already gives
        # exactly (3, 0); NNLS must agree.
        X = np.array([[1.0, 1.0], [2.0, -1.0], [3.0, -1.0], [4.0, 1.0]])
        t = 3.0 * X[:, 0]
        model = fit_nnls(X, t)
        assert model.coefficients == pytest.approx([3.0, 0.0], abs=1e-12)
        assert model.constrained_nonnegative

    def test_matches_ols_when_constraint_inactive(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(0.5, 2.0, size=(60, 4))
        t = X @ np.array([1.0, 0.5, 2.0, 0.25]) + rng.normal(0, 0.01, 60)
        constrained = fit_nnls(X, t)
        unconstrained = fit_ols(X, t)
        assert (unconstrained.coefficients >= 0).all()
        assert np.abs(constrained.coefficients
                      - unconstrained.coefficients).max() <= 1e-9

    def test_negative_relation_clamps_to_zero(self):
        X = np.arange(1.0, 7.0)[:, None]
        t = -X[:, 0]
        model = fit_nnls(X, t)
        assert model.coefficients[0] == 0.0
        assert model.stats.r_squared <= 0.0

    def test_kkt_conditions_random_problems(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            rows = int(rng.integers(15, 80))
            cols = int(rng.integers(1, 9))
            X = rng.normal(size=(rows, cols))
            t = rng.normal(size=rows)
            model = fit_nnls(X, t)
            coef = model.coefficients
            gradient = X.T @ (X @ coef - t)  # d/dcoef of 0.5*SSE
            assert (coef >= 0).all()
            active = coef == 0.0
            assert np.abs(gradient[~active]).max(initial=0.0) <= 1e-8
            assert gradient[active].min(initial=0.0) >= -1e-8

    def test_kkt_conditions_near_collinear_problems(self):
        # Columns mix two latent factors plus 0.05 noise, so the passive
        # sets the solver meets are nearly rank-deficient.
        rng = np.random.default_rng(25)
        for _ in range(50):
            rows = int(rng.integers(10, 81))
            cols = int(rng.integers(1, min(16, rows)))
            factors = rng.normal(size=(rows, 2))
            X = (factors @ rng.normal(size=(2, cols))
                 + rng.normal(0, 0.05, size=(rows, cols)))
            t = factors @ rng.normal(size=2) + rng.normal(0, 0.05, size=rows)
            coef = fit_nnls(X, t).coefficients
            gradient = X.T @ (X @ coef - t)
            assert (coef >= 0).all()
            active = coef == 0.0
            assert np.abs(gradient[~active]).max(initial=0.0) <= 1e-8
            assert gradient[active].min(initial=0.0) >= -1e-8

    def test_solver_failure_is_a_validation_error(self, monkeypatch):
        import scipy.optimize

        def give_up(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", give_up)
        X = np.random.default_rng(26).normal(size=(10, 2))
        with pytest.raises(ValidationError, match="non-negative least "
                           "squares failed to converge"):
            fit_nnls(X, X[:, 0])

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            X = rng.normal(size=(40, 5))
            t = rng.normal(size=40)
            ours = fit_nnls(X, t).coefficients
            ref, _ = scipy_nnls(X, t)
            assert np.abs(ours - ref).max() <= 1e-8 * max(1.0, ref.max())

    def test_intercept_profiled_out(self):
        rng = np.random.default_rng(24)
        X = rng.uniform(0, 2, size=(50, 3))
        t = X @ np.array([0.5, 0.0, 1.5]) - 2.0 + rng.normal(0, 0.01, 50)
        model = fit_nnls(X, t, with_intercept=True)
        assert (model.coefficients >= 0).all()
        assert model.intercept == pytest.approx(-2.0, abs=0.05)
        # KKT on the centered problem
        Xc = X - X.mean(axis=0)
        gradient = Xc.T @ (Xc @ model.coefficients - (t - t.mean()))
        active = model.coefficients == 0.0
        assert np.abs(gradient[~active]).max(initial=0.0) <= 1e-8
        assert gradient[active].min(initial=0.0) >= -1e-8


class TestRSquared:
    def test_perfect_predictions(self):
        X = np.arange(1.0, 6.0)[:, None]
        t = 2.0 * X[:, 0]
        model = fit_ols(X, t)
        assert r_squared(model, X, t) == pytest.approx(1.0, abs=1e-12)

    def test_mean_predictor_scores_zero(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        model = LinearModel(("x0",), np.array([0.0]), intercept=float(t.mean()))
        X = np.ones((4, 1))
        assert r_squared(model, X, t) == pytest.approx(0.0, abs=1e-12)


class TestCrossValidatedMse:
    def test_noise_free_model_generalizes_exactly(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0, 3, size=(30, 3))
        t = X @ np.array([0.4, 0.5, 0.1])
        for folds in (2, 5, 10):
            assert cross_validated_mse(X, t, folds=folds, seed=0) <= 1e-18

    def test_leave_one_out_matches_hand_oracle(self):
        # x=[0..4], t below; frozen value from the independent per-point
        # refit oracle (fit on 4 points, square the held-out residual).
        X = np.array([0.0, 1.0, 2.0, 3.0, 4.0])[:, None]
        t = np.array([1.0, 2.2, 2.9, 4.1, 5.2])
        loo = cross_validated_mse(X, t, folds=5, seed=123)
        assert loo == pytest.approx(0.4263032821146524, rel=1e-12)

    @pytest.mark.parametrize("with_intercept", [False, True])
    def test_inputs_are_left_unchanged(self, with_intercept):
        # The solver overwrites the systems it is handed; neither fit_ols
        # nor cross_validated_mse may hand it anything of the caller's.
        rng = np.random.default_rng(33)
        X = rng.normal(size=(40, 4))
        t = X @ np.array([0.4, -0.2, 0.1, 0.3]) + rng.normal(0, 0.1, 40)
        X_before, t_before = X.copy(), t.copy()
        fit_ols(X, t, with_intercept)
        cross_validated_mse(X, t, 10, 0, with_intercept)
        fit_ols(X[:, :1], t, with_intercept)    # one column: X'X is 1 x 1
        assert np.array_equal(X, X_before)
        assert np.array_equal(t, t_before)

    def test_deterministic_to_the_bit(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(40, 4))
        t = rng.normal(size=40)
        a = cross_validated_mse(X, t, folds=10, seed=99)
        b = cross_validated_mse(X, t, folds=10, seed=99)
        assert a == b
        assert a != cross_validated_mse(X, t, folds=10, seed=100)

    @pytest.mark.parametrize("with_intercept", [False, True])
    def test_matches_lstsq_oracle(self, with_intercept):
        rng = np.random.default_rng(33)
        for folds in (2, 3, 7, 10):
            X = rng.uniform(0, 3, size=(37, 4))
            t = X @ rng.uniform(0, 1, 4) + rng.normal(0, 0.1, 37) + 0.7
            assert cross_validated_mse(
                X, t, folds=folds, seed=folds,
                with_intercept=with_intercept) == pytest.approx(
                lstsq_cv_mse(X, t, folds, folds, with_intercept), rel=1e-9)

    # Each training Gram is the full Gram minus the held-out fold's, so
    # the next two designs are where that subtraction loses digits.
    def test_near_collinear_pair_matches_oracle(self):
        rng = np.random.default_rng(34)
        X = rng.uniform(0, 3, size=(60, 3))
        X[:, 1] = X[:, 0] + rng.normal(0, 1e-3, 60)
        t = X @ np.array([0.5, 0.3, 0.2]) + rng.normal(0, 0.05, 60)
        assert cross_validated_mse(X, t, folds=10, seed=0) == pytest.approx(
            lstsq_cv_mse(X, t, 10, 0), rel=1e-9)

    def test_collinear_pair_below_pivot_tolerance_is_singular(self):
        # Columns ~1e-6 apart leave a pivot ~1e-13 of the diagonal: every
        # downdated training system must still be flagged, naming the
        # second column of the pair.
        rng = np.random.default_rng(35)
        X = rng.uniform(0, 3, size=(60, 3))
        X[:, 2] = X[:, 1] + rng.normal(0, 1e-6, 60)
        t = X @ np.array([0.5, 0.3, 0.2]) + rng.normal(0, 0.05, 60)
        with pytest.raises(SingularMatrixError, match="'c'"):
            cross_validated_mse(X, t, folds=10, seed=0,
                                environment_ids=("a", "b", "c"))

    @pytest.mark.parametrize("with_intercept", [False, True])
    def test_near_exact_fit_matches_oracle(self, with_intercept):
        rng = np.random.default_rng(36)
        X = rng.uniform(0, 3, size=(60, 5))
        t = X @ np.array([0.4, 0.3, 0.1, 0.1, 0.1])
        t += 1e-3 * np.abs(t).mean() * rng.normal(size=60)
        assert cross_validated_mse(
            X, t, folds=10, seed=1,
            with_intercept=with_intercept) == pytest.approx(
            lstsq_cv_mse(X, t, 10, 1, with_intercept), rel=1e-9)

    def test_rank_deficient_fold_raises(self):
        X = np.zeros((12, 2))
        X[:, 0] = np.arange(12)
        with pytest.raises(SingularMatrixError, match="column 1"):
            cross_validated_mse(X, np.arange(12.0), folds=3, seed=0)

    def test_preconditions(self):
        X = np.ones((6, 1))
        with pytest.raises(ValidationError):
            cross_validated_mse(X, np.ones(6), folds=1, seed=0)
        with pytest.raises(ValidationError):
            cross_validated_mse(X, np.ones(6), folds=7, seed=0)


class TestPredictLinear:
    def test_zero_vector_no_intercept(self):
        model = LinearModel(("a", "b"), np.array([0.4, 0.6]))
        assert predict_linear(model, [0.0, 0.0]) == 0.0

    def test_reference_triple_on_unit_inputs(self):
        model = LinearModel(("Battle Zone", "Name This Game", "Phoenix"),
                            np.array([0.3706, 0.5133, 0.1015]))
        assert predict_linear(model, [1.0, 1.0, 1.0]) == pytest.approx(
            0.9854, abs=1e-12)

    def test_identity_model_returns_input(self):
        model = LinearModel(("Battle Zone",), np.array([1.0]), intercept=0.0)
        for value in (0.0, 1.234, 3.9):
            assert predict_linear(model, [value]) == value

    def test_mapping_input_with_loose_names(self):
        model = LinearModel(("Q*Bert",), np.array([2.0]))
        assert predict_linear(model, {"qbert": 1.5}) == 3.0

    def test_missing_component_names_environment(self):
        model = LinearModel(("Pong", "Breakout"), np.array([1.0, 1.0]))
        with pytest.raises(EnvironmentLookupError, match="Breakout"):
            predict_linear(model, {"Pong": 1.0})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = LinearModel(("Pong", "Breakout"),
                            np.array([0.123456789012345, 0.5]),
                            intercept=-0.25)
        path = tmp_path / "model.json"
        save_model(path, model, name="demo", norms_checksum="sha256:abc")
        loaded, doc = load_model(path)
        assert loaded.environment_ids == model.environment_ids
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert loaded.intercept == model.intercept
        assert doc["norms_checksum"] == "sha256:abc"
        assert doc["name"] == "demo"

    def test_full_precision(self):
        model = LinearModel(("x",), np.array([1 / 3]))
        doc = json.loads(json.dumps(model_to_dict(model)))
        assert model_from_dict(doc).coefficients[0] == 1 / 3

    @pytest.mark.parametrize("text, error", [
        ('{"format": "something-else"}', ValidationError),
        ('{"format": "benchsel-model/1"}', SchemaError),
        ("not json", SchemaError),
        ("[1, 2]", SchemaError),
        ('{"format": "benchsel-model/1", "environment_ids": ["x"], '
         '"coefficients": "1.0"}', SchemaError),
    ], ids=["wrong-tag", "missing-keys", "not-json", "not-an-object",
            "mistyped-key"])
    def test_rejects_wrong_format(self, tmp_path, text, error):
        path = tmp_path / "bad_model.json"
        path.write_text(text)
        with pytest.raises(error, match="bad_model.json"):
            load_model(path)
        if text.startswith("{"):
            with pytest.raises(error):
                model_from_dict(json.loads(text))

    def test_constrained_flag_checked(self):
        with pytest.raises(ValidationError):
            LinearModel(("x",), np.array([-1.0]), constrained_nonnegative=True)
