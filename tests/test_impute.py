import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskforge.errors import AllMissingColumn, LayoutMismatch, SingularDesignWarning
from riskforge.glm import GlmFit
from riskforge.impute import (ImputePolicy, MiceConfig, impute_single,
                              mice_impute, missingness_report, rubin_pool)

from test_frame import make_frame


def _fit(coef, se, names=None):
    coef = np.asarray(coef, dtype=float)
    se = np.asarray(se, dtype=float)
    names = names or [f"b{i}" for i in range(len(coef))]
    return GlmFit(names, coef, se, None, None, None, None, -1.0, -2.0, 0.5,
                  10, True)


def _reference_sweep(work, mask, targets, penalty, rng):
    """One chained-equation pass over the incomplete columns, in place: each
    target regressed on a standardised copy of all the other columns."""
    n, p = work.shape
    for j in targets:
        obs = ~mask[:, j]
        mis = mask[:, j]
        others = [k for k in range(p) if k != j]
        Z = work[:, others]
        mu = Z[obs].mean(axis=0)
        sd = Z[obs].std(axis=0, ddof=0)
        sd = np.where(sd < 1e-12, 1.0, sd)
        Zs = (Z - mu) / sd
        yj = work[obs, j]
        A = Zs[obs].T @ Zs[obs] + penalty * np.eye(len(others))
        b = Zs[obs].T @ (yj - yj.mean())
        try:
            coef = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            coef = None
        if coef is None or not np.all(np.isfinite(coef)):
            warnings.warn(f"singular chained-equation design for column {j}; mean fill",
                          SingularDesignWarning)
            work[mis, j] = yj.mean()
            continue
        pred_obs = Zs[obs] @ coef + yj.mean()
        resid = yj - pred_obs
        dof = max(1, int(obs.sum()) - 1)
        sigma = float(np.sqrt((resid @ resid) / dof))
        pred_mis = Zs[mis] @ coef + yj.mean()
        work[mis, j] = pred_mis + rng.standard_normal(int(mis.sum())) * sigma


def reference_mice(X, cfg):
    """The m completed matrices of ``mice_impute``, one chain at a time."""
    M = np.isnan(X)
    targets = [j for j in range(X.shape[1]) if M[:, j].any()]
    init = X.copy()
    for j in range(X.shape[1]):
        init[M[:, j], j] = X[~M[:, j], j].mean()
    completed = []
    for k in range(cfg.m):
        rng = np.random.default_rng(cfg.seed + k)
        work = init.copy()
        with np.errstate(over="ignore"):
            for _ in range(cfg.max_iter):
                _reference_sweep(work, M, targets, cfg.ridge_penalty, rng)
        completed.append(work)
    return completed


def _frame(X):
    return make_frame(**{f"c{j}": ("num", X[:, j]) for j in range(X.shape[1])})


def _assert_matches_reference(X, cfg):
    got = mice_impute(_frame(X), cfg)
    for out, want in zip(got, reference_mice(X, cfg)):
        for j in range(X.shape[1]):
            col = out.values(f"c{j}")
            obs = ~np.isnan(X[:, j])
            assert np.array_equal(col[obs], X[obs, j])
            np.testing.assert_allclose(col, want[:, j], rtol=1e-6,
                                       atol=1e-6 * np.abs(want[:, j]).max())


def _hard_columns(rng, n):
    """Random columns with the cases the moment form must get right, and the
    three rows where the flag (column 6) is 1. Masking column 0 there leaves
    the flag 0 on every observed row of column 0."""
    base = rng.standard_normal((n, 3))
    flag_rows = rng.choice(n, size=3, replace=False)
    flag = np.zeros(n)
    flag[flag_rows] = 1.0
    X = np.column_stack([
        base,
        base[:, 0] + 1e-6 * rng.standard_normal(n),     # collinear
        np.full(n, 4.5),                                 # constant
        98.6 + 0.4 * rng.standard_normal(n),             # degrees F
        flag,
        1e200 * rng.standard_normal(n),                  # squares overflow
        1e-14 * rng.standard_normal(n),                  # spread under 1e-12
    ])
    return X, flag_rows


class TestSingleImpute:
    def test_mean_fill(self):
        f = make_frame(v=("num", [1.0, np.nan, 3.0], np.array([False, True, False])))
        out = impute_single(f, [ImputePolicy("v", "mean")])
        assert out.values("v").tolist() == [1.0, 2.0, 3.0]
        assert not out.mask("v").any()

    def test_median_fill(self):
        f = make_frame(v=("num", [1.0, np.nan, 100.0], np.array([False, True, False])))
        out = impute_single(f, [ImputePolicy("v", "median")])
        assert out.values("v")[1] == pytest.approx(50.5)

    def test_all_missing_column_raises(self):
        f = make_frame(v=("num", [np.nan, np.nan], np.array([True, True])))
        with pytest.raises(AllMissingColumn):
            impute_single(f, [ImputePolicy("v", "mean")])

    def test_zero_fill(self):
        f = make_frame(v=("num", [np.nan, 2.0], np.array([True, False])))
        out = impute_single(f, [ImputePolicy("v", "zero")])
        assert out.values("v").tolist() == [0.0, 2.0]

    def test_mice_policy_untouched(self):
        f = make_frame(v=("num", [np.nan, 2.0], np.array([True, False])))
        out = impute_single(f, [ImputePolicy("v", "mice")])
        assert out.mask("v").tolist() == [True, False]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20), st.data())
    def test_never_alters_unmasked_cells(self, vals, data):
        n = len(vals)
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if all(mask):
            mask[0] = False
        f = make_frame(v=("num", vals, np.array(mask)))
        out = impute_single(f, [ImputePolicy("v", "mean")])
        before, bmask = f.values("v"), f.mask("v")
        after = out.values("v")
        assert np.array_equal(after[~bmask], before[~bmask])


class TestMice:
    def test_complete_frame_returns_m_copies(self):
        f = make_frame(a=("num", [1.0, 2.0, 3.0]), b=("num", [2.0, 1.0, 0.0]))
        outs = mice_impute(f, MiceConfig(m=3, max_iter=2, seed=0))
        assert len(outs) == 3
        for o in outs:
            assert o.equals(f)

    def test_linear_relation_recovered_within_noise(self):
        # oracle: the same ridge closed form evaluated directly
        rng = np.random.default_rng(4)
        x = rng.standard_normal(80)
        y = 2.0 * x
        mask = np.zeros(80, dtype=bool)
        mask[11] = True
        f = make_frame(x=("num", x), y=("num", y, mask))
        out = mice_impute(f, MiceConfig(m=2, max_iter=6, seed=9))[0]

        obs = ~mask
        z = (x[obs] - x[obs].mean()) / x[obs].std()
        A = z @ z + 1e-3
        coef = (z @ (y[obs] - y[obs].mean())) / A
        pred = coef * (x[11] - x[obs].mean()) / x[obs].std() + y[obs].mean()
        resid = y[obs] - (coef * z + y[obs].mean())
        sigma = np.sqrt(resid @ resid / (obs.sum() - 1))
        got = out.values("y")[11]
        assert abs(got - pred) < max(5 * sigma, 1e-6) + 0.05
        assert got == pytest.approx(2.0 * x[11], abs=0.1)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((50, 3))
        mask = rng.uniform(size=(50, 3)) < 0.2
        f = make_frame(a=("num", vals[:, 0], mask[:, 0]),
                       b=("num", vals[:, 1], mask[:, 1]),
                       c=("num", vals[:, 2], mask[:, 2]))
        cfg = MiceConfig(m=3, max_iter=4, seed=123)
        run1 = mice_impute(f, cfg)
        run2 = mice_impute(f, cfg)
        for a, b in zip(run1, run2):
            for col in ("a", "b", "c"):
                assert np.array_equal(a.values(col), b.values(col))

    def test_frames_share_the_arrays_of_columns_they_do_not_fill(self):
        f = make_frame(a=("num", [1.0, 2.0, 3.0, 4.0], [False, True, False, False]),
                       b=("num", [2.0, 1.0, 0.0, 5.0]), s=("str", ["w", "x", "y", "z"]))
        outs = mice_impute(f, MiceConfig(m=3, max_iter=2, seed=0))
        for o in outs:
            assert o.names == f.names
            assert o._columns[1] is f._columns[1] and o._columns[2] is f._columns[2]
            assert not np.shares_memory(o._columns[0], f._columns[0])
        assert outs[0]._columns[0] is not outs[1]._columns[0]

    def test_observed_cells_preserved_exactly(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((40, 2))
        mask = rng.uniform(size=(40, 2)) < 0.3
        f = make_frame(a=("num", vals[:, 0], mask[:, 0]),
                       b=("num", vals[:, 1], mask[:, 1]))
        for out in mice_impute(f, MiceConfig(m=2, max_iter=3, seed=5)):
            for j, col in enumerate(("a", "b")):
                keep = ~mask[:, j]
                assert np.array_equal(out.values(col)[keep], vals[keep, j])

    def test_all_missing_column(self):
        f = make_frame(a=("num", [np.nan, np.nan], np.array([True, True])),
                       b=("num", [1.0, 2.0]))
        with pytest.raises(AllMissingColumn):
            mice_impute(f, MiceConfig(m=2, max_iter=1, seed=0))

    def test_chains_differ(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((60, 3))
        mask = np.zeros((60, 3), dtype=bool)
        mask[4, 1] = True
        f = make_frame(a=("num", vals[:, 0], mask[:, 0]),
                       b=("num", vals[:, 1], mask[:, 1]),
                       c=("num", vals[:, 2], mask[:, 2]))
        outs = mice_impute(f, MiceConfig(m=2, max_iter=3, seed=0))
        assert outs[0].values("b")[4] != outs[1].values("b")[4]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_column_reference(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(60, 400))
        X, flag_rows = _hard_columns(rng, n)
        for j in (0, 1, 3, 4, 5):
            X[rng.uniform(size=n) < rng.uniform(0.05, 0.3), j] = np.nan
        X[flag_rows, 0] = np.nan
        _assert_matches_reference(X, MiceConfig(m=3, max_iter=4, seed=seed))

    def test_flag_constant_over_observed_rows(self):
        # the flag is 0 wherever the target is observed and 1 on 3 of its
        # missing rows: the flag carries nothing there, as in the reference
        rng = np.random.default_rng(11)
        X, flag_rows = _hard_columns(rng, 400)
        X = X[:, [0, 1, 2, 6]]
        X[flag_rows, 0] = np.nan
        _assert_matches_reference(X, MiceConfig(m=2, max_iter=3, seed=1))

    def test_column_whose_squares_overflow(self):
        # the reference's standard deviation of the 1e200 column overflows,
        # so it regresses on the other columns alone
        rng = np.random.default_rng(12)
        X, _ = _hard_columns(rng, 300)
        X = X[:, [0, 1, 2, 7]]
        X[rng.uniform(size=300) < 0.2, 0] = np.nan
        X[rng.uniform(size=300) < 0.2, 1] = np.nan
        _assert_matches_reference(X, MiceConfig(m=2, max_iter=3, seed=2))

    def test_singular_design_mean_fills_that_chain_and_warns(self, monkeypatch):
        # the stacked solve fails, then chain 1's own solve: chain 1 falls
        # back to the observed mean, the other chains still regress
        rng = np.random.default_rng(13)
        X = rng.standard_normal((80, 3))
        X[rng.uniform(size=80) < 0.2, 0] = np.nan
        cfg = MiceConfig(m=3, max_iter=1, seed=4)
        solve = np.linalg.solve
        calls = []

        def failing_solve(A, b):
            calls.append(A.ndim)
            if A.ndim == 3 or len(calls) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        with pytest.warns(SingularDesignWarning) as record:
            got = mice_impute(_frame(X), cfg)
        monkeypatch.undo()
        assert calls == [3, 2, 2, 2]
        assert len(record) == 1
        mis = np.isnan(X[:, 0])
        assert np.all(got[1].values("c0")[mis] == X[~mis, 0].mean())
        want = reference_mice(X, cfg)
        for k in (0, 2):
            np.testing.assert_allclose(got[k].values("c0"), want[k][:, 0], rtol=1e-9)

    def test_every_chain_mean_fills_when_every_solve_fails(self, monkeypatch):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((50, 3))
        X[rng.uniform(size=50) < 0.2, 1] = np.nan

        def failing_solve(A, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        with pytest.warns(SingularDesignWarning) as record:
            got = mice_impute(_frame(X), MiceConfig(m=3, max_iter=2, seed=0))
        assert len(record) == 3 * 2
        mis = np.isnan(X[:, 1])
        for out in got:
            assert np.all(out.values("c1")[mis] == X[~mis, 1].mean())
            assert np.array_equal(out.values("c1")[~mis], X[~mis, 1])


class TestRubin:
    def test_hand_computed_case(self):
        pooled = rubin_pool([_fit([1.0], [0.5]), _fit([3.0], [0.5])])
        assert pooled.beta_mi[0] == pytest.approx(2.0, abs=1e-12)
        assert pooled.within_var[0] == pytest.approx(0.25, abs=1e-12)
        assert pooled.between_var[0] == pytest.approx(2.0, abs=1e-12)
        assert pooled.total_var[0] == pytest.approx(3.25, abs=1e-12)
        assert pooled.se[0] == pytest.approx(np.sqrt(3.25), abs=1e-12)

    def test_identical_fits_zero_between(self):
        pooled = rubin_pool([_fit([1.5, -2.0], [0.3, 0.4])] * 3)
        assert np.allclose(pooled.between_var, 0.0)
        assert np.allclose(pooled.total_var, pooled.within_var)

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatch):
            rubin_pool([_fit([1.0], [0.5]), _fit([1.0, 2.0], [0.5, 0.5])])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.data())
    def test_total_variance_dominates_within(self, m, q, data):
        fits = []
        for _ in range(m):
            coef = data.draw(st.lists(st.floats(-5, 5), min_size=q, max_size=q))
            se = data.draw(st.lists(st.floats(0.01, 3), min_size=q, max_size=q))
            fits.append(_fit(coef, se))
        pooled = rubin_pool(fits)
        assert np.all(pooled.total_var >= pooled.within_var - 1e-12)
        assert np.all(pooled.between_var >= -1e-12)


def test_pooled_recovery_under_mcar_15pct():
    # known generating coefficients; 100 seeded replications
    from riskforge.glm import fit_logistic, sigmoid

    true_beta = np.array([0.9, -0.6])
    hits, total = 0, 0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        n = 600
        X = rng.standard_normal((n, 2))
        y = (rng.uniform(size=n) < sigmoid(0.3 + X @ true_beta)).astype(float)
        mask1 = rng.uniform(size=n) < 0.15
        f = make_frame(
            x1=("num", X[:, 0], mask1),
            x2=("num", X[:, 1]),
            outcome=("num", y),
        )
        completed = mice_impute(f, MiceConfig(m=3, max_iter=5, seed=seed))
        fits = []
        for comp in completed:
            Z = np.column_stack([comp.values("x1"), comp.values("x2")])
            fits.append(fit_logistic(Z, y, names=["x1", "x2"]))
        pooled = rubin_pool(fits)
        for j in range(2):
            total += 1
            if abs(pooled.beta_mi[j + 1] - true_beta[j]) <= 3 * pooled.se[j + 1]:
                hits += 1
    assert total == 200
    assert hits / total >= 0.95, f"{hits}/{total}"


def test_missingness_report_shape():
    f = make_frame(a=("num", [1.0, np.nan, np.nan], np.array([False, True, True])),
                   b=("num", [1.0, 2.0, 3.0]))
    rep = missingness_report(f)
    assert rep[0] == ("a", 2, pytest.approx(200 / 3))
    assert rep[1] == ("b", 0, 0.0)
