import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskforge.errors import AllMissingColumn, LayoutMismatch, SingularDesignWarning
from riskforge.frame import PatientFrame
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

    def test_mice_and_none_policies_untouched(self):
        f = make_frame(v=("num", [np.nan, 2.0], np.array([True, False])))
        for method in ("mice", "none"):
            out = impute_single(f, [ImputePolicy("v", method)])
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
        with pytest.raises(LayoutMismatch):
            rubin_pool([_fit([1.0], [0.5])], m=2)

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
            fits.append(fit_logistic(Z, y, names=["x1", "x2"],
                                     raise_on_separation=False))
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
