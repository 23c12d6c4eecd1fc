import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskforge.errors import ConvergenceFailure, EmptyCorpus, TooFewRows
from riskforge.text import (STOPWORDS, CoverageReport, apply_text_block,
                            corpus_matrix, fit_reduced_basis, fit_tfidf,
                            normalize_text, select_notes, transform_tfidf)

from test_frame import make_frame


class TestStopwords:
    def test_count_is_174(self):
        assert len(STOPWORDS) == 174

    def test_negators_excluded(self):
        assert "no" not in STOPWORDS
        assert "not" not in STOPWORDS
        assert "nor" not in STOPWORDS

    def test_common_words_present(self):
        assert {"the", "and", "of", "was"} <= STOPWORDS


class TestNormalize:
    def test_radiology_sentence(self):
        assert normalize_text("Chest X-Ray 2: no edema.") == \
            ["chest", "x", "ray", "no", "edema"]

    def test_empty(self):
        assert normalize_text("") == []

    def test_pure_stopwords(self):
        assert normalize_text("THE the The") == []

    def test_deid_placeholders_dropped(self):
        assert normalize_text("Seen by ___ today 12mg") == ["seen", "today", "mg"]


class TestSelectNotes:
    def cohort(self):
        return make_frame(hadm_id=("int", [100.0, 200.0]))

    def test_earliest_note_kept(self):
        notes = make_frame(hadm_id=("int", [100.0, 100.0, 100.0]),
                           charttime=("num", [5.0, 2.0, 9.0]),
                           text=("str", ["late", "first", "last"]))
        ids, texts, cov = select_notes(notes, self.cohort(), "radiology")
        assert ids.tolist() == [100.0]
        assert texts == ["first"]

    def test_admission_without_note_in_coverage_gap(self):
        notes = make_frame(hadm_id=("int", [100.0]), charttime=("num", [1.0]),
                           text=("str", ["x"]))
        ids, texts, cov = select_notes(notes, self.cohort(), "discharge")
        assert len(ids) == len(texts) == 1
        assert cov.covered == 1 and cov.total == 2

    def test_non_cohort_notes_ignored(self):
        notes = make_frame(hadm_id=("int", [999.0]), charttime=("num", [1.0]),
                           text=("str", ["x"]))
        ids, texts, cov = select_notes(notes, self.cohort(), "discharge")
        assert len(ids) == 0 and texts == [] and cov.covered == 0

    def test_coverage_report_display_format(self):
        assert str(CoverageReport("discharge", 1618, 2307)) == "discharge 1618 (70.1%)"


class TestTfidf:
    def test_idf_term_in_all_docs(self):
        model = fit_tfidf([["a", "b"], ["b", "c"]])
        assert model.idf[model.vocabulary.index("b")] == pytest.approx(1.0)

    def test_idf_term_in_one_of_two(self):
        model = fit_tfidf([["a", "b"], ["b", "c"]])
        assert model.idf[model.vocabulary.index("a")] == \
            pytest.approx(1.4054651081081644, abs=1e-12)  # ln(3/2) + 1

    def test_vocabulary_capped_at_500(self):
        docs = [[f"t{i:03d}"] for i in range(600)]
        model = fit_tfidf(docs)
        assert len(model.vocabulary) == 500

    def test_ties_break_lexicographically(self):
        model = fit_tfidf([["b", "a"], ["c"]], max_terms=2)
        assert model.vocabulary == ["a", "b"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            fit_tfidf([])
        with pytest.raises(EmptyCorpus):
            fit_tfidf([[], []])

    def test_single_token_doc_unit_vector(self):
        model = fit_tfidf([["a", "b"], ["b", "c"]])
        vec = transform_tfidf(model, ["a"])
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        assert vec[model.vocabulary.index("a")] == pytest.approx(1.0)

    def test_oov_doc_zero_vector(self):
        model = fit_tfidf([["a", "b"]])
        assert np.all(transform_tfidf(model, ["zzz"]) == 0.0)

    def test_duplication_scale_invariance(self):
        model = fit_tfidf([["a", "b", "c"], ["b", "c"]])
        v1 = transform_tfidf(model, ["a", "b"])
        v2 = transform_tfidf(model, ["a", "b", "a", "b"])
        assert np.allclose(v1, v2, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "zzz", "qq"]),
                    max_size=12))
    def test_norms_zero_or_one(self, doc):
        model = fit_tfidf([["alpha", "beta"], ["beta', 'gamma", "gamma"]])
        nrm = np.linalg.norm(transform_tfidf(model, doc))
        assert nrm == pytest.approx(0.0, abs=1e-12) or nrm == pytest.approx(1.0, abs=1e-12)


def dense_svd_oracle(M, kind, target):
    Mc = M - M.mean(0) if kind == "pca" else M
    s = np.linalg.svd(Mc, compute_uv=False)
    ratios = s ** 2 / max((s ** 2).sum(), 1e-300)
    k = int(np.searchsorted(np.cumsum(ratios), target - 1e-12) + 1)
    return min(k, len(s)), ratios


class TestReducedBasis:
    def test_rank_one_single_component(self):
        u = np.ones((6, 1))
        v = np.arange(1.0, 5.0)[None, :]
        basis = fit_reduced_basis(u @ v, "svd", 0.8)
        assert basis.retained == 1
        assert basis.explained_ratio[0] == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_2d_needs_both_components(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((400, 2))
        basis = fit_reduced_basis(M, "pca", 0.9)
        k_oracle, _ = dense_svd_oracle(M, "pca", 0.9)
        assert basis.retained == k_oracle == 2

    def test_reconstruction_error_equals_unexplained_variance(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((30, 8)) @ np.diag([8, 4, 2, 1, 0.5, 0.2, 0.1, 0.05])
        basis = fit_reduced_basis(M, "svd", 0.95)
        proj = basis.transform(M)
        recon = proj @ basis.components
        err = np.sum((M - recon) ** 2) / np.sum(M ** 2)
        assert err == pytest.approx(1.0 - basis.explained_ratio.sum(), abs=1e-6)

    def test_agrees_with_dense_oracle_on_small_matrices(self):
        rng = np.random.default_rng(2)
        for trial in range(6):
            n = int(rng.integers(5, 50))
            d = int(rng.integers(2, 50))
            rank = int(rng.integers(1, min(n, d) + 1))
            M = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
            for kind in ("svd", "pca"):
                for target in (0.8, 0.9):
                    basis = fit_reduced_basis(M, kind, target)
                    k_oracle, ratios = dense_svd_oracle(M, kind, target)
                    assert basis.retained == k_oracle
                    assert np.allclose(basis.explained_ratio,
                                       ratios[:basis.retained], atol=1e-6)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((40, 12))
        basis = fit_reduced_basis(M, "svd", 0.9)
        gram = basis.components @ basis.components.T
        assert np.max(np.abs(gram - np.eye(basis.retained))) < 1e-8

    def test_zero_rows_project_to_zero_under_svd(self):
        rng = np.random.default_rng(4)
        M = np.vstack([rng.standard_normal((20, 5)), np.zeros((3, 5))])
        basis = fit_reduced_basis(M, "svd", 0.8)
        proj = basis.transform(M)
        assert np.all(proj[-3:] == 0.0)

    def test_exact_when_target_needs_most_components(self):
        # a flat spectrum: 0.78 of the variance needs 60 of 104 components,
        # where a truncated iterative solver would stop short of exact
        rng = np.random.default_rng(0)
        d = 104
        M = rng.standard_normal((400, d))
        for kind in ("svd", "pca"):
            basis = fit_reduced_basis(M, kind, 0.78)
            Mc = M - M.mean(0) if kind == "pca" else M
            _, s, Vt = np.linalg.svd(Mc, full_matrices=False)
            ratios = s ** 2 / (s ** 2).sum()
            r = basis.retained
            assert r > 8 and r > d // 2
            assert r == int(np.searchsorted(np.cumsum(ratios), 0.78 - 1e-12) + 1)
            signs = np.sign(np.sum(basis.components * Vt[:r], axis=1))
            assert np.max(np.abs(basis.components * signs[:, None] - Vt[:r])) <= 1e-10
            assert np.max(np.abs(basis.explained_ratio - ratios[:r])) <= 1e-12

    def test_no_variance_or_failed_svd_is_convergence_failure(self, monkeypatch):
        with pytest.raises(ConvergenceFailure):
            fit_reduced_basis(np.ones((4, 3)), "pca", 0.9)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(ConvergenceFailure):
            fit_reduced_basis(np.eye(3), "svd", 0.9)

    def test_input_checks(self):
        M = np.eye(3)
        for target in (0.0, 1.5):
            with pytest.raises(ValueError):
                fit_reduced_basis(M, "svd", target)
        with pytest.raises(TooFewRows):
            fit_reduced_basis(M[:1], "svd", 0.9)
        with pytest.raises(ValueError):
            fit_reduced_basis(M, "ica", 0.9)


class TestTextBlock:
    def test_absent_note_zero_vector_and_indicator(self):
        cohort = make_frame(hadm_id=("int", [100.0, 200.0]))
        blocks = {
            "disch_tfidf_svd": (np.array([100.0]), np.array([[0.5, -0.5]])),
            "discharge_bert_pca": (np.array([100.0]), np.array([[1.0]])),
        }
        out = apply_text_block(cohort, blocks)
        assert out.values("has_discharge_note").tolist() == [1.0, 0.0]
        assert out.values("disch_tfidf_svd_1").tolist() == [0.5, 0.0]
        assert out.values("disch_tfidf_svd_2").tolist() == [-0.5, 0.0]
        assert out.values("discharge_bert_pca_1").tolist() == [1.0, 0.0]

    def test_both_notes_present_both_indicators(self):
        cohort = make_frame(hadm_id=("int", [100.0]))
        blocks = {
            "disch_tfidf_svd": (np.array([100.0]), np.array([[1.0]])),
            "radio_tfidf_svd": (np.array([100.0]), np.array([[2.0]])),
        }
        out = apply_text_block(cohort, blocks)
        assert out.values("has_discharge_note").tolist() == [1.0]
        assert out.values("has_radiology_note").tolist() == [1.0]

    def test_column_count_is_sum_of_block_dims_plus_indicators(self):
        cohort = make_frame(hadm_id=("int", [100.0]))
        dims = {"disch_tfidf_svd": 136, "radio_tfidf_svd": 198,
                "discharge_bert_pca": 113, "radiology_bert_pca": 115}
        blocks = {k: (np.zeros(0), np.zeros((0, d))) for k, d in dims.items()}
        out = apply_text_block(cohort, blocks)
        text_cols = out.n_cols - 1 - 2  # minus hadm_id and the two indicators
        assert text_cols == sum(dims.values()) == 562

    def test_corpus_matrix_shape(self):
        model = fit_tfidf([["a", "b"], ["c"]])
        M = corpus_matrix(model, [["a"], ["c"], []])
        assert M.shape == (3, len(model.vocabulary))


class TestBasisFiles:
    def test_round_trip_svd(self, tmp_path):
        from riskforge.text import load_basis, save_basis
        rng = np.random.default_rng(7)
        M = rng.standard_normal((25, 6))
        basis = fit_reduced_basis(M, "svd", 0.9)
        save_basis(basis, tmp_path / "b.csv")
        loaded = load_basis(tmp_path / "b.csv")
        assert loaded.kind == "svd" and loaded.center is None
        assert loaded.retained == basis.retained
        assert np.allclose(loaded.components, basis.components)
        assert np.allclose(loaded.transform(M), basis.transform(M))

    def test_round_trip_pca_keeps_center(self, tmp_path):
        from riskforge.text import load_basis, save_basis
        rng = np.random.default_rng(8)
        M = rng.standard_normal((25, 5)) + 3.0
        basis = fit_reduced_basis(M, "pca", 0.8)
        save_basis(basis, tmp_path / "b.csv")
        loaded = load_basis(tmp_path / "b.csv")
        assert loaded.kind == "pca"
        assert np.allclose(loaded.center, basis.center)
        assert np.allclose(loaded.transform(M), basis.transform(M))


class TestSelectNotesOrder:
    def test_time_tie_keeps_first_row_and_undated_note_loses(self):
        cohort = make_frame(hadm_id=("int", [300.0, 100.0, 200.0]))
        notes = make_frame(
            hadm_id=("int", [200.0, 100.0, 100.0, 200.0, 300.0]),
            charttime=("num", [np.nan, 4.0, 4.0, 9.0, np.nan],
                       np.array([True, False, False, False, True])),
            text=("str", ["undated", "a", "b", "dated", "only"]))
        ids, texts, cov = select_notes(notes, cohort, "discharge")
        assert ids.tolist() == [100, 200, 300]
        assert texts == ["a", "dated", "only"]
        assert cov.covered == 3 and cov.total == 3
