import math
import os

import numpy as np
import pytest

from riskforge.errors import InfeasiblePrevalence
from riskforge.glm import fit_logistic, univariate_screen
from riskforge.design import FeatureMatrix, standardize
from riskforge.scoring import roc
from riskforge.frame import PatientFrame, read_csv, read_header, write_csv
from riskforge.harmonize import GCS_NAMES, VITAL_NAMES
from riskforge.synth import (ARREST_CODES, BASE_TIME, COMORBIDITY_RATES, DAY,
                             DEFAULT_MISSING_RATES, DEFAULT_TRUE_BETA, HOUR, ITEMID_OF,
                             NOISE_CODES, PROTECT_TOKENS, RISK_TOKENS, SynthConfig,
                             _emb_factors, _filler_pool, _render_note, generate,
                             simulate)

from synth_frames import features_frame


def small_cfg(**kw):
    base = dict(n_patients=300, emb_dim=24, seed=5)
    base.update(kw)
    return SynthConfig(**base)


class TestSimulate:
    def test_prevalence_within_two_points(self):
        sim = simulate(SynthConfig(n_patients=2500, emb_dim=8, seed=1))
        assert abs(sim.y.mean() - 0.52) < 0.02

    def test_bayes_auc_upper_bounds_fitted_model(self):
        sim = simulate(SynthConfig(n_patients=1500, emb_dim=8, seed=2,
                                   missing_rates={}))
        frame = features_frame(sim)
        names = sorted(DEFAULT_TRUE_BETA)
        X = np.column_stack([frame.values(n) for n in names])
        fm = standardize(FeatureMatrix(X, names))
        fit = fit_logistic(fm.X, sim.y)
        fitted_auc = roc(fit.predict(fm.X), sim.y).auc
        assert sim.truth["bayes_auc"] >= fitted_auc - 0.01

    def test_zero_beta_gives_chance_auc_and_intercept_prevalence(self):
        cfg = SynthConfig(n_patients=3000, emb_dim=8, seed=3, true_beta={},
                          text_signal_strength=0.0, prevalence=0.4)
        sim = simulate(cfg)
        # eta is constant: prevalence equals sigmoid(intercept)
        expect = 1.0 / (1.0 + np.exp(-sim.truth["intercept"]))
        assert expect == pytest.approx(0.4, abs=1e-6)
        assert abs(sim.y.mean() - 0.4) < 0.03
        rng = np.random.default_rng(0)
        fake_scores = rng.standard_normal(len(sim.y))
        assert abs(roc(fake_scores, sim.y).auc - 0.5) < 0.04

    def test_sign_recovery_for_strong_signals(self):
        sim = simulate(SynthConfig(n_patients=6000, emb_dim=8, seed=4,
                                   missing_rates={}, text_signal_strength=0.0))
        frame = features_frame(sim)
        strong = {k: v for k, v in DEFAULT_TRUE_BETA.items() if abs(v) >= 0.3}
        X = np.column_stack([frame.values(n) for n in sorted(strong)])
        fm = standardize(FeatureMatrix(X, sorted(strong)))
        rows = univariate_screen(fm, sim.y)
        for row in rows:
            assert np.sign(row.coef) == np.sign(strong[row.name]), row.name
            assert row.significant

    def test_infeasible_prevalence_rejected(self):
        with pytest.raises(InfeasiblePrevalence):
            SynthConfig(n_patients=100, prevalence=1.0)

    def test_masking_rates_close_to_configured(self):
        cfg = SynthConfig(n_patients=4000, emb_dim=8, seed=6)
        sim = simulate(cfg)
        assert abs(sim.masked["lactate"].mean() - 0.19) < 0.03
        assert abs(sim.masked["bt"].mean() - 0.133) < 0.03


class TestGenerate:
    def test_all_tables_written(self, tmp_path):
        generate(small_cfg(), tmp_path)
        for name in ("patients", "diagnoses_icd", "icustays", "admissions",
                     "chartevents", "labevents", "procedureevents",
                     "inputevents", "discharge", "radiology", "discharge_emb",
                     "radiology_emb", "ground_truth"):
            assert (tmp_path / f"{name}.csv").exists(), name

    def test_bitwise_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate(small_cfg(), a)
        generate(small_cfg(), b)
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_note_coverage_tracks_config(self, tmp_path):
        cfg = small_cfg(n_patients=1200)
        sim = generate(cfg, tmp_path)
        assert abs(sim.note_present["discharge"].mean() - 0.70) < 0.05
        assert abs(sim.note_present["radiology"].mean() - 0.71) < 0.05

    def test_treatment_flag_rate_matches(self, tmp_path):
        sim = simulate(SynthConfig(n_patients=4000, emb_dim=8, seed=8))
        assert abs(sim.flags["received_ventilation"].mean() - 0.597) < 0.02


# --- per-row reference emission ---
#
# The tables as generate wrote them row by row, one draw per row, before its
# loops became column operations. Each column operation must leave every
# draw in its generator and its order, so the files must match byte for byte.


def reference_render_note(rng, latent, filler):
    length = 35 + int(rng.poisson(45))
    p_risk = 0.30 / (1.0 + math.exp(-1.8 * latent))
    p_prot = 0.30 / (1.0 + math.exp(1.8 * latent))
    tokens = []
    for _ in range(length):
        u = rng.uniform()
        if u < p_risk:
            tokens.append(RISK_TOKENS[int(rng.integers(len(RISK_TOKENS)))])
        elif u < p_risk + p_prot:
            tokens.append(PROTECT_TOKENS[int(rng.integers(len(PROTECT_TOKENS)))])
        else:
            tokens.append(filler[int(rng.integers(len(filler)))])
        if rng.uniform() < 0.08:
            tokens.append("the")
        if rng.uniform() < 0.05:
            tokens.append("___")
        if rng.uniform() < 0.04:
            tokens.append(str(int(rng.integers(100))))
    text = ""
    for t in tokens:
        text += t
        text += ". " if rng.uniform() < 0.1 else " "
    return text.strip()


def reference_generate(cfg, out_dir):
    sim = simulate(cfg)
    rng = np.random.default_rng(cfg.seed + 999_983)
    n = len(sim.y)
    os.makedirs(out_dir, exist_ok=True)

    def write(name, columns):
        write_csv(PatientFrame.from_columns(columns), os.path.join(out_dir, name))

    n_minor = int(round(cfg.minor_fraction * n))
    minor_subj = 900_000 + np.arange(n_minor)
    minor_hadm = 28_000_000 + np.arange(n_minor)
    minor_stay = 38_000_000 + np.arange(n_minor)
    pat_subj = np.concatenate([sim.subject_id, minor_subj])
    pat_age = np.concatenate([sim.anchor_age, rng.integers(5, 18, n_minor)])
    gender = np.where(rng.uniform(size=len(pat_subj)) < 0.44, "F", "M")
    write("patients.csv", [("subject_id", "int", pat_subj.astype(float)),
                           ("anchor_age", "int", pat_age.astype(float)),
                           ("gender", "str", list(gender))])

    d_subj, d_hadm, d_code, d_seq = [], [], [], []

    def diag(s, h, code, seq=1):
        d_subj.append(float(s)); d_hadm.append(float(h))
        d_code.append(code); d_seq.append(float(seq))

    arrest_choice = rng.integers(0, len(ARREST_CODES), n)
    dup_rows = rng.uniform(size=n) < 0.05
    for i in range(n):
        diag(sim.subject_id[i], sim.hadm_id[i], ARREST_CODES[arrest_choice[i]])
        if dup_rows[i]:
            diag(sim.subject_id[i], sim.hadm_id[i], ARREST_CODES[(arrest_choice[i] + 1) % 4], 2)
        seq = 3
        for name, (code, _) in COMORBIDITY_RATES.items():
            if sim.flags[name][i] == 1.0:
                diag(sim.subject_id[i], sim.hadm_id[i], code + "9", seq)
                seq += 1
        if rng.uniform() < 0.3:
            diag(sim.subject_id[i], sim.hadm_id[i],
                 NOISE_CODES[int(rng.integers(len(NOISE_CODES)))], seq)
    for j in range(n_minor):
        diag(minor_subj[j], minor_hadm[j], ARREST_CODES[int(rng.integers(4))])
    write("diagnoses_icd.csv", [("subject_id", "int", np.array(d_subj)),
                                ("hadm_id", "int", np.array(d_hadm)),
                                ("seq_num", "int", np.array(d_seq)),
                                ("icd_code", "str", d_code)])

    s_subj = list(sim.subject_id.astype(float))
    s_hadm = list(sim.hadm_id.astype(float))
    s_stay = list(sim.stay_id.astype(float))
    s_in = list(sim.intime)
    s_out = list(np.minimum(sim.intime + 3 * DAY, sim.dischtime))
    extra = rng.uniform(size=n) < cfg.extra_stay_fraction
    for i in np.flatnonzero(extra):
        s_subj.append(float(sim.subject_id[i]))
        s_hadm.append(float(sim.hadm_id[i]))
        s_stay.append(float(40_000_000 + i))
        later = sim.intime[i] + rng.uniform(35, 60) * DAY
        s_in.append(round(later))
        s_out.append(round(later + DAY))
    for j in range(n_minor):
        s_subj.append(float(minor_subj[j]))
        s_hadm.append(float(minor_hadm[j]))
        s_stay.append(float(minor_stay[j]))
        t = BASE_TIME + rng.uniform(0, 300) * DAY
        s_in.append(round(t))
        s_out.append(round(t + DAY))
    write("icustays.csv", [("subject_id", "int", np.array(s_subj)),
                           ("hadm_id", "int", np.array(s_hadm)),
                           ("stay_id", "int", np.array(s_stay)),
                           ("intime", "time", np.array(s_in)),
                           ("outtime", "time", np.array(s_out))])

    a_death = np.concatenate([sim.deathtime, np.full(n_minor, np.nan)])
    write("admissions.csv", [
        ("subject_id", "int", np.concatenate([sim.subject_id, minor_subj]).astype(float)),
        ("hadm_id", "int", np.concatenate([sim.hadm_id, minor_hadm]).astype(float)),
        ("admittime", "time", np.concatenate([sim.intime - 6 * HOUR,
                                              np.full(n_minor, BASE_TIME)])),
        ("dischtime", "time", np.concatenate([sim.dischtime,
                                              np.full(n_minor, BASE_TIME + 2 * DAY)])),
        ("deathtime", "time", a_death)])

    reference_write_events(sim, rng, write)
    reference_write_notes(sim, rng, write)

    truth_rows = [("meta", "intercept", sim.truth["intercept"]),
                  ("meta", "prevalence_target", sim.truth["prevalence_target"]),
                  ("meta", "prevalence_real", sim.truth["prevalence_real"]),
                  ("meta", "bayes_auc", sim.truth["bayes_auc"]),
                  ("meta", "text_signal_strength", sim.truth["text_signal_strength"]),
                  ("meta", "seed", float(cfg.seed))]
    for name in sorted(sim.truth["beta"]):
        truth_rows.append(("beta", name, sim.truth["beta"][name]))
    for name in sim.truth["informative"]:
        truth_rows.append(("informative", name, 1.0))
    write("ground_truth.csv", [("kind", "str", [r[0] for r in truth_rows]),
                               ("name", "str", [r[1] for r in truth_rows]),
                               ("value", "num", np.array([r[2] for r in truth_rows]))])


def reference_write_events(sim, rng, write):
    n = len(sim.y)
    vital_set = set(VITAL_NAMES) | set(GCS_NAMES)
    c_subj, c_hadm, c_stay, c_time, c_item, c_val, c_uom = [], [], [], [], [], [], []
    l_subj, l_hadm, l_time, l_item, l_val = [], [], [], [], []

    def chart(i, t, item, v, uom=""):
        c_subj.append(float(sim.subject_id[i])); c_hadm.append(float(sim.hadm_id[i]))
        c_stay.append(float(sim.stay_id[i])); c_time.append(t)
        c_item.append(float(item)); c_val.append(v); c_uom.append(uom)

    def lab(i, t, item, v):
        l_subj.append(float(sim.subject_id[i])); l_hadm.append(float(sim.hadm_id[i]))
        l_time.append(t); l_item.append(float(item)); l_val.append(v)

    for name in sorted(sim.event_values):
        vals = sim.event_values[name]
        for i in range(n):
            if sim.masked[name][i]:
                continue
            for k in range(vals.shape[1]):
                t = sim.intime[i] + sim.event_times[name][i, k]
                v = float(vals[i, k])
                if name not in vital_set:
                    lab(i, t, ITEMID_OF[name], v)
                elif name == "bt" and (i + k) % 3 == 0:
                    chart(i, t, 223762, (v - 32.0) * 5.0 / 9.0, "C")
                else:
                    chart(i, t, ITEMID_OF[name], v, "F" if name == "bt" else "")

    for i in rng.integers(0, n, max(1, int(0.02 * n))):
        t = sim.intime[i] + 24 * HOUR + rng.uniform(0.5, 6) * HOUR
        chart(i, t, ITEMID_OF["hr"], float(rng.uniform(60, 120)))
    n_bad = max(1, int(sim.cfg.implausible_fraction * n))
    bad_specs = [("wbc", 0.3), ("glucose", 700.0), ("lactate", 25.0), ("hr", 400.0)]
    for j, i in enumerate(rng.integers(0, n, n_bad)):
        name, bad_val = bad_specs[j % len(bad_specs)]
        t = sim.intime[i] + rng.uniform(1, 23) * HOUR
        (chart if name == "hr" else lab)(i, t, ITEMID_OF[name], bad_val)

    write("chartevents.csv", [("subject_id", "int", np.array(c_subj)),
                              ("hadm_id", "int", np.array(c_hadm)),
                              ("stay_id", "int", np.array(c_stay)),
                              ("charttime", "time", np.array(c_time)),
                              ("itemid", "int", np.array(c_item)),
                              ("valuenum", "num", np.array(c_val)),
                              ("valueuom", "str", c_uom)])
    write("labevents.csv", [("subject_id", "int", np.array(l_subj)),
                            ("hadm_id", "int", np.array(l_hadm)),
                            ("charttime", "time", np.array(l_time)),
                            ("itemid", "int", np.array(l_item)),
                            ("valuenum", "num", np.array(l_val))])

    events = {"procedureevents.csv": [], "inputevents.csv": []}
    for i in range(n):
        for flag, item, table in (("received_ventilation", 225792.0, "procedureevents.csv"),
                                  ("epinephrine", 221289.0, "inputevents.csv"),
                                  ("dopamine", 221662.0, "inputevents.csv")):
            if sim.flags[flag][i] == 1.0:
                events[table].append((float(sim.subject_id[i]), float(sim.hadm_id[i]),
                                      float(sim.stay_id[i]),
                                      sim.intime[i] + rng.uniform(0.5, 20) * HOUR, item))
    for table, rows in events.items():
        columns = list(zip(*rows)) or [()] * 5
        write(table, [(name, kind, np.array(col, dtype=float)) for (name, kind), col in zip(
            [("subject_id", "int"), ("hadm_id", "int"), ("stay_id", "int"),
             ("starttime", "time"), ("itemid", "int")], columns)])


def reference_write_notes(sim, rng, write):
    cfg = sim.cfg
    loadings = _emb_factors(np.random.default_rng(cfg.seed + 77), cfg.emb_dim, cfg.emb_rank)
    factor_scale = np.array([3.0] + [2.0 / (1 + k) + 1.0 for k in range(loadings.shape[0] - 1)])
    for kind, filler_tag in (("discharge", "zd"), ("radiology", "zr")):
        filler = _filler_pool(rng, 80, filler_tag)
        rows_hadm, rows_subj, rows_time, rows_text = [], [], [], []
        emb_hadm, emb_rows = [], []
        for i in range(len(sim.y)):
            if not sim.note_present[kind][i]:
                continue
            t = sim.dischtime[i] - HOUR if kind == "discharge" else sim.intime[i] + 2 * HOUR
            rows_subj.append(float(sim.subject_id[i]))
            rows_hadm.append(float(sim.hadm_id[i]))
            rows_time.append(round(t))
            rows_text.append(reference_render_note(rng, sim.text_latent[i], filler))
            if kind == "radiology" and rng.uniform() < 0.4:
                rows_subj.append(float(sim.subject_id[i]))
                rows_hadm.append(float(sim.hadm_id[i]))
                rows_time.append(round(t + rng.uniform(2, 30) * HOUR))
                rows_text.append(reference_render_note(rng, sim.text_latent[i], filler))
            factors = np.concatenate([[sim.text_latent[i]],
                                      rng.standard_normal(loadings.shape[0] - 1)])
            emb = (factors * factor_scale) @ loadings + 0.25 * rng.standard_normal(cfg.emb_dim)
            emb_hadm.append(float(sim.hadm_id[i]))
            emb_rows.append(emb)
        write(f"{kind}.csv", [
            ("note_id", "str", [f"{kind[:2]}-{int(h)}-{j}" for j, h in enumerate(rows_hadm)]),
            ("subject_id", "int", np.array(rows_subj)),
            ("hadm_id", "int", np.array(rows_hadm)),
            ("charttime", "time", np.array(rows_time)),
            ("text", "str", rows_text)])
        emb_mat = np.vstack(emb_rows) if emb_rows else np.zeros((0, cfg.emb_dim))
        write(f"{kind}_emb.csv", [("hadm_id", "int", np.array(emb_hadm))] + [
            (f"emb_{d}", "num", emb_mat[:, d]) for d in range(cfg.emb_dim)])


REFERENCE_CONFIGS = {
    # one out-of-window row, one implausible row, 2-wide embeddings
    "tiny": dict(n_patients=40, emb_dim=2, seed=3),
    # no treatment given: header-only procedure and input tables
    "untreated": dict(n_patients=120, emb_dim=4, seed=4,
                      vent_rate=0.0, epi_rate=0.0, dopa_rate=0.0),
    # every lactate value missing
    "no_lactate": dict(n_patients=150, emb_dim=8, seed=5,
                       missing_rates={**DEFAULT_MISSING_RATES, "lactate": 1.0}),
    # several rows in each extra block, Celsius temperatures among them
    "default_rates": dict(n_patients=300, emb_dim=16, seed=6),
}


class TestColumnEmission:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_tables_match_per_row_reference(self, tmp_path, name):
        cfg = SynthConfig(**REFERENCE_CONFIGS[name])
        generate(cfg, tmp_path / "got")
        reference_generate(cfg, tmp_path / "want")
        files = sorted(os.listdir(tmp_path / "want"))
        assert sorted(os.listdir(tmp_path / "got")) == files
        for f in files:
            assert (tmp_path / "got" / f).read_bytes() == (tmp_path / "want" / f).read_bytes(), f

    def test_reference_configs_cover_the_edge_cases(self, tmp_path):
        for name, cfg in REFERENCE_CONFIGS.items():
            generate(SynthConfig(**cfg), tmp_path / name)

        def table(cfg_name, name, schema):
            return read_csv(tmp_path / cfg_name / name, schema)

        # tiny: one row past the 24 h window and one implausible row (wbc 0.3)
        chart = table("tiny", "chartevents.csv", [("stay_id", "int"), ("charttime", "time")])
        stays = table("tiny", "icustays.csv", [("stay_id", "int"), ("intime", "time")])
        intime = dict(zip(stays.values("stay_id"), stays.values("intime")))
        offset = chart.values("charttime") - [intime[s] for s in chart.values("stay_id")]
        assert (offset > 24 * HOUR).sum() == 1
        labs = table("tiny", "labevents.csv", [("itemid", "int"), ("valuenum", "num")])
        wbc = labs.values("valuenum")[labs.values("itemid") == ITEMID_OF["wbc"]]
        assert (wbc == 0.3).sum() == 1
        assert read_header(tmp_path / "tiny" / "discharge_emb.csv") == [
            "hadm_id", "emb_0", "emb_1"]
        for f in ("procedureevents.csv", "inputevents.csv"):
            assert table("untreated", f, [("itemid", "int")]).n_rows == 0
        # no_lactate: only the implausible lactate rows remain
        labs = table("no_lactate", "labevents.csv", [("itemid", "int"), ("valuenum", "num")])
        lactate = labs.values("valuenum")[labs.values("itemid") == ITEMID_OF["lactate"]]
        assert set(lactate.tolist()) <= {25.0}
        units = table("default_rates", "chartevents.csv", [("valueuom", "str")]).values("valueuom")
        assert (units == "C").sum() > 0 and (units == "F").sum() > 0

    @pytest.mark.parametrize("latent", [-2.5, 0.0, 1.3])
    def test_render_note_leaves_generator_where_reference_does(self, latent):
        filler = [f"zz{k}" for k in range(80)]
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            # an odd number of integer draws first leaves half a word buffered
            got_rng.integers(7), want_rng.integers(7)
            got = _render_note(got_rng, latent, filler)
            want = reference_render_note(want_rng, latent, filler)
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("leading_integer", [False, True])
    def test_random_draws_the_doubles_uniform_draws(self, leading_integer):
        # synth draws on [0, 1) with random; the references above use uniform
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            if leading_integer:
                got_rng.integers(7), want_rng.integers(7)
            for k in (None, 0, 1, 7, None):
                if k is None:
                    got, want = np.float64(got_rng.random()), np.float64(want_rng.uniform())
                else:
                    got, want = got_rng.random(k), want_rng.uniform(size=k)
                assert got.tobytes() == want.tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
