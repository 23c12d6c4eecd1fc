"""Seeded synthetic cohort with known ground truth.

Emits MIMIC-shaped CSV tables (diagnoses, patients, stays, admissions,
chart/lab/procedure/input events, notes, note embeddings) where the binary
outcome is drawn from a logistic model over the *realized* first-24h
aggregate features, so downstream coefficient estimates are directly
comparable to the generating values. Also produces a ground-truth table
(true coefficients, informative features, intercept, Bayes AUC from the
true linear predictor).

Ineligible rows (minors, repeat stays, non-matching codes, duplicate
diagnosis rows, implausible measurements, post-discharge deaths) are woven
in deliberately so the cohort and cleaning stages have real work to do.

Tables are built a column at a time, and every draw comes from the same
generator in the same order as one draw per row would: PCG64 spends one
64-bit word per double, singly or as an array. A draw on [0, 1) is
``random``, the double ``uniform(0, 1)`` returns at under a third of the
cost. Loops remain only where ``integers`` (buffered 32-bit halves of a
word) interleaves with doubles (note tokens, diagnoses, notes and their
embeddings), and where a row's second draw depends on its first (deaths).
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasiblePrevalence
from .frame import PatientFrame, parse_time, write_csv
from .harmonize import CELSIUS_ITEM, GCS_ITEMS, GCS_NAMES, LAB_ITEMS, VITAL_ITEMS, VITAL_NAMES
from .scoring import roc

BASE_TIME = parse_time("2150-01-01 00:00:00")
HOUR = 3600.0
DAY = 86400.0

ARREST_CODES = ("4275", "I462", "I468", "I469", "I46")
NOISE_CODES = ("A419", "K219", "N179", "Z515")

# per-variable (mu, sd, lo, hi, n_events, measurement_sd)
VARIABLE_SPECS = {
    "hr": (88.0, 16.0, 30.0, 190.0, 4, 4.0),
    "sbp": (118.0, 20.0, 60.0, 240.0, 4, 6.0),
    "dbp": (62.0, 13.0, 30.0, 150.0, 4, 4.0),
    "mbp": None,  # derived from sbp/dbp latents
    "rr": (19.0, 5.0, 6.0, 50.0, 4, 1.5),
    "bt": (98.2, 1.3, 89.0, 108.0, 4, 0.4),
    "spo2": (96.0, 2.5, 70.0, 100.0, 4, 1.0),
    "hematocrit": (33.0, 5.5, 14.0, 60.0, 2, 1.0),
    "hemoglobin": (10.8, 2.0, 4.0, 20.0, 2, 0.3),
    "platelet": (220.0, 90.0, 20.0, 900.0, 2, 12.0),
    "wbc": (11.5, 5.0, 1.5, 45.0, 2, 0.8),
    "pt": (15.5, 6.0, 9.0, 90.0, 2, 0.6),
    "inr": None,  # derived from pt latent (collinear pair)
    "creatinine": (1.4, 0.9, 0.3, 12.0, 2, 0.1),
    "bun": (28.0, 15.0, 4.0, 180.0, 2, 2.0),
    "glucose": (142.0, 48.0, 45.0, 560.0, 2, 9.0),
    "potassium": (4.2, 0.6, 2.2, 7.5, 2, 0.15),
    "sodium": (139.0, 4.5, 115.0, 165.0, 2, 1.0),
    "calcium": (8.6, 0.8, 5.5, 13.0, 2, 0.2),
    "chloride": (103.0, 5.0, 80.0, 130.0, 2, 1.2),
    "anion_gap": (15.0, 4.0, 4.0, 38.0, 2, 0.8),
    "bicarbonate": (22.0, 4.5, 6.0, 45.0, 2, 1.0),
    "lactate": (3.2, 2.2, 0.4, 18.0, 2, 0.25),
    "ph": (7.33, 0.09, 6.9, 7.65, 2, 0.015),
    "gcs_eye": (3.1, 0.8, 1.0, 4.0, 3, 0.3),
    "gcs_verbal": (3.4, 1.1, 1.0, 5.0, 3, 0.3),
    "gcs_motor": (4.6, 1.2, 1.0, 6.0, 3, 0.3),
}

ITEMID_OF = {}
for _item, _name in {**VITAL_ITEMS, **GCS_ITEMS, **LAB_ITEMS}.items():
    ITEMID_OF.setdefault(_name, _item)

DEFAULT_TRUE_BETA = {
    "lactate_mean": 0.85, "gcs_total": -0.70, "anchor_age": 0.45,
    "hr_mean": 0.45, "bt_mean": -0.50, "spo2_mean": -0.40,
    "bun_mean": 0.35, "wbc_mean": 0.25, "ph_mean": -0.30,
    "hemoglobin_mean": -0.25, "copd": 0.20, "heart_failure": -0.20,
}

DEFAULT_MISSING_RATES = {
    "bt": 0.133, "lactate": 0.19, "ph": 0.176, "pt": 0.109, "inr": 0.108,
    "hr": 0.003, "sbp": 0.015, "dbp": 0.017, "mbp": 0.017, "rr": 0.006,
    "spo2": 0.016, "hematocrit": 0.046, "hemoglobin": 0.048,
    "platelet": 0.051, "wbc": 0.054, "creatinine": 0.044, "bun": 0.046,
    "glucose": 0.048, "potassium": 0.045, "sodium": 0.042, "calcium": 0.068,
    "chloride": 0.043, "anion_gap": 0.044, "bicarbonate": 0.044,
    "gcs_eye": 0.02, "gcs_verbal": 0.024, "gcs_motor": 0.02,
}

COMORBIDITY_RATES = {
    "hypertension": ("I10", 0.52), "heart_failure": ("I50", 0.31),
    "myocardial_infarction": ("I21", 0.18), "diabetes": ("E11", 0.29),
    "copd": ("J44", 0.16),
}

RISK_TOKENS = (
    "shock arrest hypotension anuric pressors intubated asystole acidosis "
    "sepsis unresponsive coma infarct ischemia hemorrhage dialysis hypoxia "
    "bradycardia oliguria encephalopathy effusion consolidation cardiogenic "
    "multiorgan critical arrhythmia vasopressor deteriorating obtunded "
    "refractory apneic"
).split()

PROTECT_TOKENS = (
    "stable improving extubated alert ambulating tolerating recovering "
    "baseline resolved clear unremarkable normal weaned comfortable "
    "oriented afebrile intact improved satisfactory routine benign mild "
    "minimal patent adequate controlled favorable reassuring unchanged calm"
).split()


@dataclass
class SynthConfig:
    n_patients: int = 2000
    prevalence: float = 0.52
    true_beta: dict = field(default_factory=lambda: dict(DEFAULT_TRUE_BETA))
    text_signal_strength: float = 1.0
    missing_rates: dict = field(default_factory=lambda: dict(DEFAULT_MISSING_RATES))
    note_coverage: dict = field(default_factory=lambda: {"discharge": 0.70, "radiology": 0.71})
    emb_dim: int = 768
    emb_rank: int = 6
    seed: int = 0
    vent_rate: float = 0.597
    epi_rate: float = 0.026
    dopa_rate: float = 0.021
    minor_fraction: float = 0.02
    extra_stay_fraction: float = 0.15
    postdischarge_death_fraction: float = 0.02
    implausible_fraction: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.prevalence < 1.0:
            raise InfeasiblePrevalence(f"prevalence {self.prevalence} not in (0, 1)")
        for k, v in self.missing_rates.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"missing rate for {k} outside [0, 1]")
        for k, v in self.note_coverage.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"note coverage for {k} outside [0, 1]")


def _solve_intercept(signal, target):
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        prev = float(np.mean(1.0 / (1.0 + np.exp(-(mid + signal)))))
        if prev < target:
            lo = mid
        else:
            hi = mid
    b0 = 0.5 * (lo + hi)
    got = float(np.mean(1.0 / (1.0 + np.exp(-(b0 + signal)))))
    if abs(got - target) > 0.05:
        raise InfeasiblePrevalence(
            f"target {target} unreachable (best {got:.3f}); signal swamps intercept")
    return b0


@dataclass
class Simulation:
    cfg: SynthConfig
    subject_id: np.ndarray
    hadm_id: np.ndarray
    stay_id: np.ndarray
    anchor_age: np.ndarray
    intime: np.ndarray
    dischtime: np.ndarray
    deathtime: np.ndarray           # NaN where absent
    y: np.ndarray
    eta: np.ndarray
    features: dict                  # realized aggregates, name -> array
    masked: dict                    # variable -> bool array (stay-level MCAR)
    event_values: dict              # variable -> (n, k) measurement draws
    event_times: dict               # variable -> (n, k) offsets in seconds
    flags: dict
    text_latent: np.ndarray
    note_present: dict
    truth: dict


def simulate(cfg):
    """Draw the cohort and everything derived from it (no file output)."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_patients

    subject_id = 10_000 + np.arange(n)
    hadm_id = 20_000_000 + np.arange(n)
    stay_id = 30_000_000 + np.arange(n)
    anchor_age = np.clip(np.round(rng.normal(66, 15, n)), 18, 98)
    intime = BASE_TIME + np.arange(n) * 37 * HOUR + np.round(rng.uniform(0, HOUR, n))
    los = rng.uniform(2 * DAY, 20 * DAY, n)
    dischtime = np.round(intime + los)

    # latent per-stay levels, then measurement draws around them
    latents = {}
    for name, spec in VARIABLE_SPECS.items():
        if spec is None:
            continue
        mu, sd, lo, hi, _, _ = spec
        latents[name] = np.clip(rng.normal(mu, sd, n), lo, hi)
    latents["mbp"] = np.clip(
        (latents["sbp"] + 2.0 * latents["dbp"]) / 3.0 + rng.normal(0, 2.0, n),
        40.0, 180.0)
    latents["inr"] = np.clip(0.088 * latents["pt"] + rng.normal(0, 0.02, n), 0.8, 12.0)

    specs = dict(VARIABLE_SPECS)
    specs["mbp"] = (None, None, 40.0, 180.0, 4, 3.0)
    specs["inr"] = (None, None, 0.8, 12.0, 2, 0.02)

    event_values, event_times, features = {}, {}, {}
    for name in specs:
        _, _, lo, hi, k, meas_sd = specs[name]
        vals = np.clip(latents[name][:, None] + rng.normal(0, meas_sd, (n, k)), lo, hi)
        offs = np.sort(np.round(rng.uniform(0.2 * HOUR, 23.8 * HOUR, (n, k))), axis=1)
        event_values[name] = vals
        event_times[name] = offs
        features[f"{name}_mean"] = vals.mean(axis=1)
        features[f"{name}_min"] = vals.min(axis=1)
        features[f"{name}_max"] = vals.max(axis=1)
    features["gcs_total"] = (features["gcs_eye_mean"] + features["gcs_verbal_mean"]
                             + features["gcs_motor_mean"])
    features["anchor_age"] = anchor_age.astype(float)

    flags = {}
    for name, (_, rate) in COMORBIDITY_RATES.items():
        flags[name] = (rng.random(n) < rate).astype(float)
    flags["received_ventilation"] = (rng.random(n) < cfg.vent_rate).astype(float)
    flags["epinephrine"] = (rng.random(n) < cfg.epi_rate).astype(float)
    flags["dopamine"] = (rng.random(n) < cfg.dopa_rate).astype(float)
    for name, arr in flags.items():
        features[name] = arr

    # linear predictor over standardized realized features + text latent
    signal = np.zeros(n)
    zstats = {}
    for name in sorted(cfg.true_beta):
        beta = cfg.true_beta[name]
        col = features[name]
        mu, sd = float(col.mean()), float(col.std())
        sd = sd if sd > 1e-12 else 1.0
        zstats[name] = (mu, sd)
        signal += beta * (col - mu) / sd
    text_latent = rng.standard_normal(n)
    signal = signal + cfg.text_signal_strength * text_latent

    b0 = _solve_intercept(signal, cfg.prevalence)
    eta = b0 + signal
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)

    death = np.full(n, np.nan)
    # row by row: a survivor's second draw depends on its first
    for i in range(n):
        if y[i] == 1.0:
            death[i] = intime[i] + rng.uniform(DAY, max(DAY * 1.5, dischtime[i] - intime[i]))
            death[i] = min(round(death[i]), dischtime[i])
        elif rng.random() < cfg.postdischarge_death_fraction:
            death[i] = round(dischtime[i] + rng.uniform(DAY, 30 * DAY))

    masked = {}
    for name in specs:
        rate = cfg.missing_rates.get(name, 0.0)
        masked[name] = rng.random(n) < rate

    note_present = {}
    for kind in ("discharge", "radiology"):
        note_present[kind] = rng.random(n) < cfg.note_coverage.get(kind, 0.0)

    bayes_auc = roc(eta, y).auc
    truth = {
        "beta": dict(cfg.true_beta),
        "zstats": zstats,
        "intercept": b0,
        "prevalence_target": cfg.prevalence,
        "prevalence_real": float(y.mean()),
        "bayes_auc": bayes_auc,
        "text_signal_strength": cfg.text_signal_strength,
        "informative": sorted([k for k, v in cfg.true_beta.items() if v != 0.0]),
    }
    return Simulation(cfg, subject_id, hadm_id, stay_id, anchor_age, intime,
                      dischtime, death, y, eta, features, masked, event_values,
                      event_times, flags, text_latent, note_present, truth)


# --- note rendering ---


def _filler_pool(rng, count, tag):
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    pool = []
    seen = set()
    while len(pool) < count:
        word = tag + "".join(rng.choice(letters, size=5))
        if word not in seen:
            seen.add(word)
            pool.append(word)
    return pool


def _render_note(rng, latent, filler):
    length = 35 + int(rng.poisson(45))
    p_risk = 0.30 / (1.0 + math.exp(-1.8 * latent))
    p_prot = 0.30 / (1.0 + math.exp(1.8 * latent))
    tokens = []
    # row by row: integer draws interleave with doubles
    for _ in range(length):
        u = rng.random()
        if u < p_risk:
            tokens.append(RISK_TOKENS[int(rng.integers(len(RISK_TOKENS)))])
        elif u < p_risk + p_prot:
            tokens.append(PROTECT_TOKENS[int(rng.integers(len(PROTECT_TOKENS)))])
        else:
            tokens.append(filler[int(rng.integers(len(filler)))])
        if rng.random() < 0.08:
            tokens.append("the")
        if rng.random() < 0.05:
            tokens.append("___")
        if rng.random() < 0.04:
            tokens.append(str(int(rng.integers(100))))
    stops = rng.random(len(tokens)) < 0.1
    return "".join(t + (". " if stop else " ") for t, stop in zip(tokens, stops)).strip()


def _emb_factors(rng, dim, rank):
    W = rng.standard_normal((dim, max(rank, 2)))
    Q, _ = np.linalg.qr(W)
    return Q.T  # rank x dim orthonormal loadings


# --- CSV emission ---


def generate(cfg, out_dir):
    """Write every input table plus ground_truth.csv; returns the Simulation."""
    sim = simulate(cfg)
    rng = np.random.default_rng(cfg.seed + 999_983)
    n = len(sim.y)
    os.makedirs(out_dir, exist_ok=True)

    # patients (+ a few minors that the age filter must drop)
    n_minor = int(round(cfg.minor_fraction * n))
    minor_subj = 900_000 + np.arange(n_minor)
    minor_hadm = 28_000_000 + np.arange(n_minor)
    minor_stay = 38_000_000 + np.arange(n_minor)
    pat_subj = np.concatenate([sim.subject_id, minor_subj])
    pat_age = np.concatenate([sim.anchor_age, rng.integers(5, 18, n_minor)])
    gender = np.where(rng.random(len(pat_subj)) < 0.44, "F", "M")
    write_csv(PatientFrame.from_columns([
        ("subject_id", "int", pat_subj.astype(float)),
        ("anchor_age", "int", pat_age.astype(float)),
        ("gender", "str", gender),
    ]), os.path.join(out_dir, "patients.csv"))

    # diagnoses: arrest codes (with duplicates), comorbidity codes, noise codes
    d_subj, d_hadm, d_code, d_seq = [], [], [], []

    def diag(s, h, code, seq=1):
        d_subj.append(float(s)); d_hadm.append(float(h))
        d_code.append(code); d_seq.append(float(seq))

    arrest_choice = rng.integers(0, len(ARREST_CODES), n)
    dup_rows = rng.random(n) < 0.05
    # row by row: integer draws interleave with doubles
    for i in range(n):
        diag(sim.subject_id[i], sim.hadm_id[i], ARREST_CODES[arrest_choice[i]])
        if dup_rows[i]:
            diag(sim.subject_id[i], sim.hadm_id[i], ARREST_CODES[(arrest_choice[i] + 1) % 4], 2)
        seq = 3
        for name, (code, _) in COMORBIDITY_RATES.items():
            if sim.flags[name][i] == 1.0:
                diag(sim.subject_id[i], sim.hadm_id[i], code + "9", seq)
                seq += 1
        if rng.random() < 0.3:
            diag(sim.subject_id[i], sim.hadm_id[i],
                 NOISE_CODES[int(rng.integers(len(NOISE_CODES)))], seq)
    for j in range(n_minor):
        diag(minor_subj[j], minor_hadm[j], ARREST_CODES[int(rng.integers(4))])
    write_csv(PatientFrame.from_columns([
        ("subject_id", "int", d_subj),
        ("hadm_id", "int", d_hadm),
        ("seq_num", "int", d_seq),
        ("icd_code", "str", d_code),
    ]), os.path.join(out_dir, "diagnoses_icd.csv"))

    # icustays: the index stay, later repeat stays, and minor stays
    extra = np.flatnonzero(rng.random(n) < cfg.extra_stay_fraction)
    later = sim.intime[extra] + rng.uniform(35, 60, len(extra)) * DAY
    minor_in = BASE_TIME + rng.uniform(0, 300, n_minor) * DAY
    starts = np.concatenate([later, minor_in])
    write_csv(PatientFrame.from_columns([
        ("subject_id", "int", np.concatenate([sim.subject_id, sim.subject_id[extra], minor_subj])),
        ("hadm_id", "int", np.concatenate([sim.hadm_id, sim.hadm_id[extra], minor_hadm])),
        ("stay_id", "int", np.concatenate([sim.stay_id, 40_000_000 + extra, minor_stay])),
        ("intime", "time", np.concatenate([sim.intime, np.round(starts)])),
        ("outtime", "time", np.concatenate([np.minimum(sim.intime + 3 * DAY, sim.dischtime),
                                            np.round(starts + DAY)])),
    ]), os.path.join(out_dir, "icustays.csv"))

    # admissions
    a_death = np.concatenate([sim.deathtime, np.full(n_minor, np.nan)])
    write_csv(PatientFrame.from_columns([
        ("subject_id", "int", np.concatenate([sim.subject_id, minor_subj])),
        ("hadm_id", "int", np.concatenate([sim.hadm_id, minor_hadm])),
        ("admittime", "time", np.concatenate([sim.intime - 6 * HOUR, np.full(n_minor, BASE_TIME)])),
        ("dischtime", "time", np.concatenate([sim.dischtime,
                                              np.full(n_minor, BASE_TIME + 2 * DAY)])),
        ("deathtime", "time", a_death),
    ]), os.path.join(out_dir, "admissions.csv"))

    _write_events(sim, rng, out_dir)
    _write_notes(sim, rng, out_dir)

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
    kinds, names, values = zip(*truth_rows)
    write_csv(PatientFrame.from_columns([
        ("kind", "str", kinds), ("name", "str", names), ("value", "num", values),
    ]), os.path.join(out_dir, "ground_truth.csv"))
    return sim


def _events_frame(sim, blocks, charted):
    """One event table from (stay rows, times, itemids, values, units) blocks;
    chart tables (``charted``) carry stay_id and units, lab tables do not."""
    rows, times, items, values, units = (np.concatenate(c) for c in zip(*blocks))
    ids = ("subject_id", "hadm_id", "stay_id") if charted else ("subject_id", "hadm_id")
    columns = [(name, "int", getattr(sim, name)[rows]) for name in ids]
    columns += [("charttime", "time", times), ("itemid", "int", items), ("valuenum", "num", values)]
    if charted:
        columns.append(("valueuom", "str", units))
    return PatientFrame.from_columns(columns)


def _write_events(sim, rng, out_dir):
    cfg = sim.cfg
    n = len(sim.y)
    vital_set = set(VITAL_NAMES) | set(GCS_NAMES)

    # every unmasked stay's draws of a variable, stay by stay in draw order
    chart, lab = [], []
    for name in sorted(sim.event_values):
        vals = sim.event_values[name]
        n_draws = vals.shape[1]
        stays = np.flatnonzero(~sim.masked[name])
        rows = np.repeat(stays, n_draws)
        times = sim.intime[rows] + sim.event_times[name][stays].ravel()
        values = vals[stays].ravel()
        items = np.full(len(rows), float(ITEMID_OF[name]))
        units = np.full(len(rows), "F" if name == "bt" else "", dtype=object)
        if name == "bt":
            # a third of temperature rows arrive in Celsius
            celsius = (rows + np.tile(np.arange(n_draws), len(stays))) % 3 == 0
            items[celsius] = float(CELSIUS_ITEM)
            values = np.where(celsius, (values - 32.0) * 5.0 / 9.0, values)
            units[celsius] = "C"
        (chart if name in vital_set else lab).append((rows, times, items, values, units))

    # out-of-window and implausible rows the pipeline must ignore
    n_extra = max(1, int(0.02 * n))
    pick = rng.integers(0, n, n_extra)
    late = rng.uniform([0.5, 60.0], [6.0, 120.0], (n_extra, 2))  # (hours past 24 h, value)
    chart.append((pick, sim.intime[pick] + 24 * HOUR + late[:, 0] * HOUR,
                  np.full(n_extra, float(ITEMID_OF["hr"])), late[:, 1],
                  np.full(n_extra, "", dtype=object)))
    n_bad = max(1, int(cfg.implausible_fraction * n))
    bad_specs = [("wbc", 0.3), ("glucose", 700.0), ("lactate", 25.0), ("hr", 400.0)]
    bad_rows = rng.integers(0, n, n_bad)
    bad_times = sim.intime[bad_rows] + rng.uniform(1, 23, n_bad) * HOUR
    spec = np.arange(n_bad) % len(bad_specs)
    bad_names = np.array([name for name, _ in bad_specs])[spec]
    bad_items = np.array([float(ITEMID_OF[name]) for name, _ in bad_specs])[spec]
    bad_values = np.array([value for _, value in bad_specs])[spec]
    for table, keep in ((chart, bad_names == "hr"), (lab, bad_names != "hr")):
        table.append((bad_rows[keep], bad_times[keep], bad_items[keep], bad_values[keep],
                       np.full(int(keep.sum()), "", dtype=object)))

    write_csv(_events_frame(sim, chart, True), os.path.join(out_dir, "chartevents.csv"))
    write_csv(_events_frame(sim, lab, False), os.path.join(out_dir, "labevents.csv"))

    # one start-time draw per (stay, treatment) given, stay by stay
    given = np.column_stack([sim.flags[flag] == 1.0 for flag in
                             ("received_ventilation", "epinephrine", "dopamine")])
    rows, treatment = np.nonzero(given)
    starts = sim.intime[rows] + rng.uniform(0.5, 20, len(rows)) * HOUR
    items = np.array([225792.0, 221289.0, 221662.0])[treatment]
    for name, keep in (("procedureevents.csv", treatment == 0),
                       ("inputevents.csv", treatment > 0)):
        write_csv(PatientFrame.from_columns(
            [(col, "int", getattr(sim, col)[rows[keep]])
             for col in ("subject_id", "hadm_id", "stay_id")]
            + [("starttime", "time", starts[keep]), ("itemid", "int", items[keep])]),
            os.path.join(out_dir, name))


def _write_notes(sim, rng, out_dir):
    cfg = sim.cfg
    loadings = _emb_factors(np.random.default_rng(cfg.seed + 77), cfg.emb_dim, cfg.emb_rank)
    factor_scale = np.array([3.0] + [2.0 / (1 + k) + 1.0 for k in range(loadings.shape[0] - 1)])

    for kind, filler_tag in (("discharge", "zd"), ("radiology", "zr")):
        filler = _filler_pool(rng, 80, filler_tag)
        stays = np.flatnonzero(sim.note_present[kind])
        note_rows, note_times, texts, emb_rows = [], [], [], []
        # row by row: rendering a note draws integers between these doubles
        for i in stays:
            t = sim.dischtime[i] - HOUR if kind == "discharge" else sim.intime[i] + 2 * HOUR
            note_rows.append(i)
            note_times.append(round(t))
            texts.append(_render_note(rng, sim.text_latent[i], filler))
            if kind == "radiology" and rng.random() < 0.4:
                # later duplicate report; selection must keep the earliest
                note_rows.append(i)
                note_times.append(round(t + rng.uniform(2, 30) * HOUR))
                texts.append(_render_note(rng, sim.text_latent[i], filler))
            factors = np.concatenate([[sim.text_latent[i]],
                                      rng.standard_normal(loadings.shape[0] - 1)])
            emb_rows.append((factors * factor_scale) @ loadings
                            + 0.25 * rng.standard_normal(cfg.emb_dim))
        hadm = sim.hadm_id[note_rows]
        write_csv(PatientFrame.from_columns([
            ("note_id", "str", [f"{kind[:2]}-{h}-{j}" for j, h in enumerate(hadm)]),
            ("subject_id", "int", sim.subject_id[note_rows]),
            ("hadm_id", "int", hadm),
            ("charttime", "time", note_times),
            ("text", "str", texts),
        ]), os.path.join(out_dir, f"{kind}.csv"))

        emb_mat = np.vstack(emb_rows) if emb_rows else np.zeros((0, cfg.emb_dim))
        write_csv(PatientFrame.from_columns(
            [("hadm_id", "int", sim.hadm_id[stays])]
            + [(f"emb_{d}", "num", emb_mat[:, d]) for d in range(cfg.emb_dim)]),
            os.path.join(out_dir, f"{kind}_emb.csv"))
