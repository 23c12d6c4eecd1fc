"""Analysis cohort construction.

Diagnosis-code filtering, first-ICU-stay selection, adult filter, and the
in-hospital mortality label. All steps are pure frame-to-frame functions;
the composed pipeline ends with one row per subject, sorted by subject_id,
so the result is invariant to input row order.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCohortWarning, MissingDischtime, MissingIntime
from .frame import JoinSpec, join


@dataclass(frozen=True)
class CohortConfig:
    icd_codes: tuple
    min_age: int = 18
    code_column: str = "icd_code"
    age_column: str = "anchor_age"

    def __post_init__(self):
        if not self.icd_codes:
            raise ValueError("icd_codes must be non-empty")
        if self.min_age < 0:
            raise ValueError("min_age must be >= 0")


def _code_matches(cell, code):
    # a trailing '*' or a 3-character letter-led stem matches by prefix,
    # anything else exactly (4-5 digit codes)
    if code.endswith("*"):
        return cell.startswith(code[:-1])
    if len(code) == 3 and code[0].isalpha():
        return cell.startswith(code)
    return cell == code


def filter_by_diagnosis(diagnoses, cfg):
    """Rows whose code matches any configured code; one row per hadm_id."""
    codes = [c.strip() for c in cfg.icd_codes]
    vals, mask = diagnoses.column(cfg.code_column)
    # each distinct cell is matched once
    cells, inv = np.unique(vals, return_inverse=True)
    hit = np.array([any(_code_matches(str(cell).strip(), c) for c in codes)
                    for cell in cells], dtype=bool)
    out = diagnoses.filter(~mask & hit[inv])

    if out.has_column("hadm_id"):
        hadm, hmask = out.column("hadm_id")
        # the first row of each admission; rows without one count as one admission
        _, first = np.unique(np.where(hmask, np.nan, hadm), return_index=True,
                             equal_nan=True)
        out = out.take(np.sort(first))

    if out.n_rows == 0:
        warnings.warn("diagnosis filter matched no rows", EmptyCohortWarning)
    return out


def first_icu_stay(stays):
    """One stay per subject: minimal intime, ties broken by smaller stay_id."""
    for col in ("subject_id", "intime"):
        if not stays.has_column(col):
            raise MissingIntime(f"stays frame lacks {col!r}")
    sid, smask = stays.column("subject_id")
    it, imask = stays.column("intime")
    stid = stays.values("stay_id") if stays.has_column("stay_id") else np.arange(stays.n_rows, dtype=float)

    live = np.flatnonzero(~smask & ~imask)
    # by subject, then intime, then stay_id; lexsort is stable, so a full tie
    # keeps the earlier row
    rows = live[np.lexsort((stid[live], it[live], sid[live]))]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = sid[rows][1:] != sid[rows][:-1]
    return stays.take(rows[first])


def label_mortality(admissions):
    """in_hospital_death = 1 iff deathtime exists and deathtime <= dischtime."""
    if not admissions.has_column("dischtime"):
        raise MissingDischtime("admissions frame lacks 'dischtime'")
    disch, dmask = admissions.column("dischtime")
    if dmask.any():
        raise MissingDischtime(f"{int(dmask.sum())} rows have no dischtime")
    if admissions.has_column("deathtime"):
        death, kmask = admissions.column("deathtime")
    else:
        death = np.full(admissions.n_rows, np.nan)
        kmask = np.ones(admissions.n_rows, dtype=bool)
    label = ((~kmask) & (death <= disch)).astype(float)
    return admissions.with_column("in_hospital_death", "int", label)


def apply_age_filter(frame, cfg):
    """Keep rows with age >= min_age; a masked age cannot assert eligibility."""
    vals, mask = frame.column(cfg.age_column)
    keep = (~mask) & (vals >= cfg.min_age)
    return frame.filter(keep)


def build_cohort(diagnoses, patients, icustays, admissions, cfg):
    """Full cohort pipeline; one labeled record per subject, sorted by subject_id."""
    matched = filter_by_diagnosis(diagnoses, cfg)
    matched = matched.select([c for c in ("subject_id", "hadm_id") if matched.has_column(c)])
    linked = join(matched, icustays, JoinSpec(("subject_id", "hadm_id"), "inner"))
    first = first_icu_stay(linked)
    with_age = join(first, patients.select(["subject_id", cfg.age_column]),
                    JoinSpec(("subject_id",), "left"))
    adults = apply_age_filter(with_age, cfg)
    adm_cols = ["subject_id", "hadm_id", "dischtime"]
    if admissions.has_column("deathtime"):
        adm_cols.append("deathtime")
    with_adm = join(adults, admissions.select(adm_cols),
                    JoinSpec(("subject_id", "hadm_id"), "inner"))
    labeled = label_mortality(with_adm)
    labeled = labeled.sort_by(["subject_id"])
    sid = labeled.values("subject_id")
    if len(set(sid.tolist())) != labeled.n_rows:
        raise ValueError("cohort has duplicate subjects after first-stay selection")
    return labeled
