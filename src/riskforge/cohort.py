"""Analysis cohort construction.

Diagnosis-code filtering, first-ICU-stay selection, adult filter, and the
in-hospital mortality label. All steps are pure frame-to-frame functions;
the composed pipeline ends with one row per subject, sorted by subject_id,
so the result is invariant to input row order.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateCohortRow, EmptyCohortWarning, MissingDischtime, MissingIntime
from .frame import join

CODE_COLUMN = "icd_code"
AGE_COLUMN = "anchor_age"


@dataclass(frozen=True)
class CohortConfig:
    icd_codes: tuple
    min_age: int = 18

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
    # each distinct cell is matched once
    cells, inv = np.unique(diagnoses.values(CODE_COLUMN), return_inverse=True)
    hit = np.array([any(_code_matches(str(cell).strip(), c) for c in codes)
                    for cell in cells], dtype=bool)
    out = diagnoses.filter(hit[inv])

    if out.has_column("hadm_id"):
        # the first row of each admission; rows without one count as one admission
        _, first = np.unique(out.values("hadm_id"), return_index=True, equal_nan=True)
        out = out.take(np.sort(first))

    if out.n_rows == 0:
        warnings.warn("diagnosis filter matched no rows", EmptyCohortWarning)
    return out


def first_icu_stay(stays):
    """One stay per subject: minimal intime, ties broken by smaller stay_id."""
    for col in ("subject_id", "intime"):
        if not stays.has_column(col):
            raise MissingIntime(f"stays frame lacks {col!r}")
    sid = stays.values("subject_id")
    it = stays.values("intime")
    stid = stays.values("stay_id") if stays.has_column("stay_id") else np.arange(stays.n_rows, dtype=float)

    live = np.flatnonzero(~np.isnan(sid) & ~np.isnan(it))
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
    disch = admissions.values("dischtime")
    missing = int(np.isnan(disch).sum())
    if missing:
        raise MissingDischtime(f"{missing} rows have no dischtime")
    if admissions.has_column("deathtime"):
        death = admissions.values("deathtime")
    else:
        death = np.full(admissions.n_rows, np.nan)
    label = (death <= disch).astype(float)
    return admissions.with_column("in_hospital_death", "int", label)


def apply_age_filter(frame, cfg):
    """Keep rows with age >= min_age; a missing age cannot assert eligibility."""
    return frame.filter(frame.values(AGE_COLUMN) >= cfg.min_age)


def build_cohort(diagnoses, patients, icustays, admissions, cfg):
    """Full cohort pipeline; one labeled record per subject, sorted by
    subject_id: ``first_icu_stay`` emits the subjects in that order, and the
    lookups and the age filter keep it.

    Each stay looks up its admission's diagnosis match, then the first stay
    of each subject looks up its patient and its admission; each of those
    lookups needs unique keys (DuplicateCohortRow, whose ``table`` names
    ``patients`` or ``admissions``), so no subject can give two records.
    """
    matched = filter_by_diagnosis(diagnoses, cfg)
    matched = matched.select([c for c in ("subject_id", "hadm_id") if matched.has_column(c)])
    linked = join(icustays, matched, ["subject_id", "hadm_id"], "inner")
    first = first_icu_stay(linked)
    with_age = _lookup(first, patients.select(["subject_id", AGE_COLUMN]), ["subject_id"],
                       "left", "patients")
    adults = apply_age_filter(with_age, cfg)
    adm_cols = ["subject_id", "hadm_id", "dischtime"]
    if admissions.has_column("deathtime"):
        adm_cols.append("deathtime")
    with_adm = _lookup(adults, admissions.select(adm_cols), ["subject_id", "hadm_id"],
                       "inner", "admissions")
    return label_mortality(with_adm)


def _lookup(left, right, keys, how, table):
    """``join``, with ``table`` set on the DuplicateCohortRow it raises."""
    try:
        return join(left, right, keys, how)
    except DuplicateCohortRow as exc:
        exc.table = table
        raise
