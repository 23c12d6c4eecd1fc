"""Feature frames built straight from a ``synth.Simulation``, for tests that
skip the pipeline's cohort and feature stages."""

import numpy as np

from riskforge.frame import PatientFrame
from riskforge.harmonize import GCS_NAMES


def features_frame(sim):
    """The structured feature frame the pipeline would produce, NaN where a
    variable is missing (completely at random)."""
    n = len(sim.y)
    cols = [
        ("subject_id", "int", sim.subject_id.astype(float)),
        ("hadm_id", "int", sim.hadm_id.astype(float)),
        ("stay_id", "int", sim.stay_id.astype(float)),
        ("anchor_age", "num", sim.features["anchor_age"]),
        ("in_hospital_death", "int", sim.y),
    ]
    gcs_missing = np.zeros(n, dtype=bool)
    for g in GCS_NAMES:
        gcs_missing |= sim.masked[g]
    for name in sorted(sim.event_values):
        m = sim.masked[name]
        stats = ("mean",) if name in GCS_NAMES else ("mean", "min", "max")
        for stat in stats:
            vals = sim.features[f"{name}_{stat}"].copy()
            vals[m] = np.nan
            cols.append((f"{name}_{stat}", "num", vals))
    total = sim.features["gcs_total"].copy()
    total[gcs_missing] = np.nan
    cols.append(("gcs_total", "num", total))
    for name in sim.flags:
        cols.append((name, "int", sim.flags[name]))
    return PatientFrame.from_columns(cols)
