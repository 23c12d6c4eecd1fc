import numpy as np
import pytest

from riskforge.cohort import (CohortConfig, apply_age_filter, build_cohort,
                              filter_by_diagnosis, first_icu_stay,
                              label_mortality)
from riskforge.errors import EmptyCohortWarning, MissingDischtime, MissingIntime

from test_frame import make_frame

CFG = CohortConfig(("4275", "I46"))


class TestDiagnosisFilter:
    def test_exact_and_prefix_match(self):
        f = make_frame(hadm_id=("int", [1.0, 2.0, 3.0]),
                       icd_code=("str", ["4275", "I462", "E11"]))
        out = filter_by_diagnosis(f, CFG)
        assert out.n_rows == 2
        assert out.values("icd_code").tolist() == ["4275", "I462"]

    def test_duplicate_hadm_keeps_first(self):
        f = make_frame(hadm_id=("int", [5.0, 5.0]),
                       icd_code=("str", ["4275", "I469"]))
        out = filter_by_diagnosis(f, CFG)
        assert out.n_rows == 1
        assert out.values("icd_code").tolist() == ["4275"]

    def test_no_match_warns_and_returns_empty(self):
        f = make_frame(hadm_id=("int", [1.0]), icd_code=("str", ["E11"]))
        with pytest.warns(EmptyCohortWarning):
            out = filter_by_diagnosis(f, CFG)
        assert out.n_rows == 0

    def test_explicit_star_suffix(self):
        f = make_frame(hadm_id=("int", [1.0]), icd_code=("str", ["I468"]))
        out = filter_by_diagnosis(f, CohortConfig(("I46*",)))
        assert out.n_rows == 1


class TestFirstStay:
    def test_keeps_earliest_intime(self):
        f = make_frame(subject_id=("int", [1.0, 1.0]),
                       stay_id=("int", [10.0, 11.0]),
                       intime=("num", [5.0, 2.0]))
        out = first_icu_stay(f)
        assert out.values("intime").tolist() == [2.0]

    def test_single_stay_identity(self):
        f = make_frame(subject_id=("int", [3.0]), stay_id=("int", [1.0]),
                       intime=("num", [7.0]))
        assert first_icu_stay(f).equals(f)

    def test_equal_intime_tie_breaks_on_stay_id(self):
        # oracle: brute-force enumeration of (intime, stay_id) candidates
        stays = [(9, 4.0), (4, 4.0)]
        oracle = min((t, sid) for sid, t in stays)
        f = make_frame(subject_id=("int", [1.0, 1.0]),
                       stay_id=("int", [9.0, 4.0]),
                       intime=("num", [4.0, 4.0]))
        out = first_icu_stay(f)
        assert out.values("stay_id").tolist() == [float(oracle[1])]
        assert out.values("stay_id").tolist() == [4.0]

    def test_missing_intime_column(self):
        f = make_frame(subject_id=("int", [1.0]))
        with pytest.raises(MissingIntime):
            first_icu_stay(f)


class TestMortalityLabel:
    def test_death_before_discharge(self):
        f = make_frame(dischtime=("num", [12.0]), deathtime=("num", [10.0]))
        assert label_mortality(f).values("in_hospital_death").tolist() == [1.0]

    def test_no_deathtime(self):
        f = make_frame(dischtime=("num", [12.0]),
                       deathtime=("num", [np.nan], np.array([True])))
        assert label_mortality(f).values("in_hospital_death").tolist() == [0.0]

    def test_post_discharge_death_excluded(self):
        f = make_frame(dischtime=("num", [10.0]), deathtime=("num", [12.0]))
        assert label_mortality(f).values("in_hospital_death").tolist() == [0.0]

    def test_masked_dischtime_rejected(self):
        f = make_frame(dischtime=("num", [np.nan], np.array([True])),
                       deathtime=("num", [1.0]))
        with pytest.raises(MissingDischtime):
            label_mortality(f)


class TestAgeFilter:
    def test_boundary_inclusive(self):
        f = make_frame(anchor_age=("num", [17.0, 18.0, 90.0]))
        assert apply_age_filter(f, CFG).n_rows == 2

    def test_all_adult_identity(self):
        f = make_frame(anchor_age=("num", [40.0, 81.0]))
        assert apply_age_filter(f, CFG).equals(f)

    def test_masked_age_dropped(self):
        # oracle: row-wise filter treating masked as ineligible
        ages = [25.0, np.nan, 30.0]
        mask = [False, True, False]
        keep_oracle = [a >= 18 and not m for a, m in zip(ages, mask)]
        f = make_frame(anchor_age=("num", ages, np.array(mask)))
        out = apply_age_filter(f, CFG)
        assert out.n_rows == sum(keep_oracle)


def _cohort_inputs():
    diagnoses = make_frame(
        subject_id=("int", [1.0, 1.0, 2.0, 3.0, 4.0]),
        hadm_id=("int", [100.0, 100.0, 200.0, 300.0, 400.0]),
        icd_code=("str", ["4275", "I469", "I462", "E11", "4275"]),
    )
    patients = make_frame(
        subject_id=("int", [1.0, 2.0, 3.0, 4.0]),
        anchor_age=("num", [70.0, 45.0, 60.0, 15.0]),
    )
    icustays = make_frame(
        subject_id=("int", [1.0, 1.0, 2.0, 3.0, 4.0]),
        hadm_id=("int", [100.0, 100.0, 200.0, 300.0, 400.0]),
        stay_id=("int", [11.0, 12.0, 21.0, 31.0, 41.0]),
        intime=("time", [50.0, 20.0, 10.0, 10.0, 10.0]),
    )
    admissions = make_frame(
        subject_id=("int", [1.0, 2.0, 3.0, 4.0]),
        hadm_id=("int", [100.0, 200.0, 300.0, 400.0]),
        dischtime=("time", [1000.0, 1000.0, 1000.0, 1000.0]),
        deathtime=("time", [900.0, np.nan, np.nan, np.nan],
                   np.array([False, True, True, True])),
    )
    return diagnoses, patients, icustays, admissions


def test_build_cohort_composition():
    cohort = build_cohort(*_cohort_inputs(), CFG)
    # subject 3 has no matching code; subject 4 is a minor
    assert cohort.values("subject_id").tolist() == [1.0, 2.0]
    # subject 1 keeps the earlier of its two stays
    assert cohort.values("stay_id").tolist() == [12.0, 21.0]
    assert cohort.values("in_hospital_death").tolist() == [1.0, 0.0]
    assert len(set(cohort.values("subject_id").tolist())) == cohort.n_rows


def test_build_cohort_is_input_order_insensitive():
    diagnoses, patients, icustays, admissions = _cohort_inputs()
    base = build_cohort(diagnoses, patients, icustays, admissions, CFG)
    rng = np.random.default_rng(0)
    shuffled = build_cohort(
        diagnoses.take(rng.permutation(diagnoses.n_rows)),
        patients.take(rng.permutation(patients.n_rows)),
        icustays.take(rng.permutation(icustays.n_rows)),
        admissions.take(rng.permutation(admissions.n_rows)),
        CFG)
    assert base.equals(shuffled)
