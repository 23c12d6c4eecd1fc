import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskforge.errors import ComponentOutOfRange, DuplicateCohortRow
from riskforge.frame import PatientFrame
from riskforge.harmonize import (CELSIUS_ITEM, CHART_NAMES, DEFAULT_PLAUSIBILITY, GCS_ITEMS,
                                 LAB_ITEMS, LAB_NAMES, VITAL_ITEMS, PlausibilityRule,
                                 _apply_rules_long, _pool_duplicate_measurements,
                                 binary_flags,
                                 convert_temperature, derive_mbp,
                                 build_structured_features,
                                 fahrenheit_to_celsius, gcs_total, mean_bp,
                                 window_24h)

from test_frame import make_frame

HOUR = 3600.0


class TestWindow:
    def make(self, offsets):
        events = make_frame(stay_id=("int", [1.0] * len(offsets)),
                            charttime=("num", [100000.0 + o * HOUR for o in offsets]))
        stays = make_frame(stay_id=("int", [1.0]), intime=("num", [100000.0]))
        return events, stays

    def test_inside_window_kept(self):
        events, stays = self.make([23.0])
        out, dropped = window_24h(events, stays)
        assert out.n_rows == 1 and dropped == 0

    def test_after_window_dropped(self):
        events, stays = self.make([25.0])
        out, _ = window_24h(events, stays)
        assert out.n_rows == 0

    def test_before_intime_dropped(self):
        events, stays = self.make([-1.0 / 60.0])
        out, _ = window_24h(events, stays)
        assert out.n_rows == 0

    def test_boundary_is_half_open(self):
        events, stays = self.make([0.0, 24.0])
        out, _ = window_24h(events, stays)
        assert out.n_rows == 1

    def test_unlinked_events_counted(self):
        events = make_frame(stay_id=("int", [9.0]), charttime=("num", [0.0]))
        stays = make_frame(stay_id=("int", [1.0]), intime=("num", [0.0]))
        out, dropped = window_24h(events, stays)
        assert out.n_rows == 0 and dropped == 1

    def test_repeated_stay_key_raises(self):
        events, _ = self.make([1.0])
        stays = make_frame(stay_id=("int", [1.0, 2.0, 1.0]),
                           intime=("num", [100000.0, 0.0, 200000.0]))
        with pytest.raises(DuplicateCohortRow, match="stay_id 1 "):
            window_24h(events, stays)

    def test_repeated_missing_stay_key_is_no_stay(self):
        events, _ = self.make([1.0])
        stays = make_frame(stay_id=("int", [np.nan, 1.0, np.nan]),
                           intime=("num", [0.0, 100000.0, 0.0]))
        out, dropped = window_24h(events, stays)
        assert out.n_rows == 1 and dropped == 0


def reference_window(events, stays, key):
    """The window by a dict from each stay key to its intime, looked up row
    by row; a missing key names no stay."""
    intime_of = {k: t for k, t in zip(stays.values(key).tolist(), stays.values("intime").tolist())
                 if not math.isnan(k)}
    it = np.array([intime_of.get(k, np.nan) for k in events.values(key).tolist()], dtype=float)
    ct = events.values("charttime")
    ok = (ct >= it) & (ct < it + 24 * HOUR)
    return events.filter(ok), int(np.isnan(it).sum())


# event times relative to a stay's intime: just before, at, inside, the
# last second, exactly 24 h (outside) and after
EDGE_OFFSETS = (-1.0, 0.0, 5 * HOUR, 24 * HOUR - 1.0, 24 * HOUR, 30 * HOUR)


def random_window_case(rng, key):
    """Unique stay keys (some missing, none repeated) with some missing
    intimes, and events whose keys may name no stay or be missing, whose
    times sit on the window's edges or are missing, with extra columns."""
    n_stays = int(rng.integers(0, 6))
    stay_keys = rng.permutation(np.arange(1.0, 9.0))[:n_stays]
    stay_keys[rng.random(n_stays) < 0.15] = np.nan
    intime = rng.integers(0, 3, n_stays) * 86400.0 + 1e6
    intime[rng.random(n_stays) < 0.2] = np.nan
    stays = PatientFrame.from_columns([
        ("subject_id", "int", np.arange(n_stays, dtype=float)),
        (key, "int", stay_keys), ("intime", "time", intime)])

    n = int(rng.integers(0, 25))
    keys = rng.integers(0, 10, n).astype(float)  # 0 and 9 never name a stay
    keys[rng.random(n) < 0.1] = np.nan
    bases = np.concatenate([intime, [1e6]])
    times = rng.choice(bases, n) + rng.choice(EDGE_OFFSETS, n)
    times[rng.random(n) < 0.1] = np.nan
    columns = [(key, "int", keys), ("charttime", "time", times)]
    if rng.random() < 0.7:
        columns += [("itemid", "int", rng.integers(1, 4, n).astype(float)),
                    ("valuenum", "num", np.where(rng.random(n) < 0.2, np.nan,
                                                 rng.standard_normal(n))),
                    ("valueuom", "str", rng.choice(["", "C", "mmHg"], n))]
    rng.shuffle(columns)
    return PatientFrame.from_columns(columns), stays


class TestWindowAgainstJoin:
    """The key lookup keeps the rows, in the order, that a per-row dict
    lookup of each event's stay and the same filter keep, and counts the
    same unlinked rows."""

    def test_random_cases_match_the_join(self):
        rng = np.random.default_rng(2024)
        kept = unlinked = 0
        for trial in range(300):
            key = ("stay_id", "hadm_id")[trial % 2]
            events, stays = random_window_case(rng, key)
            got, got_unlinked = window_24h(events, stays, key=key)
            want, want_unlinked = reference_window(events, stays, key)
            assert got.equals(want), trial
            assert got_unlinked == want_unlinked, trial
            kept += got.n_rows
            unlinked += got_unlinked
        assert kept > 100 and unlinked > 100

    def test_edges_of_the_window(self):
        stays = make_frame(stay_id=("int", [1.0, 2.0]), intime=("time", [1e6, np.nan]))
        times = [1e6 + o for o in EDGE_OFFSETS]
        events = make_frame(stay_id=("int", [1.0] * len(times) + [2.0, np.nan, 3.0]),
                            charttime=("time", times + [1e6, 1e6, 1e6]))
        got, got_unlinked = window_24h(events, stays)
        want, want_unlinked = reference_window(events, stays, "stay_id")
        assert got.values("charttime").tolist() == [1e6, 1e6 + 5 * HOUR, 1e6 + 24 * HOUR - 1]
        assert got.equals(want) and got_unlinked == want_unlinked == 3

    def test_zero_events_and_zero_stays(self):
        no_events = make_frame(stay_id=("int", []), charttime=("time", []))
        stays = make_frame(stay_id=("int", [1.0]), intime=("time", [1e6]))
        no_stays = make_frame(stay_id=("int", []), intime=("time", []))
        events = make_frame(stay_id=("int", [1.0]), charttime=("time", [1e6]))
        for ev, st in ((no_events, stays), (events, no_stays), (no_events, no_stays)):
            got, got_unlinked = window_24h(ev, st)
            want, want_unlinked = reference_window(ev, st, "stay_id")
            assert got.equals(want) and got_unlinked == want_unlinked


class TestTemperature:
    def test_celsius_converted(self):
        assert convert_temperature(37.0, "C") == pytest.approx(98.6)

    def test_zero_celsius(self):
        assert convert_temperature(0.0, "C") == 32.0

    def test_fahrenheit_identity(self):
        assert convert_temperature(98.6, "F") == 98.6

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=60.0, max_value=120.0))
    def test_round_trip_within_1e9(self, f):
        assert convert_temperature(fahrenheit_to_celsius(f), "C") == pytest.approx(f, abs=1e-9)


class TestMeanBp:
    def test_formula(self):
        assert mean_bp(120.0, 60.0) == pytest.approx(80.0)

    def test_equal_inputs_fixed_point(self):
        assert mean_bp(90.0, 90.0) == pytest.approx(90.0)

    def test_third_case(self):
        assert mean_bp(150.0, 75.0) == pytest.approx(100.0)

    def test_derive_fills_only_masked(self):
        f = make_frame(
            mbp_mean=("num", [np.nan, 77.0], np.array([True, False])),
            sbp_mean=("num", [120.0, 120.0]),
            dbp_mean=("num", [60.0, 60.0]),
            mbp_min=("num", [np.nan, 70.0], np.array([True, False])),
            sbp_min=("num", [110.0, 110.0]),
            dbp_min=("num", [50.0, 50.0]),
            mbp_max=("num", [np.nan, 90.0], np.array([True, False])),
            sbp_max=("num", [130.0, 130.0]),
            dbp_max=("num", [70.0, 70.0]),
        )
        out = derive_mbp(f)
        assert out.values("mbp_mean").tolist() == [80.0, 77.0]
        assert not out.mask("mbp_mean").any()


def long_events(code, values):
    """Long-format (variable, valuenum) events, all of one variable code."""
    return make_frame(variable=("int", [float(code)] * len(values)),
                      valuenum=("num", values))


class TestPlausibility:
    NAMES = ("lactate", "wbc", "glucose")

    def test_wbc_below_lower_masked(self):
        out, counts = _apply_rules_long(long_events(1, [0.5]),
                                        [PlausibilityRule("wbc", 1, 50)], self.NAMES)
        assert out.mask("valuenum").tolist() == [True]
        assert counts == {"wbc": 1}

    def test_glucose_above_upper_masked(self):
        out, counts = _apply_rules_long(long_events(2, [601.0]),
                                        [PlausibilityRule("glucose", 10, 600)], self.NAMES)
        assert out.mask("valuenum").tolist() == [True]
        assert counts == {"glucose": 1}

    def test_lactate_in_range_kept(self):
        out, counts = _apply_rules_long(long_events(0, [4.0]),
                                        [PlausibilityRule("lactate", 0.1, 20)], self.NAMES)
        assert not out.mask("valuenum").any()
        assert counts == {}  # only variables with removals are counted

    def test_rows_survive_masking(self):
        out, counts = _apply_rules_long(long_events(1, [0.5, 12.0]),
                                        [PlausibilityRule("wbc", 1, 50)], self.NAMES)
        assert out.n_rows == 2
        assert out.mask("valuenum").tolist() == [True, False]
        assert counts == {"wbc": 1}

    def test_no_rule_and_no_variable_mask_nothing(self):
        rules = [PlausibilityRule("wbc", 1, 50)]
        for code in (0, -1):
            out, counts = _apply_rules_long(long_events(code, [-1e9, 1e9]), rules, self.NAMES)
            assert not out.mask("valuenum").any() and counts == {}

    def test_every_retained_cell_satisfies_rule(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-5, 80, 200)
        rule = PlausibilityRule("wbc", 1, 50)
        out, counts = _apply_rules_long(long_events(1, values), [rule], self.NAMES)
        vals, mask = out.values("valuenum"), out.mask("valuenum")
        live = vals[~mask]
        assert np.all((live >= rule.lower) & (live <= rule.upper))
        assert counts == {"wbc": int(((values < 1) | (values > 50)).sum())}

    def test_default_table_bounds_ordered(self):
        for rule in DEFAULT_PLAUSIBILITY:
            assert rule.lower < rule.upper


class TestGcs:
    def test_maximum(self):
        assert gcs_total(4, 5, 6) == 15.0

    def test_minimum(self):
        assert gcs_total(1, 1, 1) == 3.0

    def test_sum_of_means(self):
        assert gcs_total(3.2, 2.5, 4.1) == pytest.approx(9.8)

    def test_component_out_of_range(self):
        with pytest.raises(ComponentOutOfRange):
            gcs_total(5.0, 3.0, 3.0)


class TestFlags:
    def cohort(self):
        return make_frame(hadm_id=("int", [100.0, 200.0]),
                          stay_id=("int", [11.0, 21.0]))

    def test_ventilation_event_sets_flag(self):
        diagnoses = make_frame(hadm_id=("int", []), icd_code=("str", []))
        procs = make_frame(stay_id=("int", [11.0]), itemid=("int", [225792.0]))
        inputs = make_frame(stay_id=("int", []), itemid=("int", []))
        out = binary_flags(diagnoses, procs, inputs, self.cohort())
        assert out.values("received_ventilation").tolist() == [1.0, 0.0]

    def test_no_codes_all_zero(self):
        diagnoses = make_frame(hadm_id=("int", [100.0]), icd_code=("str", ["Z999"]))
        procs = make_frame(stay_id=("int", []), itemid=("int", []))
        inputs = make_frame(stay_id=("int", []), itemid=("int", []))
        out = binary_flags(diagnoses, procs, inputs, self.cohort())
        for name in ("hypertension", "heart_failure", "myocardial_infarction",
                     "diabetes", "copd", "received_ventilation", "epinephrine",
                     "dopamine"):
            assert out.values(name).tolist() == [0.0, 0.0]

    def test_comorbidity_prefix_match(self):
        diagnoses = make_frame(hadm_id=("int", [100.0, 200.0]),
                               icd_code=("str", ["I50.9", "E119"]))
        procs = make_frame(stay_id=("int", []), itemid=("int", []))
        inputs = make_frame(stay_id=("int", [21.0]), itemid=("int", [221662.0]))
        out = binary_flags(diagnoses, procs, inputs, self.cohort())
        assert out.values("heart_failure").tolist() == [1.0, 0.0]
        assert out.values("diabetes").tolist() == [0.0, 1.0]
        assert out.values("dopamine").tolist() == [0.0, 1.0]


class TestPooling:
    # summed left to right, these readings give two different totals
    READINGS = (31.0, 31.1, 31.2)

    def pooled(self, readings):
        events = make_frame(stay_id=("int", [7.0] * len(readings)),
                            variable=("int", [0.0] * len(readings)),
                            charttime=("time", [HOUR] * len(readings)),
                            valuenum=("num", list(readings)))
        return _pool_duplicate_measurements(events, "stay_id")

    def test_three_tied_readings_pool_alike_in_every_order(self):
        orders = list(itertools.permutations(self.READINGS))
        assert len({(a + b) + c for a, b, c in orders}) > 1
        means = {self.pooled(order).values("valuenum")[0] for order in orders}
        assert means == {np.mean(sorted(self.READINGS))}

    def test_one_row_per_stay_variable_and_time(self):
        out = self.pooled(self.READINGS)
        assert out.n_rows == 1
        assert out.values("charttime").tolist() == [HOUR]


class TestStructuredFeatures:
    """Hand-computed features for two stays; stay 2 charts nothing."""

    T0 = 1_000_000.0

    def build(self):
        t = lambda hours: self.T0 + hours * HOUR  # noqa: E731
        cohort = make_frame(
            subject_id=("int", [1.0, 2.0]), hadm_id=("int", [10.0, 20.0]),
            stay_id=("int", [100.0, 200.0]), anchor_age=("num", [60.0, 70.0]),
            in_hospital_death=("int", [1.0, 0.0]),
            intime=("time", [self.T0, self.T0]))
        chart = [
            # temperature: Celsius under every label, unlabelled below 50, F
            (100, 1, 223761, 37.0, "C"), (100, 2, 223761, 36.0, "°C"),
            (100, 3, 223761, 38.0, "celsius"), (100, 4, 223761, 37.5, ""),
            (100, 5, 223761, 99.0, ""), (100, 6, 223762, 36.5, ""),
            (100, 7, 223761, 97.0, "F"),
            # arterial and cuff SBP at one time are pooled before aggregation
            (100, 1, 220050, 120.0, ""), (100, 1, 220179, 110.0, ""),
            (100, 2, 220179, 130.0, ""),
            # one implausible heart rate is masked and counted
            (100, 1, 220045, 70.0, ""), (100, 2, 220045, 400.0, ""),
            (100, 3, 220045, 80.0, ""),
            (100, 1, 220739, 4.0, ""), (100, 1, 223900, 5.0, ""),
            (100, 1, 223901, 6.0, ""),
            # outside the window, unknown item, unlinked stay
            (100, 25, 220045, 10.0, ""), (100, 3, 999999, 1.0, ""),
            (999, 3, 220045, 90.0, ""),
        ]
        chartevents = make_frame(
            stay_id=("int", [float(r[0]) for r in chart]),
            charttime=("time", [t(r[1]) for r in chart]),
            itemid=("int", [float(r[2]) for r in chart]),
            valuenum=("num", [r[3] for r in chart]),
            valueuom=("str", [r[4] for r in chart]))
        labs = [(10, 1, 51301, 0.5), (10, 2, 51301, 12.0), (10, 3, 50813, 2.0),
                (20, 30, 50813, 4.0)]
        labevents = make_frame(
            hadm_id=("int", [float(r[0]) for r in labs]),
            charttime=("time", [t(r[1]) for r in labs]),
            itemid=("int", [float(r[2]) for r in labs]),
            valuenum=("num", [r[3] for r in labs]))
        diagnoses = make_frame(hadm_id=("int", [10.0]), icd_code=("str", ["I509"]))
        # stay 100 is ventilated only after its first 24h; the input is unlinked
        procs = make_frame(stay_id=("int", [200.0, 100.0]), charttime=("time", [t(2), t(30)]),
                           itemid=("int", [225792.0, 225792.0]))
        inputs = make_frame(stay_id=("int", [999.0]), charttime=("time", [t(1)]),
                            itemid=("int", [221289.0]))
        return build_structured_features(chartevents, labevents, diagnoses, procs,
                                         inputs, cohort)

    def test_temperature_aligned_to_fahrenheit(self):
        out, _ = self.build()
        temps = [37.0 * 9 / 5 + 32, 36.0 * 9 / 5 + 32, 38.0 * 9 / 5 + 32,
                 37.5 * 9 / 5 + 32, 99.0, 36.5 * 9 / 5 + 32, 97.0]
        assert out.values("bt_mean")[0] == pytest.approx(np.mean(temps), abs=1e-12)
        assert out.values("bt_min")[0] == pytest.approx(min(temps), abs=1e-12)
        assert out.values("bt_max")[0] == pytest.approx(max(temps), abs=1e-12)
        assert out.mask("bt_mean").tolist() == [False, True]

    def test_simultaneous_readings_pooled(self):
        out, _ = self.build()
        assert out.values("sbp_mean")[0] == 122.5
        assert out.values("sbp_min")[0] == 115.0
        assert out.values("sbp_max")[0] == 130.0

    def test_plausibility_and_window(self):
        out, report = self.build()
        assert out.values("hr_mean")[0] == 75.0
        assert out.values("hr_max")[0] == 80.0
        assert out.values("wbc_mean")[0] == 12.0
        assert out.values("lactate_mean").tolist()[0] == 2.0
        assert out.mask("lactate_mean").tolist() == [False, True]
        assert report["plausibility"] == {"hr": 1, "wbc": 1}
        assert report["unlinked"] == {"chartevents": 1, "labevents": 0,
                                      "procedureevents": 0, "inputevents": 1}

    def test_totals_and_flags(self):
        out, _ = self.build()
        assert out.values("gcs_total")[0] == 15.0
        assert out.mask("gcs_total").tolist() == [False, True]
        assert out.values("heart_failure").tolist() == [1.0, 0.0]
        assert out.values("received_ventilation").tolist() == [0.0, 1.0]
        assert out.values("subject_id").tolist() == [1.0, 2.0]


class TestEveryItem:
    """Every itemid of the chart and lab tables reaches its own feature
    column; a temperature is in Fahrenheit there."""

    T0 = 1_000_000.0

    def build(self, chart, labs):
        """One stay per event: ``chart`` rows are (itemid, unit, value),
        ``labs`` rows (itemid, value); no plausibility rule applies."""
        n = len(chart) + len(labs)
        ids = np.arange(1.0, n + 1)
        cohort = make_frame(subject_id=("int", ids), hadm_id=("int", 10 * ids),
                            stay_id=("int", 100 * ids), anchor_age=("num", [60.0] * n),
                            in_hospital_death=("int", [0.0] * n),
                            intime=("time", [self.T0] * n))
        c, lab = ids[:len(chart)], ids[len(chart):]
        chartevents = make_frame(
            stay_id=("int", 100 * c), charttime=("time", np.full(c.size, self.T0 + HOUR)),
            itemid=("int", [float(r[0]) for r in chart]),
            valuenum=("num", [r[2] for r in chart]), valueuom=("str", [r[1] for r in chart]))
        labevents = make_frame(
            hadm_id=("int", 10 * lab), charttime=("time", np.full(lab.size, self.T0 + HOUR)),
            itemid=("int", [float(r[0]) for r in labs]), valuenum=("num", [r[1] for r in labs]))
        none = make_frame(stay_id=("int", []), charttime=("time", []), itemid=("int", []))
        diagnoses = make_frame(hadm_id=("int", []), icd_code=("str", []))
        out, _ = build_structured_features(chartevents, labevents, diagnoses, none, none,
                                           cohort, rules=())
        return out

    def test_every_itemid_reaches_its_mean_column(self):
        chart_items = {**VITAL_ITEMS, **GCS_ITEMS}
        # values of 50 and above: an unlabelled 223761 reading stays Fahrenheit
        chart = [(item, "", 60.0 + k) for k, item in enumerate(chart_items)]
        labs = [(item, 60.0 + len(chart) + k) for k, item in enumerate(LAB_ITEMS)]
        # the Celsius item converts under any unit label; 223761 only when
        # labelled Celsius or, unlabelled, below 50
        labels = ("", "C", "°C", "celsius", "F", "mmHg")
        temps = [(item, unit, value) for item in (223761, CELSIUS_ITEM) for unit in labels
                 for value in (37.0, 99.0)]
        out = self.build(chart + temps, labs)
        assert set(chart_items.values()) == set(CHART_NAMES)
        assert set(LAB_ITEMS.values()) == set(LAB_NAMES)

        means = [n for n in out.names if n.endswith("_mean")]
        live = ~np.isnan(out.matrix(means))
        for row, (item, unit, value) in enumerate(chart):
            name = chart_items[item]
            want = convert_temperature(value, "C") if item == CELSIUS_ITEM else value
            assert out.values(f"{name}_mean")[row] == want, item
            assert live[row].tolist() == [m == f"{name}_mean" for m in means], item
        for row, (item, value) in enumerate(labs, start=len(chart) + len(temps)):
            assert out.values(f"{LAB_ITEMS[item]}_mean")[row] == value, item
            assert live[row].sum() == 1, item
        converted = 0
        for row, (item, unit, value) in enumerate(temps, start=len(chart)):
            celsius = (item == CELSIUS_ITEM or unit in ("C", "°C", "celsius")
                       or (unit == "" and value < 50))
            converted += celsius
            want = convert_temperature(value, "C") if celsius else value
            assert out.values("bt_mean")[row] == want, (item, unit, value)
        assert 0 < converted < len(temps)
