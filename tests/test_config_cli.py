import csv
import dataclasses
import os
import random
import subprocess
import sys
import warnings

import pytest

from riskforge.cli import main
from riskforge.config import RunConfig, echo_config, stage_seed, validate_config
from riskforge.errors import ConfigInvalid
from riskforge.pipeline import STAGES, forget_saved, run_all


MINIMAL = """\
[paths]
data_dir = {data}
out_dir = {out}
"""


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def run_cli(argv):
    """Exit code of ``main(argv)`` and the split.seed warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, [str(w.message) for w in caught if "split.seed" in str(w.message)]


class TestValidateConfig:
    def test_missing_seed_defaults_with_warning(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL.format(data=tmp_path, out=tmp_path))
        with pytest.warns(UserWarning, match="split.seed"):
            cfg = validate_config(p)
        assert cfg.seed == 42
        assert "split.seed" in cfg.defaulted

    def test_out_of_range_svd_target(self, tmp_path):
        p = write_cfg(tmp_path, "[text]\nsvd_target = 1.5\n")
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(p)
        assert exc.value.field == "text.svd_target"

    def test_minimal_config_echoes_normalized_form(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL.format(data=tmp_path, out=tmp_path))
        with pytest.warns(UserWarning):
            cfg = validate_config(p)
        echoed = echo_config(cfg)
        assert "[lasso]" in echoed
        assert "folds = 10  ; default" in echoed
        assert f"data_dir = {tmp_path}" in echoed

    def test_unknown_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "[lasso]\nbogus = 3\n")
        with pytest.raises(ConfigInvalid):
            validate_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            validate_config(tmp_path / "nope.cfg")

    def test_values_round_trip(self, tmp_path):
        p = write_cfg(tmp_path, "[lasso]\nfolds = 5\nrule = 1se\n"
                                "[cohort]\nicd_codes = 4275, I46, I21\n"
                                "[split]\nseed = 9\n")
        cfg = validate_config(p)
        assert cfg.lasso_folds == 5
        assert cfg.lasso_rule == "1se"
        assert cfg.icd_codes == ("4275", "I46", "I21")
        assert cfg.seed == 9
        assert "lasso.folds" not in cfg.defaulted

    def test_every_key_set_to_its_default_reads_back_as_the_defaults(self, tmp_path):
        p = write_cfg(tmp_path, (
            "[paths]\ndata_dir = .\nout_dir = out\n"
            "[cohort]\nicd_codes = 4275, I46\nmin_age = 18\n"
            "[split]\ntrain_fraction = 0.8\nseed = 42\n"
            "[mice]\nm = 5\nmax_iter = 10\nridge_penalty = 0.001\n"
            "[text]\nvocab_size = 500\nsvd_target = 0.8\npca_target = 0.9\n"
            "[lasso]\nfolds = 10\ngrid_size = 100\nrule = pct75\n"
            "[gbt]\nmax_depth = 3\nlearning_rate = 0.05\nn_trees = 100\nsubsample = 0.8\n"
            "top_k_structured = 17\ntop_k_multimodal = 64\n"
            "[eval]\ndca_grid_step = 0.01\ncalibration_bins = 10\n"
            "[synth]\nn_patients = 2000\nprevalence = 0.52\ntext_signal = 1.0\nemb_dim = 768\n"))
        cfg = validate_config(p)
        assert cfg.defaulted == ()
        assert cfg == RunConfig()


class TestFreeformSections:
    def test_plausibility_override_parsed(self, tmp_path):
        p = write_cfg(tmp_path, "[plausibility]\nhr = 30, 250\nwbc = 2, 40\n")
        cfg = validate_config(p)
        assert ("hr", 30.0, 250.0) in cfg.plausibility_overrides
        assert ("wbc", 2.0, 40.0) in cfg.plausibility_overrides

    def test_plausibility_bad_bounds_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "[plausibility]\nhr = 250, 30\n")
        with pytest.raises(ConfigInvalid):
            validate_config(p)
        p = write_cfg(tmp_path, "[plausibility]\nhr = nope\n")
        with pytest.raises(ConfigInvalid):
            validate_config(p)

    def test_impute_override_parsed(self, tmp_path):
        p = write_cfg(tmp_path, "[impute]\nlactate = mean\nbt = median\n")
        cfg = validate_config(p)
        assert ("lactate", "mean") in cfg.impute_overrides

    def test_impute_unknown_method_rejected(self, tmp_path):
        # "none" too: no method leaves a variable missing, as MICE fills
        # every cell no single fill does
        for method in ("magic", "none"):
            p = write_cfg(tmp_path, f"[impute]\nlactate = {method}\n")
            with pytest.raises(ConfigInvalid):
                validate_config(p)

    def test_overrides_reach_the_policy_table(self, tmp_path):
        from riskforge.impute import default_policies
        pols = default_policies(["lactate_mean", "hr_mean"], {"lactate": "mean"})
        assert dict((p.variable, p.method) for p in pols) == \
            {"lactate_mean": "mean", "hr_mean": "mean"}

    def test_overrides_reach_the_rule_table(self, tmp_path):
        from riskforge.pipeline import effective_plausibility
        cfg = RunConfig(plausibility_overrides=(("hr", 30.0, 250.0),))
        rules = {r.variable: r for r in effective_plausibility(cfg)}
        assert rules["hr"].lower == 30.0 and rules["hr"].upper == 250.0
        assert rules["wbc"].lower == 1.0  # untouched default

    @pytest.mark.parametrize("section, entry", [("plausibility", "lactat = 0, 10"),
                                                ("impute", "lactat = mean"),
                                                ("plausibility", "anchor_age = 18, 120")])
    def test_unknown_variable_rejected(self, tmp_path, section, entry):
        p = write_cfg(tmp_path, f"[{section}]\n{entry}\n")
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(p)
        assert exc.value.field == f"{section}.{entry.split()[0]}"
        assert main(["synth", "--config", str(p)]) == 2

    def test_impute_accepts_the_derived_and_age_columns(self, tmp_path):
        p = write_cfg(tmp_path, "[impute]\ngcs_total = mean\nanchor_age = median\n")
        assert validate_config(p).impute_overrides == (("gcs_total", "mean"),
                                                        ("anchor_age", "median"))


class TestCommentsAndEcho:
    def test_the_readme_example_config_is_valid(self, tmp_path):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8") as fh:
            readme = fh.read()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = validate_config(write_cfg(tmp_path, block))
        assert cfg.plausibility_overrides == (("hr", 30.0, 250.0),)
        assert cfg.impute_overrides == (("lactate", "mean"),)
        assert (cfg.data_dir, cfg.seed, cfg.synth_n) == ("runs/demo/data", 42, 2000)

    def test_echoed_config_reads_back_as_the_same_config(self, tmp_path):
        p = write_cfg(tmp_path, "[split]\nseed = 9\n[lasso]\nrule = 1se\n"
                                "[plausibility]\nhr = 30, 250.5\nlactate = 0.1, 1e2\n"
                                "[impute]\nlactate = mean\ngcs_total = zero\n")
        cfg = validate_config(p)
        assert "lasso.folds" in cfg.defaulted
        echoed = echo_config(cfg)
        assert "[plausibility]\nhr = 30.0, 250.5\nlactate = 0.1, 100.0\n" in echoed
        again = validate_config(write_cfg(tmp_path, echoed))
        assert again.defaulted == ()
        assert again == dataclasses.replace(cfg, defaulted=())


class TestStageSeed:
    def test_deterministic_and_distinct(self):
        assert stage_seed(42, "impute") == stage_seed(42, "impute")
        assert stage_seed(42, "impute") != stage_seed(42, "split")
        assert stage_seed(42, "impute") != stage_seed(43, "impute")
        assert 0 <= stage_seed(0, "x") < 2 ** 31


class TestCli:
    def cfg_file(self, tmp_path):
        return write_cfg(tmp_path, (
            "[paths]\n"
            f"data_dir = {tmp_path}/data\n"
            f"out_dir = {tmp_path}/out\n"
            "[split]\nseed = 3\n"
            "[synth]\nn_patients = 120\nemb_dim = 8\n"
        ))

    def test_evaluate_before_fit_exits_3(self, tmp_path, capsys):
        rc = main(["evaluate", "--config", str(self.cfg_file(tmp_path))])
        assert rc == 3
        assert "run the earlier stage" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "[text]\nsvd_target = 2.0\n")
        rc = main(["synth", "--config", str(p)])
        assert rc == 2

    def test_synth_then_cohort_succeeds(self, tmp_path, capsys):
        cfg = self.cfg_file(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["cohort", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "cohort.csv" in out
        assert (tmp_path / "out" / "cohort.csv").exists()

    def test_echo_config_flag(self, tmp_path, capsys):
        cfg = self.cfg_file(tmp_path)
        assert main(["synth", "--config", str(cfg), "--echo-config"]) == 0
        assert "[mice]" in capsys.readouterr().out

    def test_console_entry_point_smoke(self, tmp_path):
        cfg = self.cfg_file(tmp_path)
        out = subprocess.run(
            [sys.executable, "-m", "riskforge.cli", "synth", "--config", str(cfg)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.returncode == 0, out.stderr

    def test_out_override(self, tmp_path):
        cfg = self.cfg_file(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        alt = tmp_path / "alt"
        assert main(["cohort", "--config", str(cfg), "--out", str(alt)]) == 0
        assert (alt / "cohort.csv").exists()

    def test_synth_out_names_the_data_directory(self, tmp_path):
        cfg = self.cfg_file(tmp_path)
        target = tmp_path / "gen"
        assert main(["synth", "--config", str(cfg), "--out", str(target)]) == 0
        assert (target / "ground_truth.csv").exists()
        assert (target / "chartevents.csv").exists()

    def test_synth_overrides_are_not_reported_as_defaults(self, tmp_path, capsys):
        # no paths and no split.seed in the file: --out and --seed supply them
        cfg = write_cfg(tmp_path, "[synth]\nn_patients = 120\nemb_dim = 8\n")
        target = tmp_path / "gen"
        assert run_cli(["synth", "--config", str(cfg), "--out", str(target),
                        "--seed", "7", "--echo-config"]) == (0, [])
        echoed = capsys.readouterr().out
        assert f"data_dir = {target}\n" in echoed
        assert "seed = 7\n" in echoed
        assert "out_dir = out  ; default\n" in echoed
        with open(target / "ground_truth.csv", newline="") as fh:
            seeds = [r["value"] for r in csv.DictReader(fh) if r["name"] == "seed"]
        assert [float(s) for s in seeds] == [stage_seed(7, "synth")]

    def test_stage_overrides_are_not_reported_as_defaults(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            f"[paths]\ndata_dir = {tmp_path}/data\n"
            "[synth]\nn_patients = 120\nemb_dim = 8\n"))
        assert run_cli(["synth", "--config", str(cfg), "--echo-config"]) == \
            (0, ["split.seed not set; using default 42"])
        echoed = capsys.readouterr().out
        assert "seed = 42  ; default\n" in echoed
        assert "out_dir = out  ; default\n" in echoed
        alt = tmp_path / "alt"
        assert run_cli(["cohort", "--config", str(cfg), "--seed", "7",
                        "--out", str(alt), "--echo-config"]) == (0, [])
        echoed = capsys.readouterr().out
        assert "seed = 7\n" in echoed
        assert f"out_dir = {alt}\n" in echoed
        assert (alt / "cohort.csv").exists()


class TestStageByStage:
    def test_cli_stages_write_the_bytes_of_run_all(self, tmp_path):
        cfg = write_cfg(tmp_path, (
            "[paths]\n"
            f"data_dir = {tmp_path}/data\n"
            f"out_dir = {tmp_path}/all\n"
            "[split]\nseed = 5\ntrain_fraction = 0.7\n"
            "[synth]\nn_patients = 240\nemb_dim = 8\ntext_signal = 1.5\n"
            "[mice]\nm = 2\n[lasso]\nfolds = 3\ngrid_size = 6\n"
            "[gbt]\nn_trees = 8\n[text]\nvocab_size = 60\n"
        ))
        assert main(["synth", "--config", str(cfg)]) == 0
        for stage in STAGES[1:]:
            forget_saved()  # each CLI stage reads its inputs from disk, as a new process
            assert main([stage, "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 0
        run_all(validate_config(cfg), STAGES[1:])

        def tree_bytes(root):
            return {name: (root / name).read_bytes() for name in os.listdir(root)}

        by_cli, by_run_all = tree_bytes(tmp_path / "cli"), tree_bytes(tmp_path / "all")
        assert "report_metrics.csv" in by_cli and "gbt_model_multimodal.txt" in by_cli
        assert sorted(by_cli) == sorted(by_run_all)
        assert [n for n in by_cli if by_cli[n] != by_run_all[n]] == []


class TestMalformedInputs:
    """Malformed input files exit 1 with one line on stderr, no traceback."""

    def run_text(self, tmp_path, capsys):
        rc = main(["text", "--config", str(TestCli().cfg_file(tmp_path))])
        err = capsys.readouterr().err
        return rc, err

    def prepared(self, tmp_path):
        cfg = TestCli().cfg_file(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["cohort", "--config", str(cfg)]) == 0
        return tmp_path / "data" / "discharge_emb.csv"

    def test_empty_cohort_csv_exits_1(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "cohort.csv").write_text("")
        rc, err = self.run_text(tmp_path, capsys)
        assert rc == 1
        assert err.count("\n") == 1 and "cohort.csv" in err and "empty" in err

    def test_embedding_file_without_leading_hadm_id_exits_1(self, tmp_path, capsys):
        emb = self.prepared(tmp_path)
        lines = emb.read_text().splitlines(keepends=True)
        emb.write_text(lines[0].replace("hadm_id", "admission", 1) + "".join(lines[1:]))
        capsys.readouterr()
        rc, err = self.run_text(tmp_path, capsys)
        assert rc == 1
        assert err.count("\n") == 1 and "hadm_id" in err

    def test_blank_embedding_cell_exits_1(self, tmp_path, capsys):
        emb = self.prepared(tmp_path)
        lines = emb.read_text().splitlines(keepends=True)
        cells = lines[2].split(",")
        cells[1] = ""
        emb.write_text("".join(lines[:2]) + ",".join(cells) + "".join(lines[3:]))
        capsys.readouterr()
        rc, err = self.run_text(tmp_path, capsys)
        assert rc == 1
        assert err.count("\n") == 1 and "discharge_emb.csv" in err

    def repeat_cohort_row(self, tmp_path, capsys, table, key):
        """Append a second copy of the ``table`` row of the first cohort
        record, matched on ``key``; rerun the cohort stage."""
        cfg = TestCli().cfg_file(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["cohort", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "cohort.csv", newline="") as fh:
            record = next(csv.DictReader(fh))
        path = tmp_path / "data" / f"{table}.csv"
        lines = path.read_text().splitlines(keepends=True)
        position = lines[0].rstrip("\n").split(",").index(key)
        repeated = [line for line in lines[1:] if line.split(",")[position] == record[key]]
        assert len(repeated) == 1
        path.write_text("".join(lines + repeated))
        capsys.readouterr()
        rc = main(["cohort", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        return record, err, f"{os.path.join(str(tmp_path / 'data'), table + '.csv')}: "

    def test_repeated_admission_row_exits_1(self, tmp_path, capsys):
        record, err, prefix = self.repeat_cohort_row(tmp_path, capsys, "admissions", "hadm_id")
        named = f"subject_id {record['subject_id']}, hadm_id {record['hadm_id']} names"
        assert f"{prefix}{named}" in err

    def test_header_only_embedding_file_exits_1(self, tmp_path, capsys):
        emb = self.prepared(tmp_path).with_name("radiology_emb.csv")
        emb.write_text(emb.read_text().splitlines(keepends=True)[0])
        capsys.readouterr()
        rc, err = self.run_text(tmp_path, capsys)
        assert rc == 1
        assert err.count("\n") == 1 and "at least 2 rows, got 0" in err
        assert "radiology_emb.csv" in err

    def test_notes_table_with_one_cohort_note_exits_1(self, tmp_path, capsys):
        notes = self.prepared(tmp_path).with_name("radiology.csv")
        with open(tmp_path / "out" / "cohort.csv", newline="") as fh:
            cohort = {row["hadm_id"] for row in csv.DictReader(fh)}
        with open(notes, newline="") as fh:
            rows = list(csv.reader(fh))
        position = rows[0].index("hadm_id")
        one = next(row for row in rows[1:] if row[position] in cohort)
        with open(notes, "w", newline="") as fh:
            csv.writer(fh).writerows([rows[0], one])
        capsys.readouterr()
        rc, err = self.run_text(tmp_path, capsys)
        assert rc == 1
        assert err.count("\n") == 1 and "at least 2 rows, got 1" in err
        assert "radiology.csv" in err and "radiology_emb.csv" not in err

    def test_undecodable_input_exits_1(self, tmp_path, capsys):
        cfg = TestCli().cfg_file(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        patients = tmp_path / "data" / "patients.csv"
        lines = patients.read_bytes().splitlines(keepends=True)
        patients.write_bytes(b"".join(lines[:-1]) + b"\xff" + lines[-1])
        capsys.readouterr()
        rc = main(["cohort", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "patients.csv" in err and "utf-8" in err

    def test_repeated_patients_row_exits_1(self, tmp_path, capsys):
        record, err, prefix = self.repeat_cohort_row(tmp_path, capsys, "patients", "subject_id")
        assert f"{prefix}subject_id {record['subject_id']} names" in err

    def test_repeated_embedding_hadm_id_exits_1(self, tmp_path, capsys):
        emb = self.prepared(tmp_path)
        lines = emb.read_text().splitlines(keepends=True)
        hadm = lines[3].split(",")[0]
        emb.write_text("".join(lines) + hadm + lines[1][lines[1].index(","):])
        capsys.readouterr()
        rc, err = self.run_text(tmp_path, capsys)
        assert rc == 1
        assert err.count("\n") == 1 and f"hadm_id {hadm} " in err and "discharge_emb.csv" in err


class TestUnwritableOutput:
    """A directory or artifact that cannot be written exits 1 with one line
    on stderr naming it, no traceback."""

    def test_plain_file_as_out_dir(self, tmp_path, capsys):
        cfg = TestCli().cfg_file(tmp_path)
        (tmp_path / "out").write_text("")
        # synth writes only the data directory
        assert main(["synth", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["cohort", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot make directory {tmp_path / 'out'}: " in err

    def test_plain_file_as_data_dir(self, tmp_path, capsys):
        cfg = TestCli().cfg_file(tmp_path)
        (tmp_path / "data").write_text("")
        assert main(["synth", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot make directory {tmp_path / 'data'}: " in err
        assert not (tmp_path / "out").exists()

    def test_artifact_that_cannot_be_replaced(self, tmp_path, capsys):
        cfg = TestCli().cfg_file(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        (tmp_path / "out" / "cohort.csv").mkdir(parents=True)
        capsys.readouterr()
        assert main(["cohort", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot write {tmp_path / 'out' / 'cohort.csv'}: " in err
        assert os.listdir(tmp_path / "out") == ["cohort.csv"]


class TestEmbeddingRowOrder:
    def test_shuffled_embedding_rows_write_the_same_bytes(self, tmp_path):
        malformed = TestMalformedInputs()
        emb = malformed.prepared(tmp_path)
        cfg = str(TestCli().cfg_file(tmp_path))
        assert main(["text", "--config", cfg]) == 0
        written = ["text_features.csv", "discharge_bert_pca.basis.csv",
                   "radiology_bert_pca.basis.csv"]
        before = [(tmp_path / "out" / name).read_bytes() for name in written]
        rng = random.Random(5)
        for path in (emb, emb.with_name("radiology_emb.csv")):
            header, *rows = path.read_text().splitlines(keepends=True)
            rng.shuffle(rows)
            path.write_text(header + "".join(rows))
        assert main(["text", "--config", cfg]) == 0
        assert [(tmp_path / "out" / name).read_bytes() for name in written] == before
