"""Run configuration: sectioned key-value text file -> validated RunConfig.

Every knob has a documented default; values supplied by the file are
normalized and range-checked, and the echoed form marks which entries fell
back to defaults. A warning is emitted when split.seed is defaulted, since
silent seed changes are the classic reproducibility leak.
"""

import configparser
import io
import warnings
import zlib
from dataclasses import dataclass

from .errors import ConfigInvalid
from .harmonize import CHART_NAMES, LAB_NAMES
from .impute import METHODS
from .lasso import RULES


def stage_seed(root_seed, label):
    """Deterministic per-stage seed: crc32 of "root:label", 31-bit."""
    return zlib.crc32(f"{root_seed}:{label}".encode()) & 0x7FFFFFFF


@dataclass
class RunConfig:
    data_dir: str = "."
    out_dir: str = "out"
    icd_codes: tuple = ("4275", "I46")
    min_age: int = 18
    train_fraction: float = 0.8
    seed: int = 42
    mice_m: int = 5
    mice_max_iter: int = 10
    mice_ridge: float = 1e-3
    vocab_size: int = 500
    svd_target: float = 0.80
    pca_target: float = 0.90
    lasso_folds: int = 10
    lasso_grid: int = 100
    lasso_rule: str = "pct75"
    gbt_max_depth: int = 3
    gbt_learning_rate: float = 0.05
    gbt_n_trees: int = 100
    gbt_subsample: float = 0.8
    gbt_top_k_structured: int = 17
    gbt_top_k_multimodal: int = 64
    dca_grid_step: float = 0.01
    calibration_bins: int = 10
    synth_n: int = 2000
    synth_prevalence: float = 0.52
    synth_text_signal: float = 1.0
    synth_emb_dim: int = 768
    plausibility_overrides: tuple = ()   # (variable, lower, upper) triples
    impute_overrides: tuple = ()         # (variable, method) pairs
    defaulted: tuple = ()


_SCHEMA = {
    ("paths", "data_dir"): ("data_dir", str, None),
    ("paths", "out_dir"): ("out_dir", str, None),
    ("cohort", "icd_codes"): ("icd_codes", "codes", None),
    ("cohort", "min_age"): ("min_age", int, lambda v: v >= 0),
    ("split", "train_fraction"): ("train_fraction", float, lambda v: 0.0 < v < 1.0),
    ("split", "seed"): ("seed", int, None),
    ("mice", "m"): ("mice_m", int, lambda v: v >= 2),
    ("mice", "max_iter"): ("mice_max_iter", int, lambda v: v >= 1),
    ("mice", "ridge_penalty"): ("mice_ridge", float, lambda v: v > 0),
    ("text", "vocab_size"): ("vocab_size", int, lambda v: v >= 1),
    ("text", "svd_target"): ("svd_target", float, lambda v: 0.0 < v <= 1.0),
    ("text", "pca_target"): ("pca_target", float, lambda v: 0.0 < v <= 1.0),
    ("lasso", "folds"): ("lasso_folds", int, lambda v: v >= 2),
    ("lasso", "grid_size"): ("lasso_grid", int, lambda v: v >= 2),
    ("lasso", "rule"): ("lasso_rule", str, lambda v: v in RULES),
    ("gbt", "max_depth"): ("gbt_max_depth", int, lambda v: v >= 1),
    ("gbt", "learning_rate"): ("gbt_learning_rate", float, lambda v: 0.0 < v <= 1.0),
    ("gbt", "n_trees"): ("gbt_n_trees", int, lambda v: v >= 1),
    ("gbt", "subsample"): ("gbt_subsample", float, lambda v: 0.0 < v <= 1.0),
    ("gbt", "top_k_structured"): ("gbt_top_k_structured", int, lambda v: v >= 1),
    ("gbt", "top_k_multimodal"): ("gbt_top_k_multimodal", int, lambda v: v >= 1),
    ("eval", "dca_grid_step"): ("dca_grid_step", float, lambda v: 0.0 < v < 0.5),
    ("eval", "calibration_bins"): ("calibration_bins", int, lambda v: v >= 2),
    ("synth", "n_patients"): ("synth_n", int, lambda v: v >= 10),
    ("synth", "prevalence"): ("synth_prevalence", float, lambda v: 0.0 < v < 1.0),
    ("synth", "text_signal"): ("synth_text_signal", float, lambda v: v >= 0.0),
    ("synth", "emb_dim"): ("synth_emb_dim", int, lambda v: v >= 2),
}


def _convert(raw, typ, path):
    if typ is str:
        return raw.strip()
    if typ == "codes":
        codes = tuple(c.strip() for c in raw.split(",") if c.strip())
        if not codes:
            raise ConfigInvalid(path, "needs at least one code")
        return codes
    try:
        return typ(raw.strip())
    except ValueError:
        raise ConfigInvalid(path, f"cannot parse {raw.strip()!r} as {typ.__name__}") from None


# sections holding per-variable data tables rather than fixed keys, with
# the variables each may name: plausibility rules apply to charted and lab
# events, imputation methods to every numeric feature
_FREEFORM = {
    "plausibility": CHART_NAMES + LAB_NAMES,
    "impute": CHART_NAMES + LAB_NAMES + ("gcs_total", "anchor_age"),
}


def _parse_plausibility(parser):
    out = []
    if not parser.has_section("plausibility"):
        return ()
    for var in parser["plausibility"]:
        raw = parser.get("plausibility", var)
        parts = [p.strip() for p in raw.split(",")]
        dotted = f"plausibility.{var}"
        if len(parts) != 2:
            raise ConfigInvalid(dotted, "expected 'lower, upper'")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigInvalid(dotted, f"cannot parse bounds {raw!r}") from None
        if not lo < hi:
            raise ConfigInvalid(dotted, "lower must be < upper")
        out.append((var, lo, hi))
    return tuple(out)


def _parse_impute(parser):
    out = []
    if not parser.has_section("impute"):
        return ()
    for var in parser["impute"]:
        method = parser.get("impute", var).strip()
        if method not in METHODS:
            raise ConfigInvalid(f"impute.{var}",
                                f"unknown method {method!r}; use one of {METHODS}")
        out.append((var, method))
    return tuple(out)


def validate_config(path, overrides=None):
    """Parse and validate; unknown keys are errors, missing ones default.
    ``overrides`` (field -> command-line value) win and are never defaulted."""
    overrides = overrides or {}
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigInvalid(str(path), f"unparseable: {exc}") from exc
    if not read:
        raise ConfigInvalid(str(path), "file not found")

    known = {}
    for (section, key), (attr, typ, check) in _SCHEMA.items():
        known.setdefault(section, set()).add(key)
    known.update(_FREEFORM)
    for section in parser.sections():
        if section not in known:
            raise ConfigInvalid(section, "unknown section")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigInvalid(f"{section}.{key}", "unknown key")

    values = {}
    defaulted = []
    for (section, key), (attr, typ, check) in _SCHEMA.items():
        dotted = f"{section}.{key}"
        if parser.has_option(section, key):
            v = _convert(parser.get(section, key), typ, dotted)
            if check is not None and not check(v):
                raise ConfigInvalid(dotted, f"value {v!r} out of range")
            values[attr] = v
        elif attr not in overrides:
            defaulted.append(dotted)
    cfg = RunConfig(**{**values, **overrides},
                    plausibility_overrides=_parse_plausibility(parser),
                    impute_overrides=_parse_impute(parser),
                    defaulted=tuple(sorted(defaulted)))
    if "split.seed" in cfg.defaulted:
        warnings.warn(f"split.seed not set; using default {cfg.seed}")
    return cfg


def echo_config(cfg):
    """Normalized config text, the per-variable tables included, that
    validate_config reads back as ``cfg``; defaulted entries are marked."""
    out = io.StringIO()
    last_section = None
    for (section, key), (attr, typ, _) in _SCHEMA.items():
        if section != last_section:
            if last_section is not None:
                out.write("\n")
            out.write(f"[{section}]\n")
            last_section = section
        v = getattr(cfg, attr)
        if attr == "icd_codes":
            v = ", ".join(v)
        suffix = "  ; default" if f"{section}.{key}" in cfg.defaulted else ""
        out.write(f"{key} = {v}{suffix}\n")
    for section, rows in (("plausibility", [(var, f"{lo!r}, {hi!r}")
                                            for var, lo, hi in cfg.plausibility_overrides]),
                          ("impute", cfg.impute_overrides)):
        if rows:
            out.write(f"\n[{section}]\n")
            out.writelines(f"{var} = {v}\n" for var, v in rows)
    return out.getvalue()
