"""Run configuration: sectioned key-value text file -> validated RunConfig.

Every knob has a documented default; each RunConfig field the file may set
declares, beside its default, its section, key and range check. Values
supplied by the file are converted by the field's type and range-checked,
and the echoed form marks which entries fell back to defaults. A warning
is emitted when split.seed is defaulted, since silent seed changes are the
classic reproducibility leak.
"""

import configparser
import io
import warnings
import zlib
from dataclasses import dataclass, field, fields

from .errors import ConfigInvalid
from .harmonize import CHART_NAMES, LAB_NAMES
from .impute import METHODS
from .lasso import RULES


def stage_seed(root_seed, label):
    """Deterministic per-stage seed: crc32 of "root:label", 31-bit."""
    return zlib.crc32(f"{root_seed}:{label}".encode()) & 0x7FFFFFFF


def _option(section, key, default, check=None):
    """A RunConfig field read from ``key`` in ``[section]``: its value is
    converted by the field's type and must satisfy ``check``."""
    return field(default=default, metadata={"section": section, "key": key, "check": check})


@dataclass
class RunConfig:
    data_dir: str = _option("paths", "data_dir", ".")
    out_dir: str = _option("paths", "out_dir", "out")
    icd_codes: tuple = _option("cohort", "icd_codes", ("4275", "I46"))
    min_age: int = _option("cohort", "min_age", 18, lambda v: v >= 0)
    train_fraction: float = _option("split", "train_fraction", 0.8, lambda v: 0.0 < v < 1.0)
    seed: int = _option("split", "seed", 42)
    mice_m: int = _option("mice", "m", 5, lambda v: v >= 2)
    mice_max_iter: int = _option("mice", "max_iter", 10, lambda v: v >= 1)
    mice_ridge: float = _option("mice", "ridge_penalty", 1e-3, lambda v: v > 0)
    vocab_size: int = _option("text", "vocab_size", 500, lambda v: v >= 1)
    svd_target: float = _option("text", "svd_target", 0.80, lambda v: 0.0 < v <= 1.0)
    pca_target: float = _option("text", "pca_target", 0.90, lambda v: 0.0 < v <= 1.0)
    lasso_folds: int = _option("lasso", "folds", 10, lambda v: v >= 2)
    lasso_grid: int = _option("lasso", "grid_size", 100, lambda v: v >= 2)
    lasso_rule: str = _option("lasso", "rule", "pct75", lambda v: v in RULES)
    gbt_max_depth: int = _option("gbt", "max_depth", 3, lambda v: v >= 1)
    gbt_learning_rate: float = _option("gbt", "learning_rate", 0.05, lambda v: 0.0 < v <= 1.0)
    gbt_n_trees: int = _option("gbt", "n_trees", 100, lambda v: v >= 1)
    gbt_subsample: float = _option("gbt", "subsample", 0.8, lambda v: 0.0 < v <= 1.0)
    gbt_top_k_structured: int = _option("gbt", "top_k_structured", 17, lambda v: v >= 1)
    gbt_top_k_multimodal: int = _option("gbt", "top_k_multimodal", 64, lambda v: v >= 1)
    dca_grid_step: float = _option("eval", "dca_grid_step", 0.01, lambda v: 0.0 < v < 0.5)
    calibration_bins: int = _option("eval", "calibration_bins", 10, lambda v: v >= 2)
    synth_n: int = _option("synth", "n_patients", 2000, lambda v: v >= 10)
    synth_prevalence: float = _option("synth", "prevalence", 0.52, lambda v: 0.0 < v < 1.0)
    synth_text_signal: float = _option("synth", "text_signal", 1.0, lambda v: v >= 0.0)
    synth_emb_dim: int = _option("synth", "emb_dim", 768, lambda v: v >= 2)
    plausibility_overrides: tuple = ()   # (variable, lower, upper) triples
    impute_overrides: tuple = ()         # (variable, method) pairs
    defaulted: tuple = ()


# the fields a config file sets, in file order: (field, section, key, check)
_OPTIONS = [(f, f.metadata["section"], f.metadata["key"], f.metadata["check"])
            for f in fields(RunConfig) if f.metadata]


def _convert(raw, typ, path):
    if typ is str:
        return raw.strip()
    if typ is tuple:
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
    for _, section, key, _ in _OPTIONS:
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
    for f, section, key, check in _OPTIONS:
        dotted = f"{section}.{key}"
        if parser.has_option(section, key):
            v = _convert(parser.get(section, key), f.type, dotted)
            if check is not None and not check(v):
                raise ConfigInvalid(dotted, f"value {v!r} out of range")
            values[f.name] = v
        elif f.name not in overrides:
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
    for f, section, key, _ in _OPTIONS:
        if section != last_section:
            if last_section is not None:
                out.write("\n")
            out.write(f"[{section}]\n")
            last_section = section
        v = getattr(cfg, f.name)
        if f.type is tuple:
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
