"""Flat key=value run configuration.

One self-describing file parameterizes every pipeline knob, so sweeps are
scripted by editing text, not code. Unknown keys are a hard error (the
anti-typo rule), booleans are literal true/false, and lists are
comma-separated. parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .pipeline import FeatureSettings, ModelConfig, SettingError, build_grid, kind_penalty

# the config key each ModelConfig field comes from, for the final model and
# for the grid
_MODEL_KEYS = {"kind": "model", "penalty": "penalty", "C": "model_c", "class_weight": "class_weight"}
_GRID_KEYS = {
    "kind": "grid_models",
    "penalty": "grid_penalties",
    "C": "grid_cs",
    "class_weight": "grid_class_weights",
}


@dataclass(frozen=True)
class PipelineConfig:
    # paths; empty lexicon/pos_model mean the bundled defaults
    corpus: str = ""
    lexicon: str = ""
    pos_model: str = ""
    output_dir: str = "out"
    # vectorizer
    word_ngram_lo: int = 1
    word_ngram_hi: int = 3
    pos_ngram_lo: int = 1
    pos_ngram_hi: int = 3
    min_df: int = 5
    max_df_ratio: float = 0.75
    standardize: bool = True
    # L1 selection
    select: bool = True
    select_c: float = 1.0
    select_tol: float = 1e-4
    # final model
    model: str = "logreg"
    penalty: str = "l2"
    model_c: float = 1.0
    class_weight: str = "uniform"
    # evaluation grid
    grid_models: tuple[str, ...] = ("logreg", "svm", "nb")
    grid_penalties: tuple[str, ...] = ("l1", "l2")
    grid_cs: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0)
    grid_class_weights: tuple[str, ...] = ("uniform",)
    # evaluation protocol
    cv_folds: int = 5
    holdout_fraction: float = 0.10
    seed: int = 42
    report_top_n: int = 10

    def __post_init__(self):
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must lie in (0, 1)")
        if self.report_top_n < 1:
            raise ValueError("report_top_n must be >= 1")
        # surface bad values at load time, not at first use, under their keys
        self.feature_settings()
        for keys, build in ((_MODEL_KEYS, self.model_config), (_GRID_KEYS, self.grid)):
            try:
                build()
            except SettingError as err:
                raise ValueError(f"config key {keys[err.field]!r}: {err}") from None

    def feature_settings(self) -> FeatureSettings:
        return FeatureSettings(**{f.name: getattr(self, f.name) for f in fields(FeatureSettings)})

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            kind=self.model,
            penalty=kind_penalty(self.model, self.penalty),
            C=self.model_c,
            class_weight=self.class_weight,
        )

    def grid(self) -> tuple[ModelConfig, ...]:
        return build_grid(
            self.grid_models, self.grid_penalties, self.grid_cs, self.grid_class_weights
        )


def _parse_bool(raw: str, key: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"config key {key!r} must be 'true' or 'false', got {raw!r}")


def _parse_value(raw: str, kind, key: str):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} expects a {kind.__name__}, got {raw!r}") from None
    if kind is bool:
        return _parse_bool(raw, key)
    return raw


_FIELD_TYPES = {
    f.name: f.type for f in fields(PipelineConfig)
}
_LIST_KEYS = {
    "grid_models": str,
    "grid_penalties": str,
    "grid_cs": float,
    "grid_class_weights": str,
}
_SCALAR_KEYS = {
    name: {"str": str, "int": int, "float": float, "bool": bool}[t]
    for name, t in _FIELD_TYPES.items()
    if name not in _LIST_KEYS
}


def parse_config(text: str) -> PipelineConfig:
    """Parse key = value lines; '#' lines and blank lines are skipped."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno} is not 'key = value': {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in values:
            raise ValueError(f"duplicate config key {key!r} on line {lineno}")
        if key in _LIST_KEYS:
            item_kind = _LIST_KEYS[key]
            items = [v.strip() for v in raw.split(",") if v.strip()]
            if not items:
                raise ValueError(f"config key {key!r} needs at least one item")
            values[key] = tuple(_parse_value(v, item_kind, key) for v in items)
        elif key in _SCALAR_KEYS:
            values[key] = _parse_value(raw, _SCALAR_KEYS[key], key)
        else:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
    return PipelineConfig(**values)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # the short form when it reads back as the same float, else the exact one
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def serialize_config(config: PipelineConfig) -> str:
    lines = [
        f"{f.name} = {_format_value(getattr(config, f.name))}"
        for f in fields(PipelineConfig)
    ]
    return "\n".join(lines) + "\n"


def load_config(path) -> PipelineConfig:
    # utf-8-sig drops a byte-order mark that starts the file, as parse_corpus does
    return parse_config(Path(path).read_text(encoding="utf-8-sig"))
