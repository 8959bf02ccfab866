"""Benchmark harness: config parsing, the full model comparison, rendering.

The config is an INI-style file of key = value sections. Unknown sections or
keys are hard errors. Every stochastic component derives its own seed from
the global seed and a fixed namespace string, so enabling or disabling one
model never perturbs another model's row.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_K_PREDICTORS, EvalReport, Predictor, score_predictions
from .data import (
    Dataset,
    FeatureVector,
    N_FEATURES,
    SplitSpec,
    check_green_rule,
    check_noise_pct,
    load_csv,
    split,
    synthesize,
)
from .errors import ConfigError, CostLabError
from .zoo import DEFAULT_MODEL_IDS, MODEL_REGISTRY, build_model, read_section

@dataclass(frozen=True)
class BenchConfig:
    """A checked benchmark config: every bad value is a ConfigError on construction."""

    source: str = "synthesize"
    csv_path: str | None = None
    n: int = 144
    noise_pct: float = 5.0
    train_fraction: float | None = None
    train_count: int | None = None
    n_override: int | None = None
    k_predictors: int = DEFAULT_K_PREDICTORS
    enabled: tuple[str, ...] = DEFAULT_MODEL_IDS
    model_params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.source not in ("synthesize", "csv"):
            raise ConfigError(f"[data] source must be 'synthesize' or 'csv', got {self.source!r}")
        if self.n < 1:
            raise ConfigError(f"[data] n must be >= 1, got {self.n}")
        try:
            check_noise_pct(self.noise_pct)
        except ValueError as exc:
            raise ConfigError(f"[data] {exc}") from None
        if self.source == "csv":
            if self.csv_path is None:
                raise ConfigError("[data] source = csv requires a path")
            if not os.path.exists(self.csv_path):
                raise ConfigError(f"[data] path does not exist: {self.csv_path}")
            for key in ("n", "noise_pct"):  # a default written out is accepted
                if getattr(self, key) != getattr(type(self), key):
                    raise ConfigError(f"[data] {key} applies only to source = synthesize")
        elif self.csv_path is not None:
            raise ConfigError("[data] path applies only to source = csv")
        if self.train_fraction is not None and self.train_count is not None:
            raise ConfigError("[split] give train_fraction or train_count, not both")
        if self.train_fraction is not None and not 0 < self.train_fraction < 1:
            raise ConfigError(
                f"[split] train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.train_count is not None and self.train_count < 1:
            raise ConfigError(f"[split] train_count must be >= 1, got {self.train_count}")
        if self.source == "synthesize":  # a csv source's n is known only once it is read
            count = SplitSpec(self.train_fraction, self.train_count).resolve_train_count(self.n)
            if not 1 <= count <= self.n - 1:
                raise ConfigError(
                    f"[split] train count {count} leaves an empty side for {self.n} records"
                )
        if self.k_predictors < 0:
            raise ConfigError(f"[metrics] k_predictors must be >= 0, got {self.k_predictors}")
        if self.n_override is not None and self.n_override < self.k_predictors + 2:
            raise ConfigError(
                f"[metrics] n_override must be >= k_predictors + 2, got {self.n_override}"
            )
        if self.source == "synthesize":
            self.check_test_count(self.n, self.n - count)
        if not self.enabled:
            raise ConfigError("[models] enabled: at least one model required")
        for i, model_id in enumerate(self.enabled):
            if model_id not in MODEL_REGISTRY:
                raise ConfigError(f"[models] enabled: unknown model id {model_id!r}")
            if model_id in self.enabled[:i]:
                raise ConfigError(f"[models] enabled: duplicate model id {model_id!r}")
        for model_id, params in self.model_params.items():
            if model_id not in MODEL_REGISTRY:
                raise ConfigError(f"[model.{model_id}] unknown model id")
            build_model(model_id, params, 0)  # a disabled model's section is checked too

    def check_test_count(self, n: int, test: int) -> None:
        """Raise a ConfigError when a split of ``n`` records leaves ``test`` rows,
        fewer than the test scores need: two for R2, and ``k_predictors + 2``
        for adjusted R2 unless ``n_override`` replaces the test count."""
        need = 2 if self.n_override is not None else self.k_predictors + 2
        if test < need:
            raise ConfigError(
                f"[split] test count {test} of {n} records is below {need}, "
                "the fewest the test scores need"
            )


def _model_ids(raw: str) -> tuple[str, ...]:
    if raw == "all":
        return DEFAULT_MODEL_IDS
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# Every key of the non-model sections and its type; each key is the BenchConfig
# field of that name, except [data] path, which is csv_path.
_SECTIONS = {
    "data": {"source": str, "n": int, "noise_pct": float, "path": str},
    "split": {"train_fraction": float, "train_count": int},
    "metrics": {"n_override": int, "k_predictors": int},
    "models": {"enabled": _model_ids},
    "run": {"seed": int},
}


def parse_config(text: str, base_dir: str = ".") -> BenchConfig:
    """Parse the INI config into a checked BenchConfig; paths resolve against base_dir."""
    # no header can name the empty section, so [DEFAULT] is a section like any other
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";",), default_section=""
    )
    try:
        parser.read_string(text)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"[{exc.section}] duplicate key {exc.option!r}")
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"[{exc.section}] duplicate section")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")

    kwargs: dict = {"model_params": {}}
    for section in parser.sections():
        if section.startswith("model."):
            params = dict(parser[section])
            if "rule_file" in params:
                params["rule_file"] = os.path.join(base_dir, params["rule_file"])
            kwargs["model_params"][section[len("model."):]] = params
        elif section in _SECTIONS:
            kwargs |= read_section(section, parser[section], _SECTIONS[section])
        else:
            raise ConfigError(f"[{section}] unknown section")
    if "path" in kwargs:
        kwargs["csv_path"] = os.path.join(base_dir, kwargs.pop("path"))
    return BenchConfig(**kwargs)


def load_config(path: str) -> BenchConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def derive_seed(global_seed: int, namespace: str) -> int:
    """Stable per-component seed stream from (global seed, namespace)."""
    digest = hashlib.sha256(f"{global_seed}:{namespace}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


@dataclass(frozen=True)
class ModelRun:
    """One enabled model's run: a ranked row with its test predictions, or an
    error row. It holds no predictor, so each fitted model is freed once its
    record exists."""

    model_id: str
    report: EvalReport | None = None
    error: str | None = None
    predicted: np.ndarray | None = None  # float64, one per test row; None for an error row
    files: dict[str, list[tuple]] = field(default_factory=dict)  # Predictor.output_files


@dataclass
class BenchResult:
    rows: list[ModelRun]  # ranked by MAPE, then the error rows by model id
    warnings: list[str]
    test: Dataset


def _train_test(cfg: BenchConfig, seed: int) -> tuple[Dataset, Dataset]:
    """The configured dataset, split into its train and test sides whose test
    count is checked (a csv source's size is known only here)."""
    if cfg.source == "csv":
        dataset = load_csv(cfg.csv_path)
    else:
        dataset = synthesize(cfg.n, seed=derive_seed(seed, "data"), noise_pct=cfg.noise_pct)
    spec = SplitSpec(
        train_fraction=cfg.train_fraction,
        train_count=cfg.train_count,
        seed=derive_seed(seed, "split"),
    )
    train, test = split(dataset, spec)
    cfg.check_test_count(len(dataset), len(test))
    return train, test


def run_bench(cfg: BenchConfig, seed: int) -> BenchResult:
    """Fit and evaluate every enabled model; one failure never aborts the rest."""
    train, test = _train_test(cfg, seed)
    warnings = []
    green = check_green_rule(len(train), N_FEATURES)
    if not green.adequate:
        warnings.append(
            f"training sample of {len(train)} is below the minimum of "
            f"{green.minimum} for {N_FEATURES} predictors"
        )

    runs = [_run_model(cfg, seed, model_id, train, test, warnings) for model_id in cfg.enabled]
    scored = sorted(
        (run for run in runs if run.report is not None),
        key=lambda run: (run.report.mape_pct, run.model_id),
    )
    failed = sorted((run for run in runs if run.report is None), key=lambda run: run.model_id)
    return BenchResult(rows=scored + failed, warnings=warnings, test=test)


def _fit_and_score(
    cfg: BenchConfig, seed: int, model_id: str, train: Dataset, test: Dataset
) -> tuple[Predictor, np.ndarray, EvalReport]:
    """Build one configured model on its own seed, fit it on train, and score
    its predictions on test: the one step behind every leaderboard row and quote."""
    predictor = build_model(model_id, cfg.model_params.get(model_id, {}), derive_seed(seed, model_id))
    predictor.fit(train)
    predicted = predictor.predict_many(test)
    report = score_predictions(test, predicted, model_id, cfg.k_predictors, cfg.n_override)
    return predictor, predicted, report


def _run_model(
    cfg: BenchConfig, seed: int, model_id: str, train: Dataset, test: Dataset, warnings: list[str]
) -> ModelRun:
    """One model's leaderboard record; its failure becomes its error row."""
    try:  # a build can fail too, on a file its settings name
        predictor, predicted, report = _fit_and_score(cfg, seed, model_id, train, test)
        return ModelRun(model_id, report, predicted=predicted, files=predictor.output_files(model_id))
    except Exception as exc:  # any one model's failure becomes its error row
        code = exc.code if isinstance(exc, CostLabError) else type(exc).__name__
        if not isinstance(exc, CostLabError):  # unexpected: keep where it was raised
            warnings.append(f"{model_id} failed unexpectedly:\n{traceback.format_exc()}")
        return ModelRun(model_id, error=f"{code}: {exc}")


_CSV_HEADER = (
    "Notation",
    "Algorithm / model",
    "Algorithm type",
    "MAPE %",
    "MAPE % categorization",
    "R2",
    "R*2",
)
_MD_HEADER = (*_CSV_HEADER[:-2], "R²", "R*²")


def _row_cells(notation: str, row: ModelRun) -> list[str]:
    info = MODEL_REGISTRY[row.model_id]
    rep = row.report
    if rep is None:
        scores = ["-", f"error: {row.error}", "-", "-"]
    else:
        scores = [f"{rep.mape_pct:.3f}", rep.mape_category.label, f"{rep.r2:.3f}", f"{rep.adj_r2:.3f}"]
    return [notation, info.display_name, info.family, *scores]


def render(result: BenchResult, fmt: str = "markdown") -> str:
    """Leaderboard text in csv or markdown, rows numbered M1, M2, ... in rank
    order; numbers printed to 3 decimals."""
    rows = [_row_cells(f"M{i + 1}", run) for i, run in enumerate(result.rows)]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([_CSV_HEADER, *rows])
        return buf.getvalue()
    if fmt != "markdown":
        raise ConfigError(f"unknown leaderboard format {fmt!r}")
    lines = [_MD_HEADER, ["---"] * len(_MD_HEADER), *rows]
    return "".join("| " + " | ".join(cells) + " |\n" for cells in lines)


def _write_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_outputs(result: BenchResult, out_dir: str, fmt: str = "markdown") -> list[str]:
    """Write the leaderboard, each ranked model's predictions, then the models' extra files."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    suffix = "csv" if fmt == "csv" else "md"
    leaderboard_path = os.path.join(out_dir, f"leaderboard.{suffix}")
    with open(leaderboard_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render(result, fmt))
    written.append(leaderboard_path)
    ranked = [run for run in result.rows if run.report is not None]
    ranked.sort(key=lambda run: run.model_id)
    ids = [rec.id for rec in result.test]
    actual = [repr(cost) for cost in result.test.targets.tolist()]
    for run in ranked:
        path = os.path.join(out_dir, f"predictions_{run.model_id}.csv")
        predicted = map(repr, run.predicted.tolist())
        _write_csv(path, [("id", "actual", "predicted"), *zip(ids, actual, predicted)])
        written.append(path)
    for run in ranked:  # an error row has no files
        for name, rows in run.files.items():
            path = os.path.join(out_dir, name)
            _write_csv(path, rows)
            written.append(path)
    return written


@dataclass
class PredictOneResult:
    cost: float
    report: EvalReport  # the model's leaderboard row
    trace: list[str]


def predict_one(
    cfg: BenchConfig, seed: int, model_id: str, features: FeatureVector
) -> PredictOneResult:
    """Refit one model as the leaderboard does and price a single project."""
    train, test = _train_test(cfg, seed)
    predictor, _, report = _fit_and_score(cfg, seed, model_id, train, test)
    return PredictOneResult(predictor.predict(features), report, predictor.explain(features))


def build_rule_base(cfg: BenchConfig, seed: int, evolved: bool = False):
    """The ``fuzzy.RuleBase`` derived from the configured training split (a
    configured rule file is not read), or evolved by ``genetic_fuzzy``."""
    train, _ = _train_test(cfg, seed)
    model_id = "genetic_fuzzy" if evolved else "fuzzy"
    params = cfg.model_params.get("genetic_fuzzy", {}) if evolved else {}
    predictor = build_model(model_id, params, derive_seed(seed, model_id))
    return predictor.fit(train).rule_base
