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

from .core import DEFAULT_K_PREDICTORS, EvalReport, evaluate, score_predictions
from .cbr import CbrPredictor
from .data import (
    Dataset,
    FeatureVector,
    N_FEATURES,
    SplitSpec,
    check_green_rule,
    load_csv,
    split,
    synthesize,
)
from .errors import ConfigError, CostLabError, ParseError
from .fuzzy import FuzzyPredictor, RuleBase, derive_rule_base, load_rules
from .genetic_fuzzy import GeneticFuzzyPredictor
from .zoo import DEFAULT_MODEL_IDS, MODEL_REGISTRY, build_model

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
        if not 0 <= self.noise_pct < float("inf"):  # the negated form also rejects a nan
            raise ConfigError(f"[data] noise_pct must be finite and >= 0, got {self.noise_pct}")
        if self.source == "csv":
            if self.csv_path is None:
                raise ConfigError("[data] source = csv requires a path")
            if not os.path.exists(self.csv_path):
                raise ConfigError(f"[data] path does not exist: {self.csv_path}")
        if self.train_fraction is not None and self.train_count is not None:
            raise ConfigError("[split]: give train_fraction or train_count, not both")
        if self.train_fraction is not None and not 0 < self.train_fraction < 1:
            raise ConfigError(
                f"[split] train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.train_count is not None and self.train_count < 1:
            raise ConfigError(f"[split] train_count must be >= 1, got {self.train_count}")
        if self.k_predictors < 0:
            raise ConfigError(f"[metrics] k_predictors must be >= 0, got {self.k_predictors}")
        if self.n_override is not None and self.n_override < self.k_predictors + 2:
            raise ConfigError(
                f"[metrics] n_override must be >= k_predictors + 2, got {self.n_override}"
            )
        if not self.enabled:
            raise ConfigError("[models] enabled: at least one model required")
        for i, model_id in enumerate(self.enabled):
            if model_id not in MODEL_REGISTRY:
                raise ConfigError(f"[models] enabled: unknown model id {model_id!r}")
            if model_id in self.enabled[:i]:
                raise ConfigError(f"[models] enabled: duplicate model id {model_id!r}")
        for model_id, params in self.model_params.items():
            if model_id not in MODEL_REGISTRY:
                raise ConfigError(f"config section [model.{model_id}]: unknown model id")
            build_model(model_id, params, 0)  # a disabled model's section is checked too
            rule_file = params.get("rule_file")
            if rule_file is None:
                continue
            if not os.path.exists(rule_file):
                raise ConfigError(f"[model.{model_id}] rule_file does not exist: {rule_file}")
            try:  # parsed at fit too; a bad file fails here, not as a leaderboard row
                load_rules(rule_file)
            except (ParseError, OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"[model.{model_id}] rule_file {rule_file}: {exc}") from exc


def _model_ids(raw: str) -> tuple[str, ...]:
    if raw == "all":
        return DEFAULT_MODEL_IDS
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# Every key of the non-model sections: (section, key) -> (BenchConfig field, cast).
_KEYS = {
    ("data", "source"): ("source", str),
    ("data", "n"): ("n", int),
    ("data", "noise_pct"): ("noise_pct", float),
    ("data", "path"): ("csv_path", str),
    ("split", "train_fraction"): ("train_fraction", float),
    ("split", "train_count"): ("train_count", int),
    ("metrics", "n_override"): ("n_override", int),
    ("metrics", "k_predictors"): ("k_predictors", int),
    ("models", "enabled"): ("enabled", _model_ids),
    ("run", "seed"): ("seed", int),
}


def parse_config(text: str, base_dir: str = ".") -> BenchConfig:
    """Parse the INI config into a checked BenchConfig; paths resolve against base_dir."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")

    kwargs: dict = {"model_params": {}}
    for section in parser.sections():
        if section.startswith("model."):
            params = dict(parser[section])
            if "rule_file" in params:
                params["rule_file"] = os.path.join(base_dir, params["rule_file"])
            kwargs["model_params"][section[len("model."):]] = params
            continue
        if section not in {known for known, _ in _KEYS}:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = sorted(key for key in parser[section] if (section, key) not in _KEYS)
        if unknown:
            raise ConfigError(f"[{section}]: unknown keys {unknown}")
        for key, raw in parser[section].items():
            name, cast = _KEYS[section, key]
            try:
                kwargs[name] = cast(raw)
            except ValueError:
                raise ConfigError(f"[{section}] {key}: bad value {raw!r}")
    if "csv_path" in kwargs:
        kwargs["csv_path"] = os.path.join(base_dir, kwargs["csv_path"])
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
class LeaderboardRow:
    notation: str
    model_id: str
    display_name: str
    family: str
    report: EvalReport | None = None
    error: str | None = None


@dataclass
class BenchResult:
    rows: list[LeaderboardRow]
    predictions: dict[str, list[tuple[str, float, float]]]
    ga_histories: dict[str, list[float]]
    warnings: list[str]
    train_size: int
    test_size: int


def _train_test(cfg: BenchConfig, seed: int) -> tuple[Dataset, Dataset]:
    """The configured dataset, split into its train and test sides."""
    if cfg.source == "csv":
        dataset = load_csv(cfg.csv_path)
    else:
        dataset = synthesize(cfg.n, seed=derive_seed(seed, "data"), noise_pct=cfg.noise_pct)
    spec = SplitSpec(
        train_fraction=cfg.train_fraction,
        train_count=cfg.train_count,
        seed=derive_seed(seed, "split"),
    )
    return split(dataset, spec)


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

    # Construct every model first: hyperparameter typos abort the whole run.
    predictors = {
        model_id: build_model(model_id, cfg.model_params.get(model_id, {}), derive_seed(seed, model_id))
        for model_id in cfg.enabled
    }

    scored: list[LeaderboardRow] = []
    failed: list[LeaderboardRow] = []
    predictions: dict[str, list[tuple[str, float, float]]] = {}
    ga_histories: dict[str, list[float]] = {}
    for model_id in cfg.enabled:
        info = MODEL_REGISTRY[model_id]
        predictor = predictors[model_id]
        try:
            predictor.fit(train)
            predicted = predictor.predict_many(test)
            report = score_predictions(
                test,
                predicted,
                model_id,
                k_predictors=cfg.k_predictors,
                n_override=cfg.n_override,
            )
            predictions[model_id] = [
                (rec.id, float(rec.cost_le), float(value)) for rec, value in zip(test, predicted)
            ]
            scored.append(
                LeaderboardRow("", model_id, info.display_name, info.family, report=report)
            )
            if isinstance(predictor, GeneticFuzzyPredictor):
                ga_histories[model_id] = list(predictor.history)
        except Exception as exc:  # any one model's failure becomes its error row
            code = exc.code if isinstance(exc, CostLabError) else type(exc).__name__
            if not isinstance(exc, CostLabError):  # unexpected: keep where it was raised
                warnings.append(f"{model_id} failed unexpectedly:\n{traceback.format_exc()}")
            failed.append(
                LeaderboardRow(
                    "", model_id, info.display_name, info.family, error=f"{code}: {exc}"
                )
            )

    scored.sort(key=lambda row: (row.report.mape_pct, row.model_id))
    failed.sort(key=lambda row: row.model_id)
    rows = [
        LeaderboardRow(f"M{i + 1}", row.model_id, row.display_name, row.family,
                       report=row.report, error=row.error)
        for i, row in enumerate(scored + failed)
    ]
    return BenchResult(
        rows=rows,
        predictions=predictions,
        ga_histories=ga_histories,
        warnings=warnings,
        train_size=len(train),
        test_size=len(test),
    )


_CSV_HEADER = (
    "Notation",
    "Algorithm / model",
    "Algorithm type",
    "MAPE %",
    "MAPE % categorization",
    "R2",
    "R*2",
)
_MD_HEADER = (
    "Notation",
    "Algorithm / model",
    "Algorithm type",
    "MAPE %",
    "MAPE % categorization",
    "R²",
    "R*²",
)


def _row_cells(row: LeaderboardRow) -> list[str]:
    if row.report is None:
        return [row.notation, row.display_name, row.family, "-", f"error: {row.error}", "-", "-"]
    rep = row.report
    return [
        row.notation,
        row.display_name,
        row.family,
        f"{rep.mape_pct:.3f}",
        rep.mape_category.label,
        f"{rep.r2:.3f}",
        f"{rep.adj_r2:.3f}",
    ]


def render(result: BenchResult, fmt: str = "markdown") -> str:
    """Leaderboard text in csv or markdown; numbers printed to 3 decimals."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for row in result.rows:
            writer.writerow(_row_cells(row))
        return buf.getvalue()
    if fmt != "markdown":
        raise ConfigError(f"unknown leaderboard format {fmt!r}")
    lines = [
        "| " + " | ".join(_MD_HEADER) + " |",
        "| " + " | ".join("---" for _ in _MD_HEADER) + " |",
    ]
    for row in result.rows:
        lines.append("| " + " | ".join(_row_cells(row)) + " |")
    return "\n".join(lines) + "\n"


def write_outputs(result: BenchResult, out_dir: str, fmt: str = "markdown") -> list[str]:
    """Write leaderboard, per-model predictions, and GA fitness histories."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    suffix = "csv" if fmt == "csv" else "md"
    leaderboard_path = os.path.join(out_dir, f"leaderboard.{suffix}")
    with open(leaderboard_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render(result, fmt))
    written.append(leaderboard_path)
    for model_id in sorted(result.predictions):
        path = os.path.join(out_dir, f"predictions_{model_id}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "actual", "predicted"))
            for rec_id, actual, predicted in result.predictions[model_id]:
                writer.writerow((rec_id, repr(actual), repr(predicted)))
        written.append(path)
    for model_id in sorted(result.ga_histories):
        path = os.path.join(out_dir, f"ga_fitness_{model_id}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("generation", "best_mape"))
            for gen, best in enumerate(result.ga_histories[model_id]):
                writer.writerow((gen, repr(best)))
        written.append(path)
    return written


@dataclass
class PredictOneResult:
    model_id: str
    cost: float
    report: EvalReport
    trace: list[str]


def predict_one(
    cfg: BenchConfig, seed: int, model_id: str, features: FeatureVector
) -> PredictOneResult:
    """Refit one model from the config and predict a single project's cost."""
    predictor = build_model(model_id, cfg.model_params.get(model_id, {}), derive_seed(seed, model_id))
    train, test = _train_test(cfg, seed)
    predictor.fit(train)
    report = evaluate(
        predictor, test, model_id=model_id,
        k_predictors=cfg.k_predictors, n_override=cfg.n_override,
    )
    cost = predictor.predict(features)
    trace: list[str] = []
    if isinstance(predictor, CbrPredictor):
        _, retrieval = predictor.retrieve(features)
        trace.append(
            f"retrieved case {retrieval.best_case.id} "
            f"(cost {retrieval.best_case.cost_le!r}) with similarity "
            f"{retrieval.case_similarity:.4f}"
        )
        trace.append(
            "per-attribute similarity: "
            + ", ".join(f"{s:.4f}" for s in retrieval.per_attribute)
        )
    elif isinstance(predictor, FuzzyPredictor):
        detail = predictor.infer_trace(features)
        if detail.degraded:
            trace.append("DEGRADED: no rule fired; training-mean fallback used")
        for rule, strength in detail.fired[:10]:
            ants = " ".join(str(a) for a in rule.antecedent)
            trace.append(f"rule {ants} -> {rule.consequent} fired at {strength:.4f}")
    return PredictOneResult(model_id=model_id, cost=cost, report=report, trace=trace)


def build_rule_base(cfg: BenchConfig, seed: int, evolved: bool = False) -> RuleBase:
    """Data-derived (or GA-evolved) rule base from the configured training split."""
    train, _ = _train_test(cfg, seed)
    if not evolved:
        return derive_rule_base(train)
    params = cfg.model_params.get("genetic_fuzzy", {})
    predictor = build_model("genetic_fuzzy", params, derive_seed(seed, "genetic_fuzzy"))
    predictor.fit(train)
    return predictor.rule_base
