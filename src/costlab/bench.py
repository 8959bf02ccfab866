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
from .errors import ConfigError, CostLabError
from .fuzzy import FuzzyPredictor, RuleBase, derive_rule_base
from .genetic_fuzzy import GAConfig, GeneticFuzzyPredictor, evolve
from .zoo import DEFAULT_MODEL_IDS, MODEL_REGISTRY, build_model

_SECTION_KEYS = {
    "data": {"source", "n", "noise_pct", "path"},
    "split": {"train_fraction", "train_count"},
    "metrics": {"n_override", "k_predictors"},
    "models": {"enabled"},
    "run": {"seed"},
}


@dataclass(frozen=True)
class BenchConfig:
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


def _parse_typed(section: str, key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: bad value {raw!r}")


def parse_config(text: str, base_dir: str = ".") -> BenchConfig:
    """Parse and validate the INI config; paths resolve against base_dir."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")

    model_params: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section.startswith("model."):
            model_id = section[len("model."):]
            if model_id not in MODEL_REGISTRY:
                raise ConfigError(f"config section [{section}]: unknown model id")
            model_params[model_id] = dict(parser[section])
            continue
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(f"[{section}]: unknown keys {sorted(unknown)}")

    kwargs: dict = {"model_params": model_params}
    if parser.has_section("data"):
        data = parser["data"]
        source = data.get("source", "synthesize").strip()
        if source not in ("synthesize", "csv"):
            raise ConfigError(f"[data] source must be 'synthesize' or 'csv', got {source!r}")
        kwargs["source"] = source
        if "n" in data:
            kwargs["n"] = _parse_typed("data", "n", data["n"], int)
        if "noise_pct" in data:
            kwargs["noise_pct"] = _parse_typed("data", "noise_pct", data["noise_pct"], float)
        if source == "csv":
            if "path" not in data:
                raise ConfigError("[data] source = csv requires a path")
            path = data["path"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            if not os.path.exists(path):
                raise ConfigError(f"[data] path does not exist: {path}")
            kwargs["csv_path"] = path
    if parser.has_section("split"):
        sec = parser["split"]
        if "train_fraction" in sec and "train_count" in sec:
            raise ConfigError("[split]: give train_fraction or train_count, not both")
        if "train_fraction" in sec:
            kwargs["train_fraction"] = _parse_typed(
                "split", "train_fraction", sec["train_fraction"], float
            )
        if "train_count" in sec:
            kwargs["train_count"] = _parse_typed("split", "train_count", sec["train_count"], int)
    if parser.has_section("metrics"):
        sec = parser["metrics"]
        if "n_override" in sec:
            kwargs["n_override"] = _parse_typed("metrics", "n_override", sec["n_override"], int)
        if "k_predictors" in sec:
            kwargs["k_predictors"] = _parse_typed(
                "metrics", "k_predictors", sec["k_predictors"], int
            )
    if parser.has_section("models"):
        raw = parser["models"].get("enabled", "all").strip()
        if raw == "all":
            enabled = DEFAULT_MODEL_IDS
        else:
            enabled = tuple(part.strip() for part in raw.split(",") if part.strip())
            for model_id in enabled:
                if model_id not in MODEL_REGISTRY:
                    raise ConfigError(f"[models] enabled: unknown model id {model_id!r}")
        if not enabled:
            raise ConfigError("[models] enabled: at least one model required")
        kwargs["enabled"] = enabled
    if parser.has_section("run") and "seed" in parser["run"]:
        kwargs["seed"] = _parse_typed("run", "seed", parser["run"]["seed"], int)

    for model_id in model_params:
        rule_file = model_params[model_id].get("rule_file")
        if rule_file is not None:
            path = rule_file if os.path.isabs(rule_file) else os.path.join(base_dir, rule_file)
            if not os.path.exists(path):
                raise ConfigError(f"[model.{model_id}] rule_file does not exist: {path}")
            model_params[model_id]["rule_file"] = path

    return BenchConfig(**kwargs)


def load_config(path: str) -> BenchConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


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


def _load_dataset(cfg: BenchConfig, seed: int) -> Dataset:
    if cfg.source == "csv":
        return load_csv(cfg.csv_path)
    return synthesize(cfg.n, seed=derive_seed(seed, "data"), noise_pct=cfg.noise_pct)


def _split_dataset(cfg: BenchConfig, dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    spec = SplitSpec(
        train_fraction=cfg.train_fraction,
        train_count=cfg.train_count,
        seed=derive_seed(seed, "split"),
    )
    return split(dataset, spec)


def run_bench(cfg: BenchConfig, seed: int) -> BenchResult:
    """Fit and evaluate every enabled model; one failure never aborts the rest."""
    dataset = _load_dataset(cfg, seed)
    train, test = _split_dataset(cfg, dataset, seed)
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
        except CostLabError as exc:
            failed.append(
                LeaderboardRow(
                    "", model_id, info.display_name, info.family,
                    error=f"{exc.code}: {exc}",
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
    if model_id not in MODEL_REGISTRY:
        raise ConfigError(f"unknown model id {model_id!r}")
    dataset = _load_dataset(cfg, seed)
    train, test = _split_dataset(cfg, dataset, seed)
    predictor = build_model(model_id, cfg.model_params.get(model_id, {}), derive_seed(seed, model_id))
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
    dataset = _load_dataset(cfg, seed)
    train, _ = _split_dataset(cfg, dataset, seed)
    if not evolved:
        return derive_rule_base(train)
    params = cfg.model_params.get("genetic_fuzzy", {})
    predictor = build_model("genetic_fuzzy", params, derive_seed(seed, "genetic_fuzzy"))
    ga_cfg: GAConfig = predictor.config
    rule_base, _ = evolve(ga_cfg, train)
    return rule_base
