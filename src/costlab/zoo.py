"""Registry of the twenty model variants plus the frozen quadratic baseline.

Each entry maps the hyperparameter keys it accepts to their types and knows how
to build a Predictor from them and a per-model seed. ``read_section`` types the
string values of any config section; a key left out takes the default of the
family's constructor or config dataclass. Unknown keys are hard errors so
config typos never silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .cart import TreeParams
from .cbr import CbrPredictor
from .core import Predictor, TargetTransform
from . import ensemble
from .ensemble import BoostConfig, EnsemblePredictor, ForestConfig
from .errors import ConfigError
from .fuzzy import FuzzyPredictor
from .genetic_fuzzy import GAConfig, GeneticFuzzyPredictor
from .neural import NeuralPredictor, dnn_spec, mlp_spec
from .regression import FrozenQuadraticPredictor, RegressionPredictor
from .svr import SvrPredictor


Types = Mapping[str, Callable[[str], object]]  # a section's keys, each with its type


@dataclass(frozen=True)
class ModelInfo:
    model_id: str
    display_name: str
    family: str
    build: Callable[[dict, int], Predictor]  # (typed hyperparameters, seed)
    param_keys: Types = field(default_factory=dict)  # the only [model.*] keys this model accepts


def read_section(section: str, raw: Mapping[str, str], types: Types) -> dict:
    """The section's string values typed by ``types``, which names its only keys."""
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigError(f"[{section}] unknown keys {unknown}")
    typed = {}
    for key, value in raw.items():
        try:
            typed[key] = types[key](value)
        except ValueError:
            raise ConfigError(f"[{section}] bad value {value!r} for {key!r}")
    return typed


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


_TREE_KEYS = dict.fromkeys(("max_depth", "min_samples_leaf", "min_samples_split"), int)
_FOREST_KEYS = {"n_members": int, **_TREE_KEYS}
_BOOST_KEYS = {"n_rounds": int, "learning_rate": float, **_TREE_KEYS}
_NET_KEYS = {"epochs": int, "learning_rate": float}


def _with_tree(typed: dict) -> dict:
    """The typed keys with the tree keys gathered into one ``tree=TreeParams``."""
    tree = TreeParams(**{key: typed[key] for key in _TREE_KEYS if key in typed})
    return {key: value for key, value in typed.items() if key not in _TREE_KEYS} | {"tree": tree}


def _renamed(typed: dict, **arguments: str) -> dict:
    """The typed keys with each INI key renamed to its constructor argument."""
    return {arguments.get(key, key): value for key, value in typed.items()}


def _regression_builder(model_id: str, transform: TargetTransform):
    def build(typed: dict, seed: int) -> Predictor:
        return RegressionPredictor(transform, model_id)

    return build


def _mlp_builder(model_id: str, transform: TargetTransform):
    def build(typed: dict, seed: int) -> Predictor:
        return NeuralPredictor(mlp_spec(seed=seed, **typed), model_id, transform)

    return build


# The ensemble fit functions are looked up on the module at build time, not
# bound at import, so a wrapper installed on ``ensemble.fit_*`` is the one used.
def _forest_builder(model_id: str, fit_name: str):
    def build(typed: dict, seed: int) -> Predictor:
        cfg = ForestConfig(seed=seed, **_with_tree(typed))
        return EnsemblePredictor(model_id, getattr(ensemble, fit_name), cfg)

    return build


def _build_sgb(typed: dict, seed: int) -> Predictor:
    cfg = BoostConfig(seed=seed, **_with_tree(typed))
    kind = "stochastic_gradient_boosting" if cfg.subsample < 1.0 else "gradient_boosting"
    return EnsemblePredictor(kind, ensemble.fit_gradient_boosting, cfg)


def _build_regularized_boosting(typed: dict, seed: int) -> Predictor:
    cfg = BoostConfig(seed=seed, **_with_tree(typed))
    return EnsemblePredictor(
        "regularized_boosting", ensemble.fit_regularized_booster, cfg, supports_missing=True
    )


def _build_frozen(typed: dict, seed: int) -> Predictor:
    return FrozenQuadraticPredictor()


def _build_dnn(typed: dict, seed: int) -> Predictor:
    return NeuralPredictor(dnn_spec(seed=seed, **typed), model_kind="dnn")


def _build_cart(typed: dict, seed: int) -> Predictor:
    return EnsemblePredictor("cart", ensemble.fit_cart, TreeParams(**typed))


def _build_cbr(typed: dict, seed: int) -> Predictor:
    return CbrPredictor(**_renamed(typed, weights="attribute_weights"))


def _build_svr(typed: dict, seed: int) -> Predictor:
    return SvrPredictor(**_renamed(typed, c="C"))


def _build_fuzzy(typed: dict, seed: int) -> Predictor:
    return FuzzyPredictor(**typed)


def _build_genetic_fuzzy(typed: dict, seed: int) -> Predictor:
    return GeneticFuzzyPredictor(GAConfig(seed=seed, **typed))


MODEL_REGISTRY: dict[str, ModelInfo] = {
    info.model_id: info
    for info in (
        ModelInfo(
            "regularized_boosting",
            "Regularized tree boosting (XGBoost-style)",
            "ensemble",
            _build_regularized_boosting,
            {**_BOOST_KEYS, "lam": float, "gamma": float},
        ),
        ModelInfo(
            "sqrt_regression",
            "Sqrt-transformed regression (quadratic)",
            "transformed regression",
            _regression_builder("sqrt_regression", TargetTransform.SQRT),
        ),
        ModelInfo(
            "plain_regression",
            "Linear regression",
            "transformed regression",
            _regression_builder("plain_regression", TargetTransform.NONE),
        ),
        ModelInfo(
            "log_regression",
            "Log-transformed regression (semilog)",
            "transformed regression",
            _regression_builder("log_regression", TargetTransform.NATURAL_LOG),
        ),
        ModelInfo(
            "reciprocal_regression",
            "Reciprocal-transformed regression",
            "transformed regression",
            _regression_builder("reciprocal_regression", TargetTransform.RECIPROCAL),
        ),
        ModelInfo(
            "square_regression",
            "Squared-target regression (power 2)",
            "transformed regression",
            _regression_builder("square_regression", TargetTransform.SQUARE),
        ),
        ModelInfo(
            "plain_mlp",
            "Perceptron 4-5-1 (tanh)",
            "neural network",
            _mlp_builder("plain_mlp", TargetTransform.NONE),
            _NET_KEYS,
        ),
        ModelInfo(
            "sqrt_mlp",
            "Perceptron 4-5-1 on sqrt cost",
            "neural network",
            _mlp_builder("sqrt_mlp", TargetTransform.SQRT),
            _NET_KEYS,
        ),
        ModelInfo(
            "log_mlp",
            "Perceptron 4-5-1 on log cost",
            "neural network",
            _mlp_builder("log_mlp", TargetTransform.NATURAL_LOG),
            _NET_KEYS,
        ),
        ModelInfo(
            "dnn", "Deep network 4-100-100-100-1 (ReLU)", "neural network", _build_dnn, _NET_KEYS
        ),
        ModelInfo("cart", "CART regression tree", "decision tree", _build_cart, _TREE_KEYS),
        ModelInfo(
            "bagging",
            "Bagged trees",
            "ensemble",
            _forest_builder("bagging", "fit_bagging"),
            _FOREST_KEYS,
        ),
        ModelInfo(
            "random_forest",
            "Random forest",
            "ensemble",
            _forest_builder("random_forest", "fit_random_forest"),
            _FOREST_KEYS,
        ),
        ModelInfo(
            "extra_trees",
            "Extremely randomized trees",
            "ensemble",
            _forest_builder("extra_trees", "fit_extra_trees"),
            _FOREST_KEYS,
        ),
        ModelInfo(
            "adaboost_r2",
            "AdaBoost.R2",
            "ensemble",
            _forest_builder("adaboost_r2", "fit_adaboost_r2"),
            _FOREST_KEYS,
        ),
        ModelInfo(
            "sgb",
            "Stochastic gradient boosting",
            "ensemble",
            _build_sgb,
            {**_BOOST_KEYS, "subsample": float},
        ),
        ModelInfo(
            "genetic_fuzzy",
            "GA-evolved fuzzy rules",
            "hybrid fuzzy",
            _build_genetic_fuzzy,
            {"population_size": int, "generations": int, "crossover_prob": float,
             "mutation_prob": float, "elitism_count": int},
        ),
        ModelInfo(
            "cbr", "Case-based reasoning", "case-based", _build_cbr, {"k": int, "weights": _floats}
        ),
        ModelInfo(
            "svr",
            "Support vector regression (RBF)",
            "kernel",
            _build_svr,
            {"c": float, "epsilon": float, "gamma_rbf": float, "max_passes": int},
        ),
        ModelInfo("fuzzy", "Mamdani fuzzy inference", "fuzzy", _build_fuzzy, {"rule_file": str}),
        ModelInfo(
            "frozen_quadratic",
            "Frozen quadratic baseline",
            "transformed regression",
            _build_frozen,
        ),
    )
}

# The twenty benchmark variants; the frozen baseline is opt-in.
DEFAULT_MODEL_IDS: tuple[str, ...] = tuple(
    model_id for model_id in MODEL_REGISTRY if model_id != "frozen_quadratic"
)


def build_model(model_id: str, params: Mapping[str, str], seed: int) -> Predictor:
    """Construct an unfitted model; every bad hyperparameter is a ConfigError here."""
    info = MODEL_REGISTRY.get(model_id)
    if info is None:
        raise ConfigError(f"unknown model id {model_id!r}")
    typed = read_section(f"model.{model_id}", params, info.param_keys)
    try:
        return info.build(typed, seed)
    except ValueError as exc:
        raise ConfigError(f"[model.{model_id}] {exc}") from exc
