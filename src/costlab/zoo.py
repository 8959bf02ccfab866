"""Registry of the twenty model variants plus the frozen quadratic baseline.

Each entry lists the hyperparameter keys it accepts and knows how to build a
Predictor from them and a per-model seed. ``build_model`` types the string
values of a config section; a key left out takes the default of the family's
constructor or config dataclass. Unknown keys are hard errors so config typos
never silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ModelInfo:
    model_id: str
    display_name: str
    family: str
    build: Callable[[dict, int], Predictor]  # (typed hyperparameters, seed)
    param_keys: tuple[str, ...] = ()  # the only [model.*] keys this model accepts


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


# The type of every [model.*] key. A key that is absent from a section is not
# passed on, so its default is the one of the constructor or config dataclass.
_PARAM_TYPES: dict[str, Callable[[str], object]] = {
    **dict.fromkeys(
        ("max_depth", "min_samples_leaf", "min_samples_split", "n_members", "n_rounds",
         "epochs", "max_passes", "k", "population_size", "generations",
         "elitism_count"),
        int,
    ),
    **dict.fromkeys(
        ("learning_rate", "subsample", "lam", "gamma", "c", "epsilon", "gamma_rbf",
         "crossover_prob", "mutation_prob"),
        float,
    ),
    "weights": _floats,
    "rule_file": str,
}

_TREE_KEYS = ("max_depth", "min_samples_leaf", "min_samples_split")
_BOOST_KEYS = ("n_rounds", "learning_rate", *_TREE_KEYS)
_NET_KEYS = ("epochs", "learning_rate")


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
            (*_BOOST_KEYS, "lam", "gamma"),
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
            ("n_members", *_TREE_KEYS),
        ),
        ModelInfo(
            "random_forest",
            "Random forest",
            "ensemble",
            _forest_builder("random_forest", "fit_random_forest"),
            ("n_members", *_TREE_KEYS),
        ),
        ModelInfo(
            "extra_trees",
            "Extremely randomized trees",
            "ensemble",
            _forest_builder("extra_trees", "fit_extra_trees"),
            ("n_members", *_TREE_KEYS),
        ),
        ModelInfo(
            "adaboost_r2",
            "AdaBoost.R2",
            "ensemble",
            _forest_builder("adaboost_r2", "fit_adaboost_r2"),
            ("n_members", *_TREE_KEYS),
        ),
        ModelInfo(
            "sgb",
            "Stochastic gradient boosting",
            "ensemble",
            _build_sgb,
            (*_BOOST_KEYS, "subsample"),
        ),
        ModelInfo(
            "genetic_fuzzy",
            "GA-evolved fuzzy rules",
            "hybrid fuzzy",
            _build_genetic_fuzzy,
            ("population_size", "generations", "crossover_prob", "mutation_prob",
             "elitism_count"),
        ),
        ModelInfo("cbr", "Case-based reasoning", "case-based", _build_cbr, ("k", "weights")),
        ModelInfo(
            "svr",
            "Support vector regression (RBF)",
            "kernel",
            _build_svr,
            ("c", "epsilon", "gamma_rbf", "max_passes"),
        ),
        ModelInfo("fuzzy", "Mamdani fuzzy inference", "fuzzy", _build_fuzzy, ("rule_file",)),
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
    unknown = sorted(set(params) - set(info.param_keys))
    if unknown:
        raise ConfigError(f"[model.{model_id}] unknown hyperparameters {unknown}")
    typed = {}
    for key, raw in params.items():
        try:
            typed[key] = _PARAM_TYPES[key](raw)
        except ValueError:
            raise ConfigError(f"[model.{model_id}] bad value {raw!r} for {key!r}")
    try:
        return info.build(typed, seed)
    except ValueError as exc:
        raise ConfigError(f"[model.{model_id}] {exc}") from exc
