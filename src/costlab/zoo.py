"""Registry of the twenty model variants plus the frozen quadratic baseline.

Each entry knows how to build a Predictor from a flat hyperparameter mapping
(string values, as parsed from the benchmark config) and a per-model seed.
Unknown hyperparameter keys are hard errors so config typos never silently
fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .cart import CartPredictor, TreeParams
from .cbr import CbrPredictor
from .core import Predictor, TargetTransform
from . import ensemble
from .ensemble import BoostConfig, EnsemblePredictor, ForestConfig
from .errors import ConfigError
from .fuzzy import DEFAULT_SAMPLES, FuzzyPredictor
from .genetic_fuzzy import GAConfig, GeneticFuzzyPredictor
from .neural import NeuralPredictor, dnn_spec, mlp_spec
from .regression import FrozenQuadraticPredictor, LinearTransform, RegressionPredictor
from .svr import DEFAULT_GAMMA, SvrPredictor


@dataclass(frozen=True)
class ModelInfo:
    model_id: str
    display_name: str
    family: str
    build: Callable[[Mapping[str, str], int], Predictor]
    param_keys: tuple[str, ...] = ()


class _Params:
    """Typed access to a flat string-valued hyperparameter mapping."""

    def __init__(self, model_id: str, raw: Mapping[str, str], allowed: tuple[str, ...]):
        unknown = sorted(set(raw) - set(allowed))
        if unknown:
            raise ConfigError(f"model {model_id!r}: unknown hyperparameters {unknown}")
        self._model_id = model_id
        self._raw = raw

    def _get(self, key: str, default, cast):
        if key not in self._raw:
            return default
        try:
            return cast(self._raw[key])
        except ValueError:
            raise ConfigError(
                f"model {self._model_id!r}: bad value {self._raw[key]!r} for {key!r}"
            )

    def get_int(self, key: str, default: int) -> int:
        return self._get(key, default, int)

    def get_float(self, key: str, default: float) -> float:
        return self._get(key, default, float)

    def get_str(self, key: str, default: str | None) -> str | None:
        return self._get(key, default, str)

    def get_floats(self, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
        return self._get(
            key, default, lambda s: tuple(float(p) for p in s.split(",") if p.strip())
        )


_TREE_KEYS = ("max_depth", "min_samples_leaf", "min_samples_split")


def _tree_params(p: _Params) -> TreeParams:
    return TreeParams(
        max_depth=p.get_int("max_depth", 6),
        min_samples_leaf=p.get_int("min_samples_leaf", 2),
        min_samples_split=p.get_int("min_samples_split", 4),
    )


def _regression_builder(transform: LinearTransform):
    def build(raw: Mapping[str, str], seed: int) -> Predictor:
        _Params(f"{transform.value}_regression", raw, ())
        return RegressionPredictor(transform)

    return build


def _mlp_builder(model_id: str, transform: TargetTransform):
    def build(raw: Mapping[str, str], seed: int) -> Predictor:
        p = _Params(model_id, raw, ("epochs", "learning_rate"))
        spec = mlp_spec(
            target_transform=transform,
            epochs=p.get_int("epochs", 3000),
            learning_rate=p.get_float("learning_rate", 0.05),
            seed=seed,
        )
        return NeuralPredictor(spec, model_kind=model_id)

    return build


# The ensemble fit functions are looked up on the module at build time, not
# bound at import, so a wrapper installed on ``ensemble.fit_*`` is the one used.
def _forest_builder(model_id: str, fit_name: str):
    def build(raw: Mapping[str, str], seed: int) -> Predictor:
        p = _Params(model_id, raw, ("n_members", *_TREE_KEYS))
        cfg = ForestConfig(
            n_members=p.get_int("n_members", 100), tree=_tree_params(p), seed=seed
        )
        return EnsemblePredictor(model_id, getattr(ensemble, fit_name), cfg)

    return build


_BOOST_KEYS = ("n_rounds", "learning_rate", "subsample", *_TREE_KEYS)


def _boost_config(p: _Params, seed: int, default_subsample: float) -> BoostConfig:
    return BoostConfig(
        n_rounds=p.get_int("n_rounds", 100),
        learning_rate=p.get_float("learning_rate", 0.1),
        lam=p.get_float("lam", 1.0),
        gamma=p.get_float("gamma", 0.0),
        subsample=p.get_float("subsample", default_subsample),
        tree=_tree_params(p),
        seed=seed,
    )


def _build_sgb(raw: Mapping[str, str], seed: int) -> Predictor:
    cfg = _boost_config(_Params("sgb", raw, _BOOST_KEYS), seed, 0.8)
    kind = "stochastic_gradient_boosting" if cfg.subsample < 1.0 else "gradient_boosting"
    return EnsemblePredictor(kind, ensemble.fit_gradient_boosting, cfg)


def _build_regularized_boosting(raw: Mapping[str, str], seed: int) -> Predictor:
    p = _Params("regularized_boosting", raw, (*_BOOST_KEYS, "lam", "gamma"))
    cfg = _boost_config(p, seed, 1.0)
    return EnsemblePredictor(
        "regularized_boosting", ensemble.fit_regularized_booster, cfg, supports_missing=True
    )


def _build_frozen(raw: Mapping[str, str], seed: int) -> Predictor:
    _Params("frozen_quadratic", raw, ())
    return FrozenQuadraticPredictor()


def _build_dnn(raw: Mapping[str, str], seed: int) -> Predictor:
    p = _Params("dnn", raw, ("epochs", "learning_rate"))
    spec = dnn_spec(
        epochs=p.get_int("epochs", 1000),
        learning_rate=p.get_float("learning_rate", 0.01),
        seed=seed,
    )
    return NeuralPredictor(spec, model_kind="dnn")


def _build_cart(raw: Mapping[str, str], seed: int) -> Predictor:
    p = _Params("cart", raw, _TREE_KEYS)
    return CartPredictor(_tree_params(p))


def _build_cbr(raw: Mapping[str, str], seed: int) -> Predictor:
    p = _Params("cbr", raw, ("k", "weights"))
    return CbrPredictor(
        k=p.get_int("k", 1),
        attribute_weights=p.get_floats("weights", (1.0, 1.0, 1.0, 1.0)),
    )


def _build_svr(raw: Mapping[str, str], seed: int) -> Predictor:
    p = _Params("svr", raw, ("c", "epsilon", "gamma_rbf", "max_passes"))
    return SvrPredictor(
        C=p.get_float("c", 1.0),
        epsilon=p.get_float("epsilon", 0.1),
        gamma_rbf=p.get_float("gamma_rbf", DEFAULT_GAMMA),
        max_passes=p.get_int("max_passes", 200),
    )


def _build_fuzzy(raw: Mapping[str, str], seed: int) -> Predictor:
    p = _Params("fuzzy", raw, ("rule_file", "samples"))
    return FuzzyPredictor(
        rule_file=p.get_str("rule_file", None),
        samples=p.get_int("samples", DEFAULT_SAMPLES),
    )


def _build_genetic_fuzzy(raw: Mapping[str, str], seed: int) -> Predictor:
    p = _Params(
        "genetic_fuzzy",
        raw,
        (
            "population_size",
            "generations",
            "crossover_prob",
            "mutation_prob",
            "elitism_count",
            "samples",
        ),
    )
    cfg = GAConfig(
        population_size=p.get_int("population_size", 63),
        generations=p.get_int("generations", 200),
        crossover_prob=p.get_float("crossover_prob", 0.7),
        mutation_prob=p.get_float("mutation_prob", 0.01),
        elitism_count=p.get_int("elitism_count", 2),
        samples=p.get_int("samples", DEFAULT_SAMPLES),
        seed=seed,
    )
    return GeneticFuzzyPredictor(cfg)


MODEL_REGISTRY: dict[str, ModelInfo] = {
    info.model_id: info
    for info in (
        ModelInfo(
            "regularized_boosting",
            "Regularized tree boosting (XGBoost-style)",
            "ensemble",
            _build_regularized_boosting,
        ),
        ModelInfo(
            "sqrt_regression",
            "Sqrt-transformed regression (quadratic)",
            "transformed regression",
            _regression_builder(LinearTransform.SQRT),
        ),
        ModelInfo(
            "plain_regression",
            "Linear regression",
            "transformed regression",
            _regression_builder(LinearTransform.PLAIN),
        ),
        ModelInfo(
            "log_regression",
            "Log-transformed regression (semilog)",
            "transformed regression",
            _regression_builder(LinearTransform.LOG),
        ),
        ModelInfo(
            "reciprocal_regression",
            "Reciprocal-transformed regression",
            "transformed regression",
            _regression_builder(LinearTransform.RECIPROCAL),
        ),
        ModelInfo(
            "square_regression",
            "Squared-target regression (power 2)",
            "transformed regression",
            _regression_builder(LinearTransform.SQUARE),
        ),
        ModelInfo(
            "plain_mlp",
            "Perceptron 4-5-1 (tanh)",
            "neural network",
            _mlp_builder("plain_mlp", TargetTransform.NONE),
        ),
        ModelInfo(
            "sqrt_mlp",
            "Perceptron 4-5-1 on sqrt cost",
            "neural network",
            _mlp_builder("sqrt_mlp", TargetTransform.SQRT),
        ),
        ModelInfo(
            "log_mlp",
            "Perceptron 4-5-1 on log cost",
            "neural network",
            _mlp_builder("log_mlp", TargetTransform.NATURAL_LOG),
        ),
        ModelInfo("dnn", "Deep network 4-100-100-100-1 (ReLU)", "neural network", _build_dnn),
        ModelInfo("cart", "CART regression tree", "decision tree", _build_cart),
        ModelInfo(
            "bagging",
            "Bagged trees",
            "ensemble",
            _forest_builder("bagging", "fit_bagging"),
        ),
        ModelInfo(
            "random_forest",
            "Random forest",
            "ensemble",
            _forest_builder("random_forest", "fit_random_forest"),
        ),
        ModelInfo(
            "extra_trees",
            "Extremely randomized trees",
            "ensemble",
            _forest_builder("extra_trees", "fit_extra_trees"),
        ),
        ModelInfo(
            "adaboost_r2",
            "AdaBoost.R2",
            "ensemble",
            _forest_builder("adaboost_r2", "fit_adaboost_r2"),
        ),
        ModelInfo(
            "sgb",
            "Stochastic gradient boosting",
            "ensemble",
            _build_sgb,
        ),
        ModelInfo(
            "genetic_fuzzy",
            "GA-evolved fuzzy rules",
            "hybrid fuzzy",
            _build_genetic_fuzzy,
        ),
        ModelInfo("cbr", "Case-based reasoning", "case-based", _build_cbr),
        ModelInfo("svr", "Support vector regression (RBF)", "kernel", _build_svr),
        ModelInfo("fuzzy", "Mamdani fuzzy inference", "fuzzy", _build_fuzzy),
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
    try:
        return info.build(params, seed)
    except ValueError as exc:
        raise ConfigError(f"model {model_id!r}: {exc}") from exc
