"""The two workloads, the estimator and the correctness checks.

Everything here drives costlab through its public functions: ``run_bench``,
``render`` and ``write_outputs`` from ``costlab.bench``, ``synthesize`` and
``split`` from ``costlab.data``, ``build_model`` from ``costlab.zoo``, and
``Predictor.predict`` / ``predict_many`` on the fitted models.

Timings use one estimator throughout. A unit (one model's fit, one model's
batch call, one project's quote, render, write_outputs) is timed once per
interleaved pass or round. Between units a fixed reference workload that
costlab does not run is timed (``Reference``); each pass or round scales its
unit times by the reference's median time in that pass or round, so a host
that runs everything 1.7x slower for minutes moves the reference with the
units. Each unit keeps its median scaled time over the passes or rounds, and
the medians are summed. The leaderboard runs with every iteration count
divided by ``SCALE``: the same rows, split, models and tree and network
shapes, with fits short enough to time each one many times per run.
"""

from __future__ import annotations

import importlib
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import BOUNDARIES, ENSEMBLE_FITS, Tracer

WORKLOADS = ("leaderboard", "scoring")
MIN_ROUNDS = 5  # measured rounds per run at least, however short --seconds is
# reported by name and unit but not bounded: both are exact for a seed and
# move with the seed's data, not with the program's speed
REPORT_ONLY = ("median_mape_pct", "error_rate")


# Every iteration count of the default leaderboard divided by SCALE: members
# and boosting rounds 100 -> 10, GA generations 200 -> 20, epochs 3000 -> 300
# (MLPs) and 1000 -> 100 (DNN). Data, split, tree depth, network shapes and
# every other hyperparameter stay at their defaults.
SCALE = 10
SCALED_PARAMS = {
    **{m: {"n_members": str(100 // SCALE)} for m in ("bagging", "random_forest", "extra_trees", "adaboost_r2")},
    **{m: {"n_rounds": str(100 // SCALE)} for m in ("sgb", "regularized_boosting")},
    **{m: {"epochs": str(3000 // SCALE)} for m in ("plain_mlp", "sqrt_mlp", "log_mlp")},
    "dnn": {"epochs": str(1000 // SCALE)},
    "genetic_fuzzy": {"generations": str(200 // SCALE)},
}


@dataclass(frozen=True)
class Plan:
    """How much work one run does."""

    portfolio_n: int  # projects priced per batch call
    setup_passes: int  # leaderboard passes in set-up; they fit the zoo that is priced
    passes_per_round: int  # leaderboard passes in each measured round
    setup_repeats: int = 21  # set-ups per run; setup_s is their median
    quoted: int = 200  # projects quoted each round, the portfolio's first ones
    seconds: float = 30.0  # measured rounds continue until this much time has passed
    config: dict = field(default_factory=lambda: {"model_params": SCALED_PARAMS})  # BenchConfig fields


PLANS = {
    # every round is one leaderboard pass, then a small portfolio is priced
    "leaderboard": Plan(portfolio_n=200, setup_passes=0, passes_per_round=1),
    # five leaderboard passes are set-up (they fit the zoo); only pricing is measured
    "scoring": Plan(portfolio_n=400, setup_passes=5, passes_per_round=0),
}


class Failures:
    """Operations attempted and failed, and the correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.coded = 0  # documented CostLabError outcomes, e.g. NEGATIVE_SQRT_DOMAIN
        self.unexpected = 0  # any other exception
        self.checks: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def failed_checks(self) -> int:
        return sum(1 for _, ok, _ in self.checks if not ok)

    @property
    def failed(self) -> int:
        return self.unexpected + self.failed_checks

    @property
    def error_rate(self) -> float:
        return (self.coded + self.failed) / self.attempted


class Reference:
    """A fixed workload outside costlab, timed between the units of a run.

    On a shared virtual machine the host can run everything 1.7x slower for
    minutes at a time, longer than a run; the fastest of a few samples does
    not escape that. The reference is timed between units, so the median of
    its times in a pass or round says how fast the host ran that pass or
    round. ``scale`` turns a unit time into the time at the host speed where
    the reference takes ``NOMINAL_S``. The work mixes what costlab's time
    goes to: a pure-Python loop, small numpy calls and sweeps over
    (rules x samples) arrays like the fuzzy systems'.
    """

    NOMINAL_S = 1.6e-3  # the reference's median time between units on a quiet host (NOTES.md)

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.grid = rng.random((110, 1001))
        self.cut = rng.random(1001)
        self.rows = rng.random((600, 4))
        self.weights = rng.random(4)
        self.times: list[float] = []

    def _work(self) -> float:
        total = 0
        for i in range(8000):
            total += i * i
        for row in self.rows:
            total += float(np.dot(row, self.weights))
        for _ in range(4):
            total += float(np.minimum(self.grid, self.cut).max(axis=1).sum())
        return total

    def tick(self) -> None:
        start = time.perf_counter()
        self._work()
        self.times.append(time.perf_counter() - start)

    def mark(self) -> int:
        return len(self.times)

    def scale(self, mark: int) -> float:
        """NOMINAL_S over the median reference time since ``mark``."""
        return self.NOMINAL_S / statistics.median(self.times[mark:])


class Lab:
    """The costlab modules of one fresh import."""

    def __init__(self) -> None:
        for name in ("bench", "core", "data", "errors", "metrics", "zoo"):
            setattr(self, name, sys.modules[f"costlab.{name}"])


def import_costlab(src_dir: str) -> tuple[Lab, float]:
    """Import costlab afresh from ``src_dir``; returns the modules and seconds."""
    for key in [k for k in sys.modules if k == "costlab" or k.startswith("costlab.")]:
        del sys.modules[key]
    start = time.perf_counter()
    package = importlib.import_module("costlab")
    elapsed = time.perf_counter() - start
    if not os.path.abspath(package.__file__).startswith(os.path.join(src_dir, "")):
        raise ImportError(f"costlab imported from {package.__file__}, not from {src_dir}")
    return Lab(), elapsed


@dataclass
class Setup:
    lab: Lab
    cfg: object  # costlab.bench.BenchConfig
    seconds: float


def set_up(src_dir: str, seed: int, plan: Plan) -> Setup:
    """Import, config, synthesize and split, and build_model for every model."""
    lab, import_s = import_costlab(src_dir)
    start = time.perf_counter()
    derive = lab.bench.derive_seed
    cfg = lab.bench.BenchConfig(**plan.config)
    dataset = lab.data.synthesize(cfg.n, seed=derive(seed, "data"), noise_pct=cfg.noise_pct)
    spec = lab.data.SplitSpec(
        train_fraction=cfg.train_fraction,
        train_count=cfg.train_count,
        seed=derive(seed, "split"),
    )
    lab.data.split(dataset, spec)
    for model_id in cfg.enabled:
        lab.zoo.build_model(model_id, cfg.model_params.get(model_id, {}), derive(seed, model_id))
    return Setup(lab, cfg, import_s + time.perf_counter() - start)


@dataclass
class LeaderboardPass:
    fit_s: dict[str, float]  # Predictor.fit alone
    model_s: dict[str, float]  # fit, evaluate and prediction dump of one model
    render_s: float
    write_s: float
    scale: float  # Reference.scale over the pass
    result: object  # costlab.bench.BenchResult
    predictors: dict[str, object]  # the fitted models by model id; empty unless kept

    @property
    def seconds(self) -> float:
        return sum(self.model_s.values()) + self.render_s + self.write_s


def leaderboard_pass(
    setup: Setup,
    seed: int,
    out_dir: str,
    keep_models: bool,
    reference: Reference,
    tracer: Tracer | None = None,
) -> LeaderboardPass:
    """One ``costlab bench --out DIR`` on the set-up's config: run_bench, render, write_outputs.

    run_bench fits the models one after another in ``cfg.enabled`` order. A
    hook on ``Predictor.fit`` notes when each fit starts and ends, times the
    reference just before each fit (outside every unit) and, with
    ``keep_models``, keeps the fitted instance. So the pass splits into
    per-model time, fit through evaluate and prediction dump, without any
    change to run_bench.
    """
    lab, order = setup.lab, list(setup.cfg.enabled)
    predictor_cls = lab.core.Predictor
    inner_fit = predictor_cls.fit
    starts: list[float] = []
    ends: list[float] = []
    previous_done: list[float] = []  # when the previous model's unit ended
    fitted: dict[str, object] = {}
    mark = reference.mark()

    def recording_fit(self, train):
        previous_done.append(time.perf_counter())
        reference.tick()
        model_id = order[len(starts)]
        if keep_models:
            fitted[model_id] = self
        if tracer is not None:
            tracer.new_trace(model_id)
        starts.append(time.perf_counter())
        try:
            return inner_fit(self, train)
        finally:
            ends.append(time.perf_counter())

    predictor_cls.fit = recording_fit
    try:
        result = lab.bench.run_bench(setup.cfg, seed)
        done = time.perf_counter()
    finally:
        predictor_cls.fit = inner_fit
    if len(starts) != len(order):
        raise RuntimeError(f"run_bench fit {len(starts)} models, expected {len(order)}")
    unit_ends = previous_done[1:] + [done]
    model_s = {m: unit_ends[i] - starts[i] for i, m in enumerate(order)}
    fit_s = {m: ends[i] - starts[i] for i, m in enumerate(order)}
    if tracer is not None:
        tracer.new_trace("-")
    start = time.perf_counter()
    lab.bench.render(result)
    rendered = time.perf_counter()
    lab.bench.write_outputs(result, out_dir)
    written = time.perf_counter()
    reference.tick()
    return LeaderboardPass(
        fit_s, model_s, rendered - start, written - rendered, reference.scale(mark), result, fitted
    )


def median_sum(per_round: list[dict], scales: list[float]) -> float:
    """Sum over units of each unit's median scaled time across rounds."""
    return sum(
        statistics.median(r[unit] * s for r, s in zip(per_round, scales)) for unit in per_round[0]
    )


def leaderboard_seconds(passes: list[LeaderboardPass], scaled: bool = True) -> float:
    scales = [p.scale if scaled else 1.0 for p in passes]
    return (
        median_sum([p.model_s for p in passes], scales)
        + statistics.median(p.render_s * s for p, s in zip(passes, scales))
        + statistics.median(p.write_s * s for p, s in zip(passes, scales))
    )


def same_files(dir_a: str, dir_b: str) -> tuple[bool, str]:
    names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    if names_a != names_b:
        return False, f"file lists differ: {names_a} vs {names_b}"
    for name in names_a:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False, f"{name} differs"
    return True, f"{len(names_a)} files"


class Leaderboard:
    """Runs leaderboard passes, counts their operations, compares their outputs.

    The first pass keeps its fitted models (they are the ones priced) and its
    output directory; every later pass's output must be byte-identical to it
    and is deleted once compared.
    """

    def __init__(
        self, setup: Setup, seed: int, work_dir: str, failures: Failures, reference: Reference
    ) -> None:
        self.setup, self.seed, self.work_dir = setup, seed, work_dir
        self.failures, self.reference = failures, reference
        self.passes: list[LeaderboardPass] = []
        self.differences: list[str] = []
        self.files = ""

    def run(self, tracer: Tracer | None = None) -> LeaderboardPass:
        first = not self.passes
        out_dir = os.path.join(self.work_dir, "first" if first else "next")
        if tracer is not None:
            with tracer.installed():
                p = leaderboard_pass(self.setup, self.seed, out_dir, first, self.reference, tracer)
        else:
            p = leaderboard_pass(self.setup, self.seed, out_dir, first, self.reference)
        self.failures.attempted += len(p.result.rows)
        self.failures.coded += sum(1 for row in p.result.rows if row.report is None)
        if not first:
            ok, self.files = same_files(os.path.join(self.work_dir, "first"), out_dir)
            if not ok:
                self.differences.append(f"pass {len(self.passes)}: {self.files}")
            shutil.rmtree(out_dir)
        self.passes.append(p)
        return p

    def finish(self) -> None:
        """Checks write_outputs across passes and removes the output directory."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.failures.check(
            "write_outputs byte-identical across passes",
            len(self.passes) > 1 and not self.differences,
            "; ".join([f"{len(self.passes)} passes, {self.files}", *self.differences]),
        )


@dataclass
class Pricing:
    """Batch and quote measurements on one portfolio."""

    rows: object  # costlab.data.Dataset
    batch_s: list[dict[str, float]] = field(default_factory=list)  # per round: model -> s
    reports: dict[str, object] = field(default_factory=dict)  # model -> EvalReport
    quote_s: list[dict[int, float]] = field(default_factory=list)  # per round: row -> s
    scales: list[float] = field(default_factory=list)  # per round: Reference.scale
    scalar: dict[str, dict[int, float]] = field(default_factory=dict)  # model -> row -> price

    def quote_ms(self, scaled: bool = True) -> list[float]:
        """Each quoted project's median (scaled) quote over the rounds, in ms."""
        scales = self.scales if scaled else [1.0] * len(self.scales)
        return [
            statistics.median(r[i] * s for r, s in zip(self.quote_s, scales)) * 1e3
            for i in self.quote_s[0]
        ]


def _attempt(failures: Failures, lab: Lab, call, *args):
    """Run one operation; (value, True) on success, (None, False) on failure."""
    failures.attempted += 1
    try:
        return call(*args), True
    except lab.errors.CostLabError:
        failures.coded += 1
    except Exception:  # a crash of one model must not end the measurement
        failures.unexpected += 1
        traceback.print_exc()
    return None, False


def price_round(
    lab: Lab,
    predictors: dict[str, object],
    out: Pricing,
    quoted: int,
    failures: Failures,
    reference: Reference,
    tracer: Tracer | None = None,
) -> None:
    """One round of the closed loop with one client: a batch pass, then the quotes.

    The batch pass scores every model on the whole portfolio with
    ``evaluate`` (``predict_many`` plus MAPE and R2). A quote prices one
    project with every model through scalar ``predict``; every round quotes
    the portfolio's first ``quoted`` projects. The reference is timed after
    each batch call and after every tenth quote.
    """
    mark = reference.mark()
    batch = {}
    for model_id, predictor in predictors.items():
        if tracer is not None:
            tracer.new_trace(model_id)
        start = time.perf_counter()
        report, ok = _attempt(failures, lab, lab.core.evaluate, predictor, out.rows, model_id)
        batch[model_id] = time.perf_counter() - start
        reference.tick()
        if ok:
            out.reports[model_id] = report
    latency = {}
    for i, rec in enumerate(list(out.rows)[:quoted]):
        if tracer is not None:
            tracer.new_trace("quote")
        start = time.perf_counter()
        for model_id, predictor in predictors.items():
            if tracer is not None:
                tracer.model = model_id
            value, ok = _attempt(failures, lab, predictor.predict, rec.features)
            if ok:
                out.scalar.setdefault(model_id, {})[i] = value
        latency[i] = time.perf_counter() - start
        if i % 10 == 9:
            reference.tick()
    out.batch_s.append(batch)
    out.quote_s.append(latency)
    out.scales.append(reference.scale(mark))


def check_batch_matches_scalar(predictors, pricing: Pricing, failures: Failures) -> None:
    """predict_many(rows)[i] must equal predict(row i) bit for bit.

    Runs after the timed loop. Every model that scored the portfolio is
    checked on every row; rows the quotes did not reach are priced here.
    """
    records = list(pricing.rows)
    mismatched = []
    for model_id in pricing.reports:
        predictor = predictors[model_id]
        batch = predictor.predict_many(pricing.rows)
        scalar = pricing.scalar.setdefault(model_id, {})
        single = np.array(
            [scalar[i] if i in scalar else predictor.predict(rec.features) for i, rec in enumerate(records)],
            dtype=float,
        )
        if not np.array_equal(batch.view(np.uint64), single.view(np.uint64)):
            mismatched.append(model_id)
    failures.check(
        "predict_many equals scalar predict bit for bit",
        not mismatched,
        f"{len(pricing.reports)} scoring models x {len(records)} rows"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    notes: list[str]  # human-readable report lines
    failures: Failures
    tracer: Tracer | None = None


def timings(
    workload: str,
    setup_s: float,
    passes: list[LeaderboardPass],
    pricing: Pricing,
    n_rows: int,
    scaled: bool,
) -> dict[str, float]:
    """The timed end-to-end metrics, scaled by the reference or as measured."""
    batch_s = median_sum(pricing.batch_s, pricing.scales if scaled else [1.0] * len(pricing.scales))
    quote_ms = pricing.quote_ms(scaled)
    if workload == "leaderboard":
        board_s = leaderboard_seconds(passes, scaled)
    else:
        setup_s += median_sum([p.fit_s for p in passes], [p.scale if scaled else 1.0 for p in passes])
        board_s = batch_s
    return {
        "setup_s": setup_s,
        "leaderboard_s": board_s,
        "portfolio_rows_per_s": n_rows / batch_s,
        "quote_p50_ms": float(np.percentile(quote_ms, 50)),
        "quote_p95_ms": float(np.percentile(quote_ms, 95)),
    }


def run_workload(
    workload: str, seed: int, src_dir: str, work_dir: str, plan: Plan, trace: bool
) -> Outcome:
    """Measure one workload.

    Untraced: ``plan.setup_passes`` leaderboard passes, then measured rounds
    until ``plan.seconds`` have passed (at least ``MIN_ROUNDS``), each
    ``plan.passes_per_round`` leaderboard passes followed by one pricing
    round of the first pass's models.

    Traced: two untraced and one traced leaderboard pass, then one traced
    pricing round: a fixed amount of work, so its call counts repeat exactly
    for a seed. Its end-to-end numbers are not comparable with an untraced
    run's.
    """
    failures = Failures()
    notes: list[str] = []
    reference = Reference()
    setup_times = []
    for _ in range(plan.setup_repeats):  # each a fresh import; only the last is kept
        setup = set_up(src_dir, seed, plan)
        setup_times.append(setup.seconds)
        reference.tick()
    lab, cfg = setup.lab, setup.cfg
    n_models = len(cfg.enabled)
    start = time.perf_counter()
    rows = lab.data.synthesize(
        plan.portfolio_n, seed=lab.bench.derive_seed(seed, "portfolio"), noise_pct=cfg.noise_pct
    )
    portfolio_s = time.perf_counter() - start
    setup_scale = reference.scale(0)

    tracer = Tracer() if trace else None
    board = Leaderboard(setup, seed, work_dir, failures, reference)
    pricing = Pricing(rows)
    try:
        if tracer is not None:
            untraced = [board.run(), board.run()]  # the first also warms up
            traced = board.run(tracer)
            with tracer.installed():
                before = dict(tracer.counters)
                price_round(lab, board.passes[0].predictors, pricing, plan.quoted, failures, reference, tracer)
                fallback = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
        else:
            for _ in range(plan.setup_passes):
                board.run()
            deadline = time.perf_counter() + plan.seconds
            while len(pricing.batch_s) < MIN_ROUNDS or time.perf_counter() < deadline:
                for _ in range(plan.passes_per_round):
                    board.run()
                price_round(lab, board.passes[0].predictors, pricing, plan.quoted, failures, reference)
    finally:
        board.finish()

    passes = board.passes
    predictors = passes[0].predictors
    result = passes[0].result
    board_mapes = [row.report.mape_pct for row in result.rows if row.report is not None]
    errors = [f"{row.model_id} ({row.error.split(':')[0]})" for row in result.rows if row.report is None]
    notes.append(f"leaderboard error rows: {', '.join(errors) or 'none'}")
    check_batch_matches_scalar(predictors, pricing, failures)
    portfolio_mapes = [r.mape_pct for r in pricing.reports.values()]
    for name, mapes in (("leaderboard", board_mapes), ("portfolio", portfolio_mapes)):
        failures.check(
            f"every {name} MAPE is finite",
            all(math.isfinite(v) for v in mapes),
            f"{len(mapes)} scored models",
        )

    setup_s = statistics.median(setup_times) + portfolio_s
    scaled = timings(workload, setup_s * setup_scale, passes, pricing, len(rows), scaled=True)
    measured = timings(workload, setup_s, passes, pricing, len(rows), scaled=False)
    mapes = board_mapes if workload == "leaderboard" else portfolio_mapes
    metrics = {name: (value, "ms" if name.endswith("_ms") else "rows/s" if name.endswith("_per_s") else "s")
               for name, value in scaled.items()}
    metrics.update({
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "median_mape_pct": (statistics.median(mapes), "%"),
        "error_rate": (failures.error_rate, "ratio"),
    })
    rounds = len(pricing.batch_s)
    setup_note = (
        f"setup_s: median of {plan.setup_repeats} set-ups (import, config, synthesize, split, "
        f"build_model x {n_models}) + portfolio synthesize"
    )
    if workload == "leaderboard":
        notes += [
            setup_note,
            f"leaderboard_s: sum over {n_models} models of median fit+evaluate of {len(passes)} passes, + median render + median write_outputs",
        ]
    else:
        notes += [
            f"{setup_note} + sum over {n_models} models of median fit of {len(passes)} passes",
            f"leaderboard_s: the portfolio leaderboard, sum over {n_models} models of median evaluate(portfolio) of {rounds} rounds",
        ]
    notes += [
        f"portfolio_rows_per_s: {len(rows)} projects / sum over {n_models} models of median evaluate(portfolio) of {rounds} rounds",
        f"quote_*_ms: {len(pricing.quote_s[0])} projects, each its median of {rounds} quotes; a quote prices one project with {n_models} models (closed loop, 1 client)",
        f"median_mape_pct: median over {len(mapes)} scored models ({'test split' if workload == 'leaderboard' else 'portfolio true costs'})",
        f"error_rate: {failures.coded} coded errors + {failures.unexpected} unexpected + {failures.failed_checks} failed checks over {failures.attempted} operations",
        f"reference: {len(reference.times)} samples, median {statistics.median(reference.times) * 1e3:.4f} ms, "
        f"fastest {min(reference.times) * 1e3:.4f} ms; timings are scaled to {Reference.NOMINAL_S * 1e3} ms per reference, "
        f"per pass or round; as measured: " + " ".join(f"{k}={v!r}" for k, v in measured.items()),
    ]
    if tracer is not None:
        untraced_s = min(p.seconds * p.scale for p in untraced)
        traced_s = traced.seconds * traced.scale
        metrics.update(layer_metrics(tracer, predictors, fallback, traced_s - untraced_s))
        notes.append(
            f"trace overhead: traced pass {traced_s:.3f} s - faster of 2 untraced passes {untraced_s:.3f} s, "
            "both scaled by the reference"
        )
        cold = [b.name for b in BOUNDARIES if tracer.calls.get(b.name, 0) == 0]
        failures.check(
            "every traced boundary recorded calls",
            not cold,
            f"cold: {cold}" if cold else f"{len(BOUNDARIES)} boundaries",
        )
    return Outcome(metrics, notes, failures, tracer)


def layer_metrics(tracer: Tracer, predictors, fallback, overhead_s: float) -> dict[str, tuple[float, str]]:
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    out: dict[str, tuple[float, str]] = {}

    def count(name, key):
        out[name] = (calls.get(key, 0), "count")

    def self_time(name, key):
        out[name] = (self_s.get(key, 0.0), "s")

    for fn in ("best_split", "grow", "predict_tree"):
        count(f"cart.{fn}.calls", f"cart.{fn}")
        self_time(f"cart.{fn}.self_s", f"cart.{fn}")
    count("ensemble.split_gain.calls", "ensemble.split_gain")
    out["ensemble.fit.self_s"] = (sum(self_s.get(f"ensemble.{fn}", 0.0) for fn in ENSEMBLE_FITS), "s")
    count("ensemble.EnsembleModel.predict.calls", "ensemble.EnsembleModel.predict")
    self_time("ensemble.EnsembleModel.predict.self_s", "ensemble.EnsembleModel.predict")
    count("neural.gradients.calls", "neural.gradients")
    self_time("neural.gradients.self_s", "neural.gradients")
    count("neural.forward.calls", "neural.forward")
    count("fuzzy.FuzzyEngine.centroids.calls", "fuzzy.FuzzyEngine.centroids")
    self_time("fuzzy.FuzzyEngine.centroids.self_s", "fuzzy.FuzzyEngine.centroids")
    self_time("fuzzy.FuzzyEngine.strengths.self_s", "fuzzy.FuzzyEngine.strengths")
    count("fuzzy.infer_detail.calls", "fuzzy.infer_detail")
    self_time("fuzzy.infer_detail.self_s", "fuzzy.infer_detail")
    for model_id in ("fuzzy", "genetic_fuzzy"):
        attempts = fallback.get(f"fallback_attempts.{model_id}", 0)
        out[f"fuzzy.fallback_frac.{model_id}"] = (
            fallback.get(f"fallbacks.{model_id}", 0) / attempts if attempts else 0.0,
            "ratio",
        )
    self_time("genetic_fuzzy.evolve.self_s", "genetic_fuzzy.evolve")
    history = predictors["genetic_fuzzy"].history  # one entry per generation, plus the initial one
    out["genetic_fuzzy.generation_s"] = (total_s.get("genetic_fuzzy.evolve", 0.0) / len(history), "s")
    self_time("svr.fit_svr.self_s", "svr.fit_svr")
    count("svr.kernel_matrix.calls", "svr.kernel_matrix")
    svr = predictors["svr"].model
    out["svr.n_updates"] = (svr.n_updates, "count")
    out["svr.converged"] = (int(svr.converged), "bool")
    count("cbr.retrieve_and_predict.calls", "cbr.retrieve_and_predict")
    self_time("cbr.retrieve_and_predict.self_s", "cbr.retrieve_and_predict")
    count("cbr.case_similarity.calls", "cbr.case_similarity")
    self_time("regression.fit_ols.self_s", "regression.fit_ols")
    self_time("data.synthesize.self_s", "data.synthesize")
    self_time("data.split.self_s", "data.split")
    count("core.predict.calls", "core.Predictor.predict")
    self_time("core.predict.self_s", "core.Predictor.predict")
    for model_id in predictors:
        out[f"core.fit_s.{model_id}"] = (total_s.get(f"core.Predictor.fit.{model_id}", 0.0), "s")
    for model_id in predictors:
        out[f"core.predict_many_s.{model_id}"] = (
            total_s.get(f"core.Predictor.predict_many.{model_id}", 0.0), "s"
        )
    self_time("bench.render.self_s", "bench.render")
    self_time("bench.write_outputs.self_s", "bench.write_outputs")
    out["bench.write_outputs.bytes"] = (tracer.counters.get("bench.write_outputs.bytes", 0), "B")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
