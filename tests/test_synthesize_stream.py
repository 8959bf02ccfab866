"""``data.synthesize`` draws in blocks and gives the records, bits and errors of
the generator that draws one record at a time (``tests/oracles.py``)."""

import hashlib

import numpy as np
import pytest

from costlab.cli import main as cli_main
from costlab.data import SYNTH_RANGES, generator_sqrt_value, synthesize
from costlab.errors import RangeExhaustedError
from oracles import generator_sqrt_value_scalar, synthesize_one_draw_at_a_time

# about half of this box's draws have a nonpositive sqrt-domain value
HALF_REJECTED = ((20.0, 300.0), (200.0, 3000.0), (5.0, 60.0), (1945.0, 1965.0))
# about 1 draw in 690 is accepted, so runs of rejections span many small blocks
# and some reach the limit only when counted across them
MOSTLY_REJECTED = ((20.0, 300.0), (200.0, 3000.0), (5.0, 60.0), (1600.0, 1938.0))
# every draw is rejected
ALL_REJECTED = ((20.0, 300.0), (200.0, 3000.0), (5.0, 60.0), (1900.0, 1901.0))

SEEDS = range(40)


def outcome(make, n, seed, noise_pct, ranges):
    """Each record's id, drivers and cost as hex strings, or the error's text."""
    try:
        dataset = make(n, seed, noise_pct, ranges)
    except RangeExhaustedError as exc:
        return str(exc)
    return [
        (rec.id, tuple(v.hex() for v in rec.features.as_tuple()), rec.cost_le.hex())
        for rec in dataset
    ]


def check_seeds(sizes, noise_pct, ranges):
    """Compare the two generators on every seed, cycling through ``sizes``;
    returns the outcomes."""
    outcomes = []
    for seed in SEEDS:
        n = sizes[seed % len(sizes)]
        got = outcome(synthesize, n, seed, noise_pct, ranges)
        expected = outcome(synthesize_one_draw_at_a_time, n, seed, noise_pct, ranges)
        assert got == expected, (n, seed, noise_pct)
        outcomes.append(got)
    return outcomes


# noise 100 and above can give a factor <= 0, which is rejected
@pytest.mark.parametrize("noise_pct", [0.0, 5.0, 100.0, 180.0])
def test_default_box_matches_the_one_draw_generator(noise_pct):
    check_seeds((1, 2, 33, 144, 400, 1000), noise_pct, SYNTH_RANGES)


@pytest.mark.parametrize("noise_pct", [0.0, 5.0, 180.0])
def test_half_rejected_box_matches_the_one_draw_generator(noise_pct):
    check_seeds((1, 7, 144, 1000), noise_pct, HALF_REJECTED)


def test_rejection_runs_count_across_blocks():
    raised = [isinstance(got, str) for got in check_seeds((1, 3, 6, 40), 5.0, MOSTLY_REJECTED)]
    assert any(raised) and not all(raised)  # both outcomes are compared


@pytest.mark.parametrize("n", [1, 999, 1000, 2500])
def test_all_rejected_box_raises_the_one_draw_generators_error(n):
    message = outcome(synthesize_one_draw_at_a_time, n, 0, 0.0, ALL_REJECTED)
    assert message == (
        "rejected 1000 consecutive draws; ranges produce no positive sqrt-domain value"
    )
    with pytest.raises(RangeExhaustedError) as info:
        synthesize(n, 0, 0.0, ALL_REJECTED)
    assert str(info.value) == message


def test_rowwise_sqrt_value_matches_the_scalar_sum():
    rng = np.random.default_rng(3)
    lows = np.array([lo for lo, _ in HALF_REJECTED])
    highs = np.array([hi for _, hi in SYNTH_RANGES])
    X = rng.uniform(lows, highs, size=(500, 4))
    rows = generator_sqrt_value(X)
    assert rows.shape == (500,)
    for row, value in zip(X, rows):
        expected = generator_sqrt_value_scalar(row)
        assert value.hex() == expected.hex()
        assert generator_sqrt_value(row).hex() == expected.hex()
    assert isinstance(generator_sqrt_value((100.0, 1000.0, 10.0, 2013.0)), float)


# sha256 of the files `costlab generate` wrote before the generator drew in blocks
GENERATED_SHA256 = {
    ("144", "42", "5"): "93577020766ad3265df7287ec25aee0c8ed6ef58dc2f8b8a746cf390affd65ac",
    ("400", "7", "150"): "16810788b736233e225afb5b2c990e7f4f12b56c4d018ca3cd103da0f15e9d28",
}


@pytest.mark.parametrize("n, seed, noise_pct", GENERATED_SHA256)
def test_generated_files_are_unchanged(n, seed, noise_pct, tmp_path, capsys):
    out = tmp_path / "projects.csv"
    args = ["generate", "--n", n, "--seed", seed, "--noise-pct", noise_pct, "--out", str(out)]
    assert cli_main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATED_SHA256[n, seed, noise_pct]
