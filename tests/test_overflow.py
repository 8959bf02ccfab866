"""An overflow that the code already handles prints no numpy warning.

A transform inverse that overflows leaves inf to the finite check, which
names the non-finite cost; an RBF distance that overflows gives the kernel's
limit, 0; a noise percentage whose doubled width overflows is one error
line. Every test here turns warnings into errors, so a numpy
``RuntimeWarning`` fails it.
"""

import numpy as np
import pytest

from costlab.cli import main as cli_main
from costlab.core import TargetTransform
from costlab.svr import kernel_matrix

pytestmark = pytest.mark.filterwarnings("error")

# an area served so large that its standardized square overflows
OVERFLOW_POINT = ["--p1", "1e160", "--p2", "1000", "--p3", "10", "--p4", "2013"]


def test_sqrt_inverse_overflows_to_inf():
    out = TargetTransform.SQRT.inverse(np.array([3.0, 1e160]))
    assert out.tolist() == [9.0, np.inf]


def test_reciprocal_inverse_overflows_to_inf():
    out = TargetTransform.RECIPROCAL.inverse(np.array([1e-320, 0.5]))
    assert out.tolist() == [np.inf, 2.0]


def test_kernel_of_an_infinite_distance_is_zero():
    A = np.array([[1e160, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    K = kernel_matrix(A, np.zeros((1, 4)), 0.25)
    assert K.tolist() == [[0.0], [1.0]]


def _predict(model_id, capsys):
    code = cli_main(["predict", "--seed", "42", "--model", model_id, *OVERFLOW_POINT])
    return code, capsys.readouterr()


def test_overflowing_sqrt_quote_writes_only_the_error(capsys):
    code, captured = _predict("sqrt_regression", capsys)
    assert code == 1 and captured.out == ""
    assert captured.err == "error: NONCONVERGENCE: sqrt_regression: non-finite prediction inf\n"


def test_overflowing_svr_distance_quotes_silently(capsys):
    code, captured = _predict("svr", capsys)
    assert code == 0 and captured.err == ""
    assert "predicted cost: 1237719.41\n" in captured.out


NOISE_RULE = (
    "noise_pct must be at most 8.988465674311579e+307 so the noise's doubled width is finite, "
    "got 1e+308"
)


@pytest.mark.parametrize("command", ["generate", "bench"])
def test_a_noise_whose_doubled_width_overflows_is_one_error_line(command, tmp_path, capsys):
    out = tmp_path / "projects.csv"
    config = tmp_path / "noise.ini"
    config.write_text("[data]\nnoise_pct = 1e308\n")
    if command == "generate":
        args, err = ["generate", "--n", "5", "--noise-pct", "1e308", "--out", str(out)], "VALUE_ERROR:"
    else:
        args, err = ["bench", "--config", str(config)], "CONFIG_ERROR: [data]"
    assert cli_main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err} {NOISE_RULE}\n"
    assert not out.exists()
