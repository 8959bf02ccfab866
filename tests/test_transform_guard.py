"""Bit-for-bit guard on the families fit in a transformed target space.

Each case fits one zoo model on the default bench's seed-42 training side and
compares its predictions on the 33 test rows, as ``float.hex`` strings, with
pinned values: the four fitted regressions, the frozen quadratic baseline and
the three perceptrons (at 300 epochs, so the file runs in well under a
second). ``square_regression``'s leaderboard error is pinned word for word. A
change to the target transforms, the least-squares fit, the network's scaling
or the order of the inverse and the finite check changes at least one bit.

The file also checks that each model holds the target transform its id names,
and that a sqrt-space network rejects a negative root as the regressions do.
"""

import numpy as np
import pytest

from costlab.bench import BenchConfig, _train_test, derive_seed, run_bench
from costlab.errors import NegativeSqrtDomainError, NonconvergenceError
from costlab.zoo import MODEL_REGISTRY, build_model

SEED = 42
NET = {"epochs": "300"}

CASES = {
    "plain_regression": {},
    "sqrt_regression": {},
    "log_regression": {},
    "reciprocal_regression": {},
    "frozen_quadratic": {},
    "plain_mlp": NET,
    "sqrt_mlp": NET,
    "log_mlp": NET,
}


def _build(model_id, params=None):
    return build_model(model_id, params or {}, derive_seed(SEED, model_id))


def predictions_hex(model_id, params):
    train, test = _train_test(BenchConfig(), SEED)
    return [float(v).hex() for v in _build(model_id, params).fit(train).predict_many(test)]


EXPECTED = {
    "plain_regression": [
        "0x1.6331ce66c5900p+18",
        "0x1.0a136600f1600p+19",
        "0x1.d8ba209befe80p+19",
        "0x1.f5a9bc6a00b80p+20",
        "0x1.337ce194a4cc0p+20",
        "0x1.629b18d33e480p+20",
        "0x1.88cbd350fab00p+19",
        "0x1.c261ae71d9700p+20",
        "0x1.7eb29f75278c0p+20",
        "0x1.632f8bb7235c0p+20",
        "0x1.f6fa80e024e00p+19",
        "0x1.52091bf5e9800p+19",
        "0x1.85ed38db7dd00p+20",
        "0x1.c66da2dd629c0p+20",
        "0x1.54dfe29d91240p+20",
        "0x1.18ec71af33800p+18",
        "0x1.c4c844b861dc0p+20",
        "0x1.d7cf2b63cba80p+19",
        "0x1.71a6f43314200p+20",
        "0x1.2bec0863be140p+20",
        "0x1.3a9a3d7223180p+20",
        "0x1.d01fc7bc41600p+17",
        "0x1.a6d04b361f140p+20",
        "0x1.31ef3c98c2b40p+20",
        "0x1.537b136893780p+19",
        "0x1.a4a31e7ad5800p+19",
        "0x1.215951e912600p+17",
        "0x1.c11d7c2dd8a80p+19",
        "0x1.8c024505a5f00p+19",
        "0x1.180970ec4c000p+20",
        "0x1.d6dc864d40d40p+20",
        "0x1.a21a354194880p+20",
        "0x1.efe7ef20e8200p+19",
    ],
    "sqrt_regression": [
        "0x1.ce3ae88e8ccaap+18",
        "0x1.1ff859c32b6e9p+19",
        "0x1.ca1b0b58b0911p+19",
        "0x1.064ba184380b6p+21",
        "0x1.25261321a246bp+20",
        "0x1.591598414cbb6p+20",
        "0x1.8612d97653682p+19",
        "0x1.c7f74e36b0738p+20",
        "0x1.799444554f11ep+20",
        "0x1.572e82e0087cfp+20",
        "0x1.de085e0a68385p+19",
        "0x1.56f801ae0e1a0p+19",
        "0x1.820fee76253bep+20",
        "0x1.ced4138b9e287p+20",
        "0x1.48115a0276159p+20",
        "0x1.9a142c5583903p+18",
        "0x1.cbb888991b443p+20",
        "0x1.c2d3a6daa781cp+19",
        "0x1.6b242c7cd4182p+20",
        "0x1.1c7c2fce73e9dp+20",
        "0x1.2f834d8728059p+20",
        "0x1.83ece0fd68325p+18",
        "0x1.a7cdc2292845dp+20",
        "0x1.2385ce760bc69p+20",
        "0x1.558e56b67749ap+19",
        "0x1.99a72dec1ac1fp+19",
        "0x1.4dd385a8738ecp+18",
        "0x1.affab047070c9p+19",
        "0x1.8837ff1ca1f34p+19",
        "0x1.0c0f00dad9f4fp+20",
        "0x1.e15ffd0d3efb7p+20",
        "0x1.a116537f96756p+20",
        "0x1.d9141cb17368dp+19",
    ],
    "log_regression": [
        "0x1.026f7429f4da8p+19",
        "0x1.2b2a1bf88866ap+19",
        "0x1.bbc7d171dee2cp+19",
        "0x1.1b2351344f00ep+21",
        "0x1.15a4325302c0fp+20",
        "0x1.4f63b5ba3f193p+20",
        "0x1.81b7b44547014p+19",
        "0x1.d31e249e18975p+20",
        "0x1.7632013c71c11p+20",
        "0x1.49cf825b44b69p+20",
        "0x1.c5b2ca89e04f9p+19",
        "0x1.56eb88d635398p+19",
        "0x1.80452734b2ca8p+20",
        "0x1.dfb5ce4b27d85p+20",
        "0x1.3a8d92d8a2332p+20",
        "0x1.d999f1232f2e2p+18",
        "0x1.d99900a5caff2p+20",
        "0x1.aed0cdf7c3fd1p+19",
        "0x1.656a35ecb00d3p+20",
        "0x1.0c0c0a1045eeap+20",
        "0x1.246bd7d0ff1a3p+20",
        "0x1.cfa0cb35c2562p+18",
        "0x1.ac549aecaf820p+20",
        "0x1.1449c64111eb1p+20",
        "0x1.538448e2e6531p+19",
        "0x1.8dade1b7bfe6fp+19",
        "0x1.a544af03e0416p+18",
        "0x1.9fdca8b1e9266p+19",
        "0x1.831cc6b0a452dp+19",
        "0x1.0022e76ef1828p+20",
        "0x1.f556e63058e72p+20",
        "0x1.a245dd6e7fdb6p+20",
        "0x1.c3987e840bb00p+19",
    ],
    "reciprocal_regression": [
        "0x1.18fdf85ade65bp+19",
        "0x1.31fea55944192p+19",
        "0x1.9ff179e21f698p+19",
        "0x1.cf87b0c82cfc9p+21",
        "0x1.e9aba43f54fe3p+19",
        "0x1.3c911968d821ep+20",
        "0x1.75ea3a6886840p+19",
        "0x1.0afbf9aa5a663p+21",
        "0x1.7ab472b46ca4dp+20",
        "0x1.2ae15a5cf8a37p+20",
        "0x1.999aeea92be82p+19",
        "0x1.4e5ca44eabd59p+19",
        "0x1.8a34bcb67f119p+20",
        "0x1.2a67d3dc30ad7p+21",
        "0x1.1edce01f5550fp+20",
        "0x1.078955c651416p+19",
        "0x1.1a631a33ece00p+21",
        "0x1.8b5e8881fefb2p+19",
        "0x1.5e58853eae81fp+20",
        "0x1.d55c02e6a0f6dp+19",
        "0x1.0e75d0ad83826p+20",
        "0x1.08edc3d0c9beap+19",
        "0x1.ce7daad39ce82p+20",
        "0x1.ea08ce2f4732dp+19",
        "0x1.48f37ae8e8407p+19",
        "0x1.74716ae136cf4p+19",
        "0x1.f325522066850p+18",
        "0x1.835546a7018a5p+19",
        "0x1.766dc297c7db7p+19",
        "0x1.d1e6751ec2a74p+19",
        "0x1.4043fcf4b6c3ap+21",
        "0x1.b34c37a0e7e3ap+20",
        "0x1.9de8dfb7188d3p+19",
    ],
    "frozen_quadratic": [
        "0x1.c931bb8205fbcp+18",
        "0x1.1fd6d4b674d9ap+19",
        "0x1.c8104c867ed69p+19",
        "0x1.06f651120a245p+21",
        "0x1.25cdbafbbdf8ep+20",
        "0x1.5934a74354ecap+20",
        "0x1.83907ec72fc2dp+19",
        "0x1.cab769a2487bbp+20",
        "0x1.7a5cf539cbaeep+20",
        "0x1.5970837a4611fp+20",
        "0x1.e038f8be8c119p+19",
        "0x1.553d4421bed09p+19",
        "0x1.82956e6819532p+20",
        "0x1.d0dd112c47723p+20",
        "0x1.4a4095873df0bp+20",
        "0x1.993b22cdfe879p+18",
        "0x1.cda9656ed4671p+20",
        "0x1.c4a437eece1a9p+19",
        "0x1.6adcb6aa5d015p+20",
        "0x1.1e04e5468b3f4p+20",
        "0x1.2f9adb0330e0ap+20",
        "0x1.7ef890e1445e6p+18",
        "0x1.a8e2e2c78438fp+20",
        "0x1.24ee4a5481e9bp+20",
        "0x1.5578f3f8a693cp+19",
        "0x1.98221394d459cp+19",
        "0x1.4c8ee554fe4f4p+18",
        "0x1.b1ffcca886e40p+19",
        "0x1.865abe4c7a602p+19",
        "0x1.0c87c73f575d4p+20",
        "0x1.e55a1e4e3daf7p+20",
        "0x1.a27d38733b133p+20",
        "0x1.dc2021afed9adp+19",
    ],
    "plain_mlp": [
        "0x1.f27a0117408c2p+18",
        "0x1.1b022fb58bf44p+19",
        "0x1.c9de1dfb2da20p+19",
        "0x1.043622b9a29c5p+21",
        "0x1.21ad7ae43c4f4p+20",
        "0x1.4ae10b80ede74p+20",
        "0x1.86bced8dea3e8p+19",
        "0x1.ce62bf526ceb7p+20",
        "0x1.86ac86f4b3f90p+20",
        "0x1.5fb9b9cd2a9e3p+20",
        "0x1.c8ee2d0c53376p+19",
        "0x1.556aab4c0e6bdp+19",
        "0x1.89a9877317270p+20",
        "0x1.d6cb8791802a7p+20",
        "0x1.452d5b1a66be3p+20",
        "0x1.e5b69565fe5dap+18",
        "0x1.c0a3d88af8333p+20",
        "0x1.affc3cff2d02ep+19",
        "0x1.6b21104aad8bap+20",
        "0x1.10383f6717399p+20",
        "0x1.2a64d2a7b3483p+20",
        "0x1.a4dfda80ae638p+18",
        "0x1.b4e53dfa452b1p+20",
        "0x1.22edc35dc1a36p+20",
        "0x1.3fc6345bb349bp+19",
        "0x1.a33d2a5dce1e9p+19",
        "0x1.654fc7f5e7774p+18",
        "0x1.940ca3b072beap+19",
        "0x1.9419a9b9ad094p+19",
        "0x1.023462634c2b2p+20",
        "0x1.e2c30e0b5f784p+20",
        "0x1.ad95cd08e34d4p+20",
        "0x1.c00e9e72013d2p+19",
    ],
    "sqrt_mlp": [
        "0x1.d3f35eb260363p+18",
        "0x1.1c1ca785f6920p+19",
        "0x1.c94c5a0466f73p+19",
        "0x1.f5f1d6b179ff5p+20",
        "0x1.22531764d5864p+20",
        "0x1.5c96f2b8d5105p+20",
        "0x1.8505d72d5fb0ep+19",
        "0x1.cca1b2f9d5f20p+20",
        "0x1.80042879a92f6p+20",
        "0x1.563da88fca28dp+20",
        "0x1.d99b73b705dcap+19",
        "0x1.522423b898d9bp+19",
        "0x1.8a3368cb8458fp+20",
        "0x1.d3c6b509eb438p+20",
        "0x1.480e4b3ad3174p+20",
        "0x1.b3c1fa240329cp+18",
        "0x1.c7f0c10ec5ef6p+20",
        "0x1.bb5f97bbc88a0p+19",
        "0x1.71d2e766b1049p+20",
        "0x1.1e38c7aefe15cp+20",
        "0x1.2df293a8ff0edp+20",
        "0x1.9848525005aa9p+18",
        "0x1.ad444573cf120p+20",
        "0x1.229f4dbda7aacp+20",
        "0x1.4de3ccee2535ap+19",
        "0x1.96473658c5e1fp+19",
        "0x1.803b3d99dce03p+18",
        "0x1.af10a9957f6d2p+19",
        "0x1.8507b7273635fp+19",
        "0x1.09c5fc6e13e8fp+20",
        "0x1.e1a2cd5283e05p+20",
        "0x1.a420ae7247b83p+20",
        "0x1.e791779275378p+19",
    ],
    "log_mlp": [
        "0x1.fb9de0bca5689p+18",
        "0x1.26571fdfaa301p+19",
        "0x1.c7ae74f11cd76p+19",
        "0x1.99f4872eb489cp+20",
        "0x1.10a3fb649bdcep+20",
        "0x1.4f5dec75d5b69p+20",
        "0x1.86727bfa3b71cp+19",
        "0x1.cb5d02deeabe0p+20",
        "0x1.83dd5f5d03ca0p+20",
        "0x1.4b2a5095fcc66p+20",
        "0x1.cb34afce339f9p+19",
        "0x1.4406ae70159d8p+19",
        "0x1.884ade1c139c2p+20",
        "0x1.eb8ce1f68d13ap+20",
        "0x1.4f81ab47a6b1ap+20",
        "0x1.e2340c89a2106p+18",
        "0x1.d8c17b8ae61f4p+20",
        "0x1.ab7733ab07ab7p+19",
        "0x1.7d2865151a343p+20",
        "0x1.1a9e5f084fd2ap+20",
        "0x1.2f376b783c761p+20",
        "0x1.d4434bfd5f2a5p+18",
        "0x1.ce060f7854a2dp+20",
        "0x1.260fc5cd12aacp+20",
        "0x1.44db283a687d2p+19",
        "0x1.79fe069f5bf1ap+19",
        "0x1.9a41bcdeda9b2p+18",
        "0x1.bdeae363461dbp+19",
        "0x1.7c19f89cdc200p+19",
        "0x1.11f126e14ef7ap+20",
        "0x1.ecf0fb6ae4dd2p+20",
        "0x1.cea2eb8dd94d3p+20",
        "0x1.fbb1060c891eap+19",
    ],
}

SQUARE_REGRESSION_ERROR = (
    'NEGATIVE_SQRT_DOMAIN: squared-space output -487097467372.90625 is negative; cost undefined'
)

# The target transform each id names; every other model fits plain cost.
TRANSFORMS = {
    "sqrt_regression": "SQRT",
    "log_regression": "NATURAL_LOG",
    "reciprocal_regression": "RECIPROCAL",
    "square_regression": "SQUARE",
    "frozen_quadratic": "SQRT",
    "sqrt_mlp": "SQRT",
    "log_mlp": "NATURAL_LOG",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_predictions_unchanged(case):
    assert predictions_hex(case, CASES[case]) == EXPECTED[case]


def test_square_regression_error_row_unchanged():
    result = run_bench(BenchConfig(enabled=("square_regression",)), SEED)
    assert result.rows[0].error == SQUARE_REGRESSION_ERROR


@pytest.mark.parametrize("model_id", sorted(MODEL_REGISTRY))
def test_target_transform_is_the_one_the_id_names(model_id):
    assert _build(model_id).target_transform.name == TRANSFORMS.get(model_id, "NONE")


def _sqrt_mlp_pricing(z):
    """A fitted sqrt_mlp whose network outputs ``z``, and the test rows it prices."""
    train, test = _train_test(BenchConfig(), SEED)
    model = _build("sqrt_mlp", {"epochs": "0"}).fit(train)
    model._predict_batch = lambda X: np.asarray(z, dtype=float)
    return model, test[: len(z)]


def test_sqrt_mlp_rejects_a_negative_root():
    model, rows = _sqrt_mlp_pricing([30.0, -2.5, 40.0])
    with pytest.raises(NegativeSqrtDomainError, match=r"^sqrt-space output -2.5 is negative"):
        model.predict_many(rows)


def test_sqrt_mlp_reports_an_earlier_non_finite_row_first():
    model, rows = _sqrt_mlp_pricing([np.inf, -2.5])
    with pytest.raises(NonconvergenceError):
        model.predict_many(rows)
