"""Bit-for-bit guard on the fuzzy, GA-fuzzy and case-based predictions.

Each case fits one zoo model on a fixed synthetic training set and compares
its predictions on 40 held-out rows, as ``float.hex`` strings, with pinned
values. The fuzzy cases also pin the fired-rule trace (antecedent,
consequent, firing strength, in firing order) and the degraded flag of ten
rows, and one CBR case pins a whole retrieval result. A change to
membership arithmetic, rule aggregation, defuzzification, similarity
accumulation or tie-breaking changes at least one bit here.
"""

import pytest

from conftest import retrieve_one
from costlab.data import synthesize
from costlab.fuzzy import infer_detail
from costlab.zoo import build_model

SEED = 20240611
N_TRAIN = 120


def _train_and_held_out():
    data = synthesize(N_TRAIN + 40, seed=7, noise_pct=5.0)
    return data[:N_TRAIN], data[N_TRAIN:]


def _fit(model_id, params):
    train, _ = _train_and_held_out()
    return build_model(model_id, params, SEED).fit(train)


def _held_out_rows():
    _, held_out = _train_and_held_out()
    return [rec.features for rec in held_out]


def predictions_hex(model_id, params):
    _, held_out = _train_and_held_out()
    return [float(v).hex() for v in _fit(model_id, params).predict_many(held_out)]


def traces(model_id, params):
    """'a1a2a3a4>c:strength' per fired rule, and the degraded flag, for ten rows."""
    model = _fit(model_id, params)
    out = []
    for x in _held_out_rows()[:10]:
        result = infer_detail(model.rule_base, x.to_array(), model.fallback)
        fired = " ".join(
            f"{''.join(map(str, rule.antecedent))}>{rule.consequent}:{s.hex()}"
            for rule, s in result.fired
        )
        out.append((fired, result.degraded))
    return out


def retrieval(params, row):
    model = _fit("cbr", params)
    cost, best, similarity, per_attribute = retrieve_one(
        model.case_base, _held_out_rows()[row], model.k
    )
    return (cost.hex(), best.id, similarity.hex(), tuple(s.hex() for s in per_attribute))


WEIGHTED = {"k": "3", "weights": "2,1,0.5,1"}

CASES = {
    "fuzzy": ("fuzzy", {}),
    "genetic_fuzzy": ("genetic_fuzzy", {"generations": "20"}),
    "cbr": ("cbr", {}),
    "cbr_k3_weighted": ("cbr", WEIGHTED),
}

EXPECTED = {"cbr": ["0x1.b539f478eb676p+20",
         "0x1.4de0219409d4fp+19",
         "0x1.2af45e6bed39ap+21",
         "0x1.e1eb8cda4872bp+19",
         "0x1.bd5de100e978ep+19",
         "0x1.62b9a269b0b23p+19",
         "0x1.552bd44985dcap+20",
         "0x1.3bcad125f4621p+20",
         "0x1.35520b7605604p+20",
         "0x1.98d717a3d14afp+20",
         "0x1.22e1b3b8b3f03p+20",
         "0x1.c6d870c987510p+20",
         "0x1.4ad63f944740ap+19",
         "0x1.305c5a346e3b9p+20",
         "0x1.835c8c02f5387p+19",
         "0x1.160cb910dea12p+20",
         "0x1.62fbe4608fc0bp+19",
         "0x1.4a53b5b122218p+20",
         "0x1.150a08878bf65p+19",
         "0x1.f69269dcd52c4p+20",
         "0x1.80028f0a762bfp+20",
         "0x1.048c7982b9dcap+20",
         "0x1.15cae4220eaa0p+20",
         "0x1.c9eda55887cb7p+19",
         "0x1.f236016515a16p+19",
         "0x1.305c5a346e3b9p+20",
         "0x1.3f2ca70e6eafep+20",
         "0x1.3fedb1e02347dp+20",
         "0x1.6a653fa2d561cp+20",
         "0x1.13f6f6f8a30a6p+20",
         "0x1.59c427095a51bp+20",
         "0x1.150a08878bf65p+19",
         "0x1.099121fa671bap+20",
         "0x1.70d1661a6e6b0p+20",
         "0x1.040a5cfb984d4p+21",
         "0x1.2a98b84819f28p+19",
         "0x1.c19dea2630453p+20",
         "0x1.62b9a269b0b22p+19",
         "0x1.41cd5209621bfp+20",
         "0x1.1bf8001d75b16p+20"],
 "cbr_k3_weighted": ["0x1.dd19de325366dp+20",
                     "0x1.452e3e03fe2eep+19",
                     "0x1.12328e0eb5a39p+21",
                     "0x1.2c6ea3f2a2678p+20",
                     "0x1.15283567a36e6p+19",
                     "0x1.cfc5b17ecf8edp+19",
                     "0x1.a60aa4b406502p+20",
                     "0x1.302d5e79fc0d0p+20",
                     "0x1.3f67aa065da00p+20",
                     "0x1.9a17b00435bbdp+20",
                     "0x1.2102283775c3dp+20",
                     "0x1.afc80188909b6p+20",
                     "0x1.3b8ddbb822eb2p+19",
                     "0x1.17ea2277a11a7p+20",
                     "0x1.7c8aac84c2ce9p+19",
                     "0x1.26dfbcc60cd10p+20",
                     "0x1.5cffb76ff0c85p+19",
                     "0x1.429758f0ae086p+20",
                     "0x1.45f7a26a8f93dp+19",
                     "0x1.c6f8909b88713p+20",
                     "0x1.68c91db393b07p+20",
                     "0x1.e9bc68e70cc99p+19",
                     "0x1.3bc93e3ff1e2fp+20",
                     "0x1.8dfd172811cb0p+19",
                     "0x1.ecd3eb3f3e4d0p+19",
                     "0x1.1d974dcb5b1c2p+20",
                     "0x1.b20c8fa80afb0p+19",
                     "0x1.47720681d5859p+20",
                     "0x1.515a65986b685p+20",
                     "0x1.2f5c31c8e2f86p+20",
                     "0x1.4d756954d14adp+20",
                     "0x1.497420138e116p+19",
                     "0x1.f6eb6cca7c3d9p+19",
                     "0x1.5700963d10631p+20",
                     "0x1.0c3331b59453dp+21",
                     "0x1.ade46fbcd508dp+19",
                     "0x1.7efa32c88f421p+20",
                     "0x1.f77b53d7178ecp+19",
                     "0x1.221259f069904p+20",
                     "0x1.2b5cadf5890b3p+20"],
 "fuzzy": ["0x1.2c27a89d83f15p+20",
           "0x1.436c3c5af2adap+19",
           "0x1.1d6a3eed41119p+21",
           "0x1.07fd91bf1d25fp+20",
           "0x1.436c2f153e7c6p+19",
           "0x1.e2b1d872122c1p+19",
           "0x1.2c27a89d83f15p+20",
           "0x1.07fd62e3b1bcep+20",
           "0x1.2a00e76140cebp+20",
           "0x1.2c27a89d83f15p+20",
           "0x1.07fd833eddb2bp+20",
           "0x1.a169b4cf9a17fp+20",
           "0x1.436c45bd90b89p+19",
           "0x1.6e4583b873baap+20",
           "0x1.07f406d593831p+20",
           "0x1.07fd905f40c09p+20",
           "0x1.2c27a89d83f15p+20",
           "0x1.07fda03348b79p+20",
           "0x1.436d051e420b2p+19",
           "0x1.aaf073b032cafp+20",
           "0x1.d48d6d911006cp+20",
           "0x1.2c27a89d83f15p+20",
           "0x1.5f483a2a678cfp+20",
           "0x1.436bdd6e6c001p+19",
           "0x1.2c27a89d83f15p+20",
           "0x1.07fc8b4156db3p+20",
           "0x1.2c27a89d83f15p+20",
           "0x1.4247d8c68df1fp+20",
           "0x1.6e4583b873ba8p+20",
           "0x1.07fcffc529ee5p+20",
           "0x1.07fc7e22dbdcdp+20",
           "0x1.436c39e9dbf3cp+19",
           "0x1.07fb58f9c7adbp+20",
           "0x1.3b218f610412ap+20",
           "0x1.2c27a89d83f15p+20",
           "0x1.2c27a89d83f15p+20",
           "0x1.2c27a89d83f15p+20",
           "0x1.436beacbab030p+19",
           "0x1.2c27a89d83f15p+20",
           "0x1.45574eb47d888p+20"],
 "genetic_fuzzy": ["0x1.2c27a89d83f15p+20",
                   "0x1.436c3c5af2adap+19",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.a6f5f22ca7596p+18",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.07fd7ddaf7ed1p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.af7273f077fa4p+18",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.436c8c1a70fd4p+19",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.436e04e0f42c2p+19",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.5d9877c57aa34p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.436c2770e02c7p+19",
                   "0x1.6e4583b873babp+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20",
                   "0x1.2c27a89d83f15p+20"]}

EXPECTED_TRACES = {"fuzzy": [("", True),
           ("2236>2:0x1.85f73ff971ab8p-3 3347>2:0x1.38b956c45b2b6p-5", False),
           ("6664>6:0x1.754606f336033p-4", False),
           ("5226>3:0x1.1ffe97a7328fdp-2", False),
           ("2272>2:0x1.a46f243c405f8p-2", False),
           ("2614>3:0x1.3a977658d3912p-2 1524>2:0x1.7ed44d7442685p-4", False),
           ("", True),
           ("5244>3:0x1.17c948cd1d6fdp-3", False),
           ("2556>3:0x1.315cfd71bd18ap-2 2655>3:0x1.315cfd71bd18ap-2 "
            "3646>4:0x1.3d105e36d0ecfp-3",
            False),
           ("", True)],
 "genetic_fuzzy": [("", True),
                   ("2247>2:0x1.85f73ff971ab8p-3", False),
                   ("", True),
                   ("", True),
                   ("", True),
                   ("", True),
                   ("", True),
                   ("5343>1:0x1.916e917e54c54p-3", False),
                   ("", True),
                   ("", True)]}

EXPECTED_RETRIEVAL = ("0x1.2c6ea3f2a2678p+20",
 "synth-113",
 "0x1.c24356e4a89cdp-1",
 ("0x1.fcc1901b7bc7fp-1",
  "0x1.9cc9539e984b0p-1",
  "0x1.518a10e9900f9p-2",
  "0x1.ff800ef502e2dp-1"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_predictions_unchanged(case):
    model_id, params = CASES[case]
    assert predictions_hex(model_id, params) == EXPECTED[case]


@pytest.mark.parametrize("case", ["fuzzy", "genetic_fuzzy"])
def test_fired_rules_and_degraded_flags_unchanged(case):
    model_id, params = CASES[case]
    assert traces(model_id, params) == EXPECTED_TRACES[case]


def test_retrieval_result_unchanged():
    assert retrieval(WEIGHTED, 3) == EXPECTED_RETRIEVAL
