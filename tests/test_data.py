import numpy as np
import pytest

from costlab.data import (
    FeatureVector,
    GreenRuleCheck,
    ProjectRecord,
    SplitSpec,
    check_green_rule,
    check_noise_pct,
    generator_sqrt_value,
    load_csv,
    save_csv,
    split,
    synthesize,
)
from costlab.errors import (
    InvalidSplitError,
    ParseError,
    RangeExhaustedError,
    SchemaMismatchError,
)

HEADER = "id,area_served,pipeline_length_m,irrigation_valves,construction_year,cost_le\n"


def write(tmp_path, body, header=HEADER):
    path = tmp_path / "data.csv"
    path.write_text(header + body, encoding="utf-8")
    return str(path)


class TestFeatureVector:
    def test_missing_slots(self):
        fv = FeatureVector(1.0, None, 3.0, 2013.0)
        assert None in fv.as_tuple()
        arr = fv.to_array()
        assert np.isnan(arr[1]) and arr[0] == 1.0

    def test_rejects_negative_driver(self):
        with pytest.raises(ValueError):
            FeatureVector(-1.0, 2.0, 3.0, 2013.0)

    def test_record_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError):
            ProjectRecord("a", FeatureVector(1, 2, 3, 2013), 0.0)

    def test_record_rejects_out_of_range_year(self):
        with pytest.raises(ValueError):
            ProjectRecord("a", FeatureVector(1, 2, 3, 1850.0), 10.0)


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "a,1,2,3,2013,100\nb,4,5,6,2014,200\nc,7,8,9,2015,300\n")
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds[0].id == "a"
        assert ds[2].cost_le == 300.0

    def test_empty_cell_becomes_missing(self, tmp_path):
        path = write(tmp_path, "a,1,,3,2013,100\n")
        ds = load_csv(path)
        assert ds[0].features.p2_pipeline_length is None
        assert ds.has_missing_features

    def test_zero_cost_rejected(self, tmp_path):
        path = write(tmp_path, "a,1,2,3,2013,0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.row == 2
        assert exc.value.column == "cost_le"

    def test_garbage_number_reports_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,1,2,3,2013,100\nb,1,zzz,3,2013,100\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.row == 3
        assert exc.value.column == "pipeline_length_m"

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, "a,1,2,3,2013,100\n", header="id,x1,x2,x3,x4,cost\n")
        with pytest.raises(SchemaMismatchError):
            load_csv(path)

    def test_save_load_round_trip(self, tmp_path):
        ds = synthesize(25, seed=3, noise_pct=2.0)
        path = str(tmp_path / "round.csv")
        save_csv(ds, path)
        again = load_csv(path)
        assert tuple(again) == tuple(ds)


class TestSplit:
    def test_default_protocol_on_144(self):
        ds = synthesize(144, seed=0, noise_pct=0.0)
        train, test = split(ds, SplitSpec(seed=1))
        assert (len(train), len(test)) == (111, 33)

    def test_same_seed_same_partition(self):
        ds = synthesize(50, seed=0, noise_pct=0.0)
        a = split(ds, SplitSpec(seed=9))
        b = split(ds, SplitSpec(seed=9))
        assert [r.id for r in a[0]] == [r.id for r in b[0]]
        assert [r.id for r in a[1]] == [r.id for r in b[1]]

    def test_half_split_of_four(self):
        ds = synthesize(4, seed=0, noise_pct=0.0)
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=0))
        assert (len(train), len(test)) == (2, 2)

    def test_partition_property_over_seeds(self):
        ds = synthesize(37, seed=5, noise_pct=0.0)
        everything = {r.id for r in ds}
        for seed in range(25):
            train, test = split(ds, SplitSpec(seed=seed))
            train_ids, test_ids = {r.id for r in train}, {r.id for r in test}
            assert train_ids | test_ids == everything
            assert not (train_ids & test_ids)

    def test_invalid_split_rejected(self):
        ds = synthesize(5, seed=0, noise_pct=0.0)
        with pytest.raises(InvalidSplitError):
            split(ds, SplitSpec(train_fraction=0.0, seed=0))
        with pytest.raises(InvalidSplitError):
            split(ds, SplitSpec(train_count=5, seed=0))
        with pytest.raises(InvalidSplitError):
            split(ds[:1], SplitSpec(seed=0))


class TestGreenRule:
    def test_documented_cases(self):
        assert check_green_rule(111, 4) == GreenRuleCheck(True, 82)
        assert check_green_rule(82, 4) == GreenRuleCheck(True, 82)
        assert check_green_rule(81, 4) == GreenRuleCheck(False, 82)

    def test_monotone_in_train_size(self):
        previous = False
        for size in range(0, 200):
            adequate = check_green_rule(size, 4).adequate
            assert adequate >= previous
            previous = adequate


class TestSynthesize:
    def test_noise_free_matches_independent_generator_evaluation(self):
        ds = synthesize(60, seed=11, noise_pct=0.0)
        for rec in ds:
            f = rec.features.as_tuple()
            # independent evaluation with the pinned constants
            base = (
                -37032.81
                + 2.21 * f[0]
                + 0.1691 * f[1]
                + 2.265 * f[2]
                + 18.594 * f[3]
            )
            assert rec.cost_le == pytest.approx(base * base, rel=1e-6)

    def test_known_point_hand_value(self):
        # -37032.81 + 221 + 169.1 + 22.65 + 37429.722 = 809.662, squared
        value = generator_sqrt_value((100.0, 1000.0, 10.0, 2013.0))
        assert value == pytest.approx(809.662, abs=1e-9)
        assert value * value == pytest.approx(655552.554244, abs=0.5)

    def test_seed_determinism(self):
        a = synthesize(20, seed=7, noise_pct=5.0)
        b = synthesize(20, seed=7, noise_pct=5.0)
        assert tuple(a) == tuple(b)

    def test_noise_bounds(self):
        ds = synthesize(300, seed=13, noise_pct=10.0)
        for rec in ds:
            base = generator_sqrt_value(rec.features.as_tuple())
            ratio = rec.cost_le / (base * base)
            assert 0.9 - 1e-9 <= ratio <= 1.1 + 1e-9

    @pytest.mark.parametrize("noise_pct", [-1.0, float("nan"), float("inf")])
    def test_noise_must_be_finite_and_nonnegative(self, noise_pct):
        with pytest.raises(ValueError, match="noise_pct"):
            synthesize(5, seed=0, noise_pct=noise_pct)

    def test_noise_width_must_be_finite(self):
        # the noise is drawn over [-noise_pct, noise_pct], whose width is 2 * noise_pct
        largest = np.finfo(float).max / 2
        check_noise_pct(largest)
        for noise_pct in (np.nextafter(largest, np.inf), 1e308):
            with pytest.raises(ValueError, match=r"at most 8\.988465674311579e\+307 so the noise"):
                synthesize(5, seed=0, noise_pct=noise_pct)

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            synthesize(5, seed=-3, noise_pct=0.0)

    def test_range_exhaustion(self):
        # years far in the past keep the sqrt-domain value negative
        bad_ranges = ((20.0, 300.0), (200.0, 3000.0), (5.0, 60.0), (1900.0, 1901.0))
        with pytest.raises(RangeExhaustedError):
            synthesize(1, seed=0, noise_pct=0.0, ranges=bad_ranges)

    def test_features_inside_declared_ranges(self):
        ds = synthesize(100, seed=2, noise_pct=0.0)
        X = ds.features_matrix
        assert X[:, 0].min() >= 20 and X[:, 0].max() <= 300
        assert X[:, 1].min() >= 200 and X[:, 1].max() <= 3000
        assert X[:, 2].min() >= 5 and X[:, 2].max() <= 60
        assert X[:, 3].min() >= 2010 and X[:, 3].max() <= 2015
