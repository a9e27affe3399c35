import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from surfbench import synthdata
from surfbench.cli import cli_main
from surfbench.report import DATASET_CSV_HEADER, write_dataset_csv
from surfbench.synthdata import (
    DesignSpec,
    FactorialDataset,
    NoiseSpec,
    _noise_draws,
    build_design,
    eval_truth,
    generate,
)


class TestDesign:
    def test_default_design_has_48_rows(self):
        assert build_design(DesignSpec()).shape == (48, 3)

    def test_x1_levels(self):
        np.testing.assert_allclose(
            DesignSpec().axis_levels("x1"), [1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0]
        )

    def test_x3_levels(self):
        np.testing.assert_allclose(DesignSpec().axis_levels("x3"), [2.0, 3.0, 4.0])

    def test_lexicographic_order(self):
        rows = [tuple(r) for r in build_design(DesignSpec())]
        assert rows == sorted(rows)

    def test_rows_unique(self):
        rows = {tuple(r) for r in build_design(DesignSpec())}
        assert len(rows) == 48

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x1_levels": 1},
            {"x2_levels": 0},
            {"x1_range": (2.0, 1.0)},
            {"x3_range": (4.0, 4.0)},
            {"x1_range": (1.0, math.inf)},
            {"x2_range": (-math.inf, 1.0)},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DesignSpec(**kwargs)

    @given(
        levels=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
        lows=st.tuples(
            st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_design_size_and_uniqueness(self, levels, lows):
        spec = DesignSpec(
            x1_range=(lows[0], lows[0] + 1.5),
            x2_range=(lows[1], lows[1] + 2.0),
            x3_range=(lows[2], lows[2] + 0.5),
            x1_levels=levels[0],
            x2_levels=levels[1],
            x3_levels=levels[2],
        )
        design = build_design(spec)
        assert design.shape == (spec.size, 3)
        assert len({tuple(r) for r in design}) == spec.size


class TestTruth:
    def test_y2_by_direct_substitution(self):
        assert eval_truth(1.0, 0.5, 2.0)[1] == 4.5

    def test_y1_against_calculator(self):
        y1 = eval_truth(1.0, 0.5, 2.0)[0]
        assert y1 == 1.0 + 0.5 + math.sin(2.0)
        assert y1 == pytest.approx(2.409297, abs=5e-7)

    def test_y3_against_calculator(self):
        y3 = eval_truth(1.0, 0.5, 2.0)[2]
        assert y3 == math.cos(1.0) + 1.0
        assert y3 == pytest.approx(1.540302, abs=5e-7)


class TestNoise:
    def test_zero_sigma_is_identity(self):
        noise = NoiseSpec(sigma1=0.0, sigma2=0.0, sigma3=0.0)
        clean = np.array([1.25, -3.5, 0.0])
        assert (clean + _noise_draws(noise, [7])[0]).tolist() == clean.tolist()

    def test_draws_are_pure_functions_of_identity(self):
        noise = NoiseSpec()
        a = _noise_draws(noise, [3])
        assert a.tobytes() == _noise_draws(noise, [3]).tobytes()
        assert (_noise_draws(noise, [4]) != a).all()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma1=-0.1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "42", True, None])
    def test_invalid_master_seed_rejected_naming_the_field(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            NoiseSpec(master_seed=seed)

    def test_master_seed_accepts_numpy_integers(self):
        a = generate(noise=NoiseSpec(master_seed=np.int64(7)))
        np.testing.assert_array_equal(a.y_noisy, generate(noise=NoiseSpec(master_seed=7)).y_noisy)

    def test_row_index_outside_uint32_rejected(self):
        for row in (-1, 2**32):
            with pytest.raises(ValueError, match="row"):
                _noise_draws(NoiseSpec(), [row])

    def test_sample_mean_of_output1_draws(self):
        # Statistical oracle: the mean of n draws has standard error sigma/sqrt(n).
        noise = NoiseSpec()
        n = 100_000
        draws = _noise_draws(noise, np.arange(n))[:, 0]
        assert abs(draws.mean()) < 3.0 * 0.1 / math.sqrt(n)

    def test_sample_std_of_output3_draws(self):
        noise = NoiseSpec()
        draws = _noise_draws(noise, np.arange(100_000))[:, 2]
        assert draws.std() == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("seed", [0, 1, 42, 1009, 2**31 - 1, 2**63 + 5])
    def test_draw_equals_the_generator_integers_draw(self, seed):
        # Differential oracle: the 53-bit uniform drawn through numpy's own
        # SeedSequence, Philox and Generator bounded-integer path, which
        # _noise_draws replaces by the stream kernel and a shift (1 is the
        # noise stream tag).
        noise = NoiseSpec(master_seed=seed)
        draws = _noise_draws(noise, np.arange(300))
        for row in range(300):
            for k in range(3):
                key = SeedSequence((seed, 1, row, k))
                u = (Generator(Philox(key)).integers(0, 2**53) + 0.5) / 2**53
                expected = noise.sigmas[k] * NormalDist().inv_cdf(u)
                assert draws[row, k] == expected


class TestGenerate:
    def test_default_has_48_rows(self):
        assert generate().n_rows == 48

    def test_same_seed_identical_bytes(self, tmp_path):
        write_dataset_csv(generate(), tmp_path / "a.csv")
        write_dataset_csv(generate(), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_only_noisy_channel(self):
        a = generate(noise=NoiseSpec(master_seed=42))
        b = generate(noise=NoiseSpec(master_seed=43))
        np.testing.assert_array_equal(a.y_clean, b.y_clean)
        assert not np.array_equal(a.y_noisy, b.y_noisy)

    def test_clean_channel_matches_truth_exactly(self):
        ds = generate()
        for i in range(ds.n_rows):
            assert tuple(ds.y_clean[i]) == eval_truth(*ds.x[i])

    def test_noise_is_keyed_by_row_not_order(self):
        ds = generate()
        for i in (0, 17, 47):
            assert ds.y_noisy[i].tobytes() == (ds.y_clean[i] + _noise_draws(ds.noise, [i])[0]).tobytes()

    def test_dataset_arrays_are_frozen(self):
        ds = generate()
        with pytest.raises(ValueError):
            ds.y_noisy[0, 0] = 0.0


class TestNoiseDrawnWhenRead:
    @pytest.fixture()
    def draws(self, monkeypatch):
        """The row counts of every ``_noise_draws`` call."""
        calls = []
        original = synthdata._noise_draws
        monkeypatch.setattr(synthdata, "_noise_draws",
                            lambda noise, rows: calls.append(len(rows)) or original(noise, rows))
        return calls

    @pytest.mark.parametrize("read", [lambda ds: ds.y_noisy, lambda ds: ds.outputs("noisy")])
    def test_drawn_once_on_first_read(self, draws, read):
        ds = generate()
        assert draws == []
        ds.outputs("noise-free")
        assert draws == []
        first = read(ds)
        assert draws == [48]
        assert read(ds) is first and ds.y_noisy is first and ds.outputs("noisy") is first
        assert draws == [48]

    def test_noisy_channel_is_derived_bit_for_bit_and_read_only(self):
        spec = DesignSpec(x1_levels=3, x2_levels=5, x3_levels=2)
        ds = generate(spec, NoiseSpec(master_seed=1009))
        expected = ds.y_clean + _noise_draws(ds.noise, np.arange(ds.n_rows))
        assert ds.y_noisy.tobytes() == expected.tobytes()
        assert not ds.y_noisy.flags.writeable
        with pytest.raises(AttributeError):
            ds.y_noisy = expected
        # a dataset built directly derives its noisy channel the same way
        direct = FactorialDataset(x=ds.x, y_clean=ds.y_clean, spec=spec, noise=ds.noise)
        assert direct.y_noisy.tobytes() == expected.tobytes()

    def test_commands_on_the_clean_channel_draw_nothing(self, draws, tmp_path, capsys):
        assert cli_main(["surface", "--axis", "x3", "--level", "2", "--output", "1",
                         "--method", "cubic", "--regime", "noise-free",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert cli_main(["diagnose"]) == 0
        assert draws == []
        assert cli_main(["surface", "--axis", "x3", "--level", "2", "--output", "1",
                         "--method", "cubic", "--regime", "noisy",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert draws == [48]


class TestCsvExport:
    @pytest.fixture()
    def lines(self, tmp_path):
        path = tmp_path / "dataset.csv"
        write_dataset_csv(generate(), path)
        return path.read_text().splitlines()

    def test_header(self, lines):
        assert lines[0] == DATASET_CSV_HEADER
        assert DATASET_CSV_HEADER == (
            "x1,x2,x3,y1_clean,y2_clean,y3_clean,y1_noisy,y2_noisy,y3_noisy"
        )

    def test_full_precision_round_trip(self, lines):
        ds = generate()
        assert len(lines) == 1 + 48
        first = [float(v) for v in lines[1].split(",")]
        assert first[3] == ds.y_clean[0, 0]
        assert first[8] == ds.y_noisy[0, 2]

    def test_write_csv(self, tmp_path):
        # every cell is the %.17g text of the dataset value; lines end in LF
        ds = generate()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(ds, path)
        rows = np.hstack([ds.x, ds.y_clean, ds.y_noisy])
        expected = [DATASET_CSV_HEADER] + [",".join("%.17g" % v for v in row) for row in rows]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
