import csv
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import concat, one_run, reference_csv
from surfbench import cli, report
from surfbench.cli import cli_main
from surfbench.config import ExperimentConfig, load_config
from surfbench.protocol import METHODS, RunTable, execute_experiment, slice_nodes
from surfbench.report import (
    CSV_BLOCK,
    RUNS_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    _fmt,
    diagnose_slices,
    export_pred_vs_true,
    export_surface_grid,
    paired_contrast,
    read_runs_csv,
    summarize,
    write_columns,
    write_runs_csv,
    write_summary_csv,
)
from surfbench.synthdata import DesignSpec, FactorialDataset, NoiseSpec, generate


def synthetic_run(regime="noisy", output_index=1, method="cubic",
                  rmse=1.0, mae=0.8, r2=0.5, valid=True, repeat=0):
    """A one-run RunTable on 5 test nodes; an invalid run has NaN metrics
    and predictions."""
    missing = 0.0 if valid else math.nan  # added to what an invalid run lacks
    return one_run(
        np.arange(5.0), np.arange(5.0) + missing,
        regime=regime, output_index=output_index, fixed_axis="x3", fixed_level=2.0,
        repeat=repeat, method=method, valid=valid,
        reason="ok" if valid else "test_points_outside_support", n_test=5,
        n_finite=5 if valid else 2, rmse=rmse + missing, mae=mae + missing, r2=r2 + missing,
        condition_estimate=math.nan,
    )


class TestConfig:
    def test_defaults_match_reference_settings(self):
        config = ExperimentConfig()
        assert config.random_seed == 42
        assert config.repeats_per_slice == 40
        assert config.train_fraction == 0.7
        assert config.bootstrap_resamples == 1000
        assert config.rbf_kernel == "multiquadric"
        assert config.rbf_smoothing == 0.0
        assert (config.noise_sigma_output1, config.noise_sigma_output2,
                config.noise_sigma_output3) == (0.1, 1.0, 2.0)

    def test_settings_csv_round_trip(self, tmp_path):
        config = ExperimentConfig(repeats_per_slice=7, rbf_epsilon=2.5, random_seed=9)
        path = tmp_path / "settings.csv"
        config.write_settings_csv(path)
        assert ExperimentConfig.from_settings_csv(path) == config

    def test_json_config_loading(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"random_seed": 7, "train_fraction": 0.6}))
        config = load_config(path)
        assert config.random_seed == 7
        assert config.train_fraction == 0.6
        assert config.repeats_per_slice == 40  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        with pytest.raises(ValueError):
            load_config(path)

    def test_hash_tracks_content(self):
        a = ExperimentConfig()
        b = ExperimentConfig(random_seed=43)
        assert a.sha256() == ExperimentConfig().sha256()
        assert a.sha256() != b.sha256()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_fraction": 0.0},
            {"train_fraction": 1.0},
            {"repeats_per_slice": 0},
            {"bootstrap_resamples": 0},
            {"cubic_interpolator": "bilinear"},
            {"rbf_kernel": "gaussian"},
            {"grid_resolution": 1},
            {"rbf_epsilon": math.inf},
            {"rbf_smoothing": math.nan},
            {"noise_sigma_output1": math.nan},
            {"noise_sigma_output3": math.inf},
            {"noise_sigma_output1": -0.1},
            {"repeats_per_slice": 2.7},
            {"grid_resolution": math.nan},
            {"random_seed": -1},
            {"repeats_per_slice": None},
            {"random_seed": [1]},
            {"noise_sigma_output1": {}},
            {"train_fraction": "abc"},
            {"rbf_epsilon": True},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_non_integral_json_value_rejected_not_truncated(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"repeats_per_slice": 2.7}))
        with pytest.raises(ValueError):
            load_config(path)
        path.write_text(json.dumps({"repeats_per_slice": 3.0}))
        config = load_config(path)
        assert config.repeats_per_slice == 3 and isinstance(config.repeats_per_slice, int)


class TestSummarize:
    def test_mean_of_known_values(self):
        runs = concat(synthetic_run(rmse=r, repeat=i) for i, r in enumerate((1.0, 2.0, 3.0)))
        table = summarize(runs, ExperimentConfig(bootstrap_resamples=50))
        row = table.row("noisy", 1, "cubic")
        assert row.rmse_mean == pytest.approx(2.0, rel=1e-15)
        assert row.valid_runs == 3

    def test_always_12_rows(self):
        table = summarize(synthetic_run(), ExperimentConfig(bootstrap_resamples=10))
        assert len(table.rows) == 12
        keys = {(r.regime, r.output_index, r.method) for r in table.rows}
        assert len(keys) == 12

    def test_zero_valid_rows_have_undefined_metrics(self):
        table = summarize(synthetic_run(), ExperimentConfig(bootstrap_resamples=10))
        empty = table.row("noise-free", 2, "rbf")
        assert empty.valid_runs == 0
        assert empty.rmse_mean is None
        assert empty.rmse_ci is None

    def test_empty_record_list_rejected(self):
        with pytest.raises(ValueError):
            summarize(RunTable.empty(), ExperimentConfig())

    def test_deterministic_cis(self):
        runs = concat(synthetic_run(rmse=r, repeat=i) for i, r in enumerate((0.5, 1.5, 2.5, 3.0)))
        config = ExperimentConfig(bootstrap_resamples=200)
        a = summarize(runs, config).row("noisy", 1, "cubic")
        b = summarize(runs, config).row("noisy", 1, "cubic")
        assert (a.rmse_ci.lower, a.rmse_ci.upper) == (b.rmse_ci.lower, b.rmse_ci.upper)

    def test_rows_are_hashable_and_equal_across_summaries_of_the_same_runs(self):
        runs = concat(synthetic_run(rmse=r, repeat=i) for i, r in enumerate((0.5, 1.5, 2.5)))
        config = ExperimentConfig(bootstrap_resamples=20)
        a, b = summarize(runs, config), summarize(runs, config)
        a.row("noisy", 1, "cubic").rmse_ci  # a drawn interval is no field
        assert a == b
        assert hash(a) == hash(b)
        assert {hash(row) for row in a.rows} == {hash(row) for row in b.rows}

    def test_intervals_are_drawn_on_first_read_only(self):
        runs = concat(synthetic_run(rmse=r, repeat=i) for i, r in enumerate((0.5, 1.5, 2.5)))
        with mock.patch.object(report, "bootstrap_ci", wraps=report.bootstrap_ci) as draws:
            table = summarize(runs, ExperimentConfig(bootstrap_resamples=20))
            table.to_text()
            assert draws.call_count == 0
            row = table.row("noisy", 1, "cubic")
            assert row.rmse_ci is row.rmse_ci
            assert draws.call_count == 1
            assert row.r2_ci is not None and draws.call_count == 2
            assert table.row("noisy", 2, "cubic").r2_ci is None and draws.call_count == 2
        seed_base = (42, report._BOOTSTRAP_STREAM_TAG, 1, 1, 0)
        assert row.rmse_ci == report.bootstrap_ci(runs.rmse, 20, seed=seed_base + (0,))
        assert row.r2_ci == report.bootstrap_ci(runs.r2, 20, seed=seed_base + (1,))


class TestPairedContrast:
    def test_means_over_jointly_valid_splits_only(self):
        runs = concat([
            synthetic_run(method="cubic", rmse=1.0), synthetic_run(method="rbf", rmse=1.5),
            synthetic_run(method="cubic", rmse=2.0), synthetic_run(method="rbf", rmse=1.0),
            synthetic_run(method="cubic", valid=False), synthetic_run(method="rbf", rmse=9.0),
            synthetic_run(regime="noise-free", output_index=2, method="cubic"),
            synthetic_run(regime="noise-free", output_index=2, method="rbf", valid=False),
        ])
        assert paired_contrast(runs) == [("noisy", 1, -0.25, 2)]

    def test_runs_out_of_split_pairs_rejected(self):
        cubic, rbf = synthetic_run(method="cubic"), synthetic_run(method="rbf")
        for tables in ([rbf, cubic], [cubic], [cubic, cubic, rbf, rbf]):
            with pytest.raises(ValueError, match="split pairs"):
                paired_contrast(concat(tables))


def paired_contrast_lines(runs_csv):
    """The contrast lines by the runs.csv rows themselves: each split's
    cubic and rbf rows paired by (regime, output, axis, level, repeat)."""
    runs = read_runs_csv(runs_csv)
    by_key = {}
    keys = zip(*(getattr(runs, name).tolist()
                 for name in ("regime", "output_index", "fixed_axis", "fixed_level", "repeat")))
    for i, (key, method) in enumerate(zip(keys, runs.method.tolist())):
        by_key.setdefault(key, {})[method] = i
    lines = []
    for regime in ("noise-free", "noisy"):
        for output in (1, 2, 3):
            deltas = [runs.rmse[pair["rbf"]] - runs.rmse[pair["cubic"]]
                      for (g, o, *_), pair in by_key.items()
                      if g == regime and o == output and runs.valid[pair["cubic"]]
                      and runs.valid[pair["rbf"]]]
            if deltas:
                lines.append(f"  {regime:11s} output{output}: {np.mean(deltas):+.4f}  (n={len(deltas)})")
    assert lines
    return lines


# Bit patterns the column-wise writer must keep apart or format like _fmt:
# signed zeros, quiet NaN, -nan, NaN payloads (one signalling), infinities,
# subnormals, the largest finite values and values near 1e308.
SPECIAL_BITS = [
    int(np.array(x).view(np.uint64)) for x in
    (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
     2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3)
] + [0x7FF800000000BEEF, 0xFFF8000000000001, 0x7FF0000000000001]

float_bits = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1),
                       st.floats(allow_subnormal=True).map(
                           lambda x: int(np.array(x).view(np.uint64))))


@st.composite
def float_tables(draw):
    """(rows, cols) float64 arrays whose cells repeat a few drawn values."""
    pool = draw(st.lists(float_bits, min_size=1, max_size=6))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(1, 4))
    bits = draw(st.lists(st.one_of(st.sampled_from(pool), float_bits),
                         min_size=rows * cols, max_size=rows * cols))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)


@st.composite
def typed_columns(draw):
    """Equal-length bool, int64, unicode and float64 arrays whose cells
    repeat a few drawn values; the floats include signed zeros, NaN
    payloads and infinities."""
    rows = draw(st.integers(0, 30))
    columns = []
    for kind in draw(st.lists(st.sampled_from("bisf"), min_size=1, max_size=5)):
        if kind == "b":
            columns.append(draw(arrays(np.bool_, rows)))
        elif kind == "i":
            pool = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4))
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=rows,
                                                  max_size=rows)), dtype=np.int64))
        elif kind == "s":
            pool = draw(st.lists(st.text(alphabet="abxyz-_ .09", max_size=6), min_size=1, max_size=4))
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=rows,
                                                  max_size=rows)), dtype=str))
        else:
            pool = draw(st.lists(float_bits, min_size=1, max_size=4))
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)),
                                    dtype=np.uint64).view(np.float64))
    return columns


class TestWriteCsv:
    @pytest.mark.parametrize("value, text", [
        (0.1, "0.10000000000000001"),
        (np.float64(2.0), "2"),
        (-0.0, "-0"),
        (math.nan, "NA"),
        (math.inf, "NA"),
        (-math.inf, "NA"),
        ("noise-free", "noise-free"),
        (True, "true"),
        (False, "false"),
        (3, "3"),
        (np.int64(7), "7"),
    ])
    def test_cell_format(self, value, text):
        assert _fmt(value) == text

    def test_one_line_per_row_with_lf_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_columns(path, "a,b,c,d", [["x", "y"], [1, 2], [0.5, math.nan], [True, False]])
        assert path.read_bytes() == b"a,b,c,d\nx,1,0.5,true\ny,2,NA,false\n"

    @given(table=float_tables(), block=st.sampled_from([1, 3, report.CSV_BLOCK]))
    @settings(max_examples=150, deadline=None)
    def test_float_array_matches_per_row_reference(self, tmp_path_factory, table, block):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        header = ",".join(f"c{j}" for j in range(table.shape[1]))
        with mock.patch.object(report, "CSV_BLOCK", block):
            write_columns(path, header, table.T)
            assert path.read_bytes() == reference_csv(header, table.tolist())
            # Plain lists of Python floats give the same bytes.
            write_columns(path, header, [column.tolist() for column in table.T])
            assert path.read_bytes() == reference_csv(header, table.tolist())

    @pytest.mark.parametrize("rows", [2500, report.CSV_BLOCK // 4 - 1, report.CSV_BLOCK // 4 + 1])
    def test_grid_sized_float_table_matches_per_row_reference(self, tmp_path, rows):
        # A surface grid's shape: u and v repeat 50 levels each, the values
        # are mostly distinct, with every special bit pattern (NaN payloads,
        # -nan, +-inf, -0.0) scattered through all three columns. A fourth
        # column holds one NaN payload throughout.
        rng = np.random.default_rng(rows)
        levels = np.linspace(-1.0, 2.0, 50)
        table = np.column_stack([np.repeat(levels, 50)[:rows], np.tile(levels, 50)[:rows],
                                 rng.normal(size=rows), np.zeros(rows)])
        bits = table.view(np.uint64)
        for j in range(3):
            bits[rng.choice(rows, len(SPECIAL_BITS), replace=False), j] = SPECIAL_BITS
        bits[:, 3] = 0x7FF800000000BEEF
        header = "u,v,value,nan"
        write_columns(tmp_path / "grid.csv", header, table.T)
        assert (tmp_path / "grid.csv").read_bytes() == reference_csv(header, table.tolist())

    @given(columns=typed_columns(), block=st.sampled_from([1, 3, report.CSV_BLOCK]))
    @settings(max_examples=150, deadline=None)
    def test_typed_columns_match_per_row_reference(self, tmp_path_factory, columns, block):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        header = ",".join(f"c{j}" for j in range(len(columns)))
        with mock.patch.object(report, "CSV_BLOCK", block):
            write_columns(path, header, columns)
        assert path.read_bytes() == reference_csv(header, zip(*(c.tolist() for c in columns)))

    @pytest.mark.parametrize("width, rows, lines", [
        (3, 2500, [1, 1109, 1109, 282]),  # a surface grid: 3 blocks, not 10 of 256 rows
        (13, 600, [1, 256, 256, 88]),  # runs.csv's width keeps blocks of 256 rows
        (CSV_BLOCK + 1, 2, [1, 1, 1]),  # a row wider than the budget is a block alone
    ])
    def test_blocks_hold_whole_rows_within_the_cell_budget(self, tmp_path, monkeypatch, width, rows, lines):
        writes = []
        real_open = open

        def counting_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: writes.append(text.count("\n")) or write(text)
            return fh

        table = np.arange(float(width * rows)).reshape(rows, width)
        header = ",".join(f"c{j}" for j in range(width))
        monkeypatch.setattr(report, "open", counting_open, raising=False)
        write_columns(tmp_path / "t.csv", header, table.T)
        monkeypatch.undo()
        assert writes == lines
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, table.tolist())

    @pytest.mark.parametrize("columns", [[[], [], []], ((), (), ()), np.empty((0, 3)).T],
                             ids=["list", "tuple", "array"])
    def test_no_rows_writes_only_the_header(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        write_columns(path, "u,v,value", columns)
        assert path.read_bytes() == b"u,v,value\n"

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unequal length"):
            write_columns(tmp_path / "t.csv", "a,b", [[1, 3], [2]])

    def test_plain_float_list_writes_the_bytes_of_its_array(self, tmp_path):
        values = [0.1, -0.0, math.nan, 2.0, -math.inf, 0.1]
        write_columns(tmp_path / "list.csv", "x", [values])
        write_columns(tmp_path / "array.csv", "x", [np.array(values)])
        assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "array.csv").read_bytes() == (
            b"x\n0.10000000000000001\n-0\nNA\n2\nNA\n0.10000000000000001\n")

    @pytest.mark.parametrize("column", [[1.0, None], np.array([1.0, None], dtype=object),
                                        np.ones(2, dtype=np.float32)],
                             ids=["list_with_none", "object", "float32"])
    def test_column_of_another_dtype_rejected_naming_its_index(self, tmp_path, column):
        with pytest.raises(ValueError, match="column 1 has dtype"):
            write_columns(tmp_path / "t.csv", "a,b", [[1.0, 2.0], column])


def reference_read_runs_csv(path) -> RunTable:
    """runs.csv parsed row by row: the reader before it went column-wise."""
    columns = [[] for _ in range(13)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == RUNS_CSV_HEADER.split(",")
        for row in filter(None, reader):
            assert len(row) == 13 and row[6] in ("true", "false")
            valid = row[6] == "true"
            metrics = [float(cell) if valid else math.nan for cell in row[10:]]
            values = [row[0], int(row[1]), row[2], float(row[3]), int(row[4]), row[5], valid,
                      row[7], int(row[8]), int(row[9]), *metrics]
            for column, value in zip(columns, values):
                column.append(value)
    names = ("regime", "output_index", "fixed_axis", "fixed_level", "repeat", "method",
             "valid", "reason", "n_test", "n_finite", "rmse", "mae", "r2")
    return RunTable(**dict(zip(names, map(np.array, columns))),
                    condition_estimate=np.full(len(columns[0]), np.nan))


class TestRunsCsv:
    def test_header_is_pinned(self):
        assert RUNS_CSV_HEADER == (
            "regime,output,fixed_axis,fixed_level,repeat,method,valid,reason,"
            "n_test,n_finite,rmse,mae,r2"
        )

    def test_round_trip(self, tmp_path, default_dataset):
        config = ExperimentConfig(repeats_per_slice=2, bootstrap_resamples=20)
        records = execute_experiment(default_dataset, config)
        path = tmp_path / "runs.csv"
        write_runs_csv(records, path)
        parsed = read_runs_csv(path)
        assert len(parsed) == len(records)
        for name in ("regime", "output_index", "method", "valid"):
            assert getattr(parsed, name).tolist() == getattr(records, name).tolist(), name
        for name in ("rmse", "mae", "r2"):  # NaN where the run is invalid
            np.testing.assert_array_equal(getattr(parsed, name), getattr(records, name), err_msg=name)
        table_a = summarize(records, config)
        table_b = summarize(parsed, config)
        for ra, rb in zip(table_a.rows, table_b.rows):
            assert ra.rmse_mean == rb.rmse_mean
            assert ra.valid_runs == rb.valid_runs

    @pytest.mark.parametrize("seed", [42, 1009])
    def test_columns_equal_those_of_the_row_parser(self, tmp_path, full_run, seed):
        runs = full_run if seed == 42 else execute_experiment(
            generate(noise=ExperimentConfig(random_seed=seed).noise_spec()), ExperimentConfig(random_seed=seed))
        path = tmp_path / "runs.csv"
        write_runs_csv(runs, path)
        parsed, reference = read_runs_csv(path), reference_read_runs_csv(path)
        for name, column in vars(reference).items():
            if column is None:
                assert getattr(parsed, name) is None, name
            else:  # dtype and bits: -0.0, each NaN and the string width too
                assert getattr(parsed, name).dtype == column.dtype, name
                assert getattr(parsed, name).tobytes() == column.tobytes(), name

    @pytest.mark.parametrize("skip, message", [
        ((), "line 5: invalid literal for int() with base 10: 'x'"),
        ((3,), "line 5 does not have 13 fields"),
        ((3, 4), "line 5: could not convert string to float: 'NA'"),
    ], ids=["bad_int", "short_row", "bad_metric"])
    def test_first_bad_line_is_named_whatever_follows(self, tmp_path, skip, message):
        # The column-wise parse meets the bad valid cell first; the error
        # still names the first bad line, and a blank line counts as a line.
        lines = ["noisy,1,x3,2,0,rbf,true,ok,5,5,1,0.8,0.5",
                 "noisy,1,x3,2,0,rbf,false,singular_system,5,0,NA,NA,NA", "",
                 "noisy,1,x3,2,0,rbf,true,ok,5,x,1,0.8,0.5",
                 "noisy,1,x3,2,0,rbf,maybe,ok,5,5,1",
                 "noisy,1,x3,2,0,rbf,true,ok,5,5,1,NA,0.5"]
        path = tmp_path / "runs.csv"
        path.write_text("\n".join([RUNS_CSV_HEADER, *(line for i, line in enumerate(lines)
                                                      if i not in skip)]) + "\n")
        with pytest.raises(ValueError) as exc:
            read_runs_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_bad_line_in_a_later_block_is_named(self, tmp_path):
        ok = "noisy,1,x3,2,0,rbf,true,ok,5,5,1,0.8,0.5"
        path = tmp_path / "runs.csv"
        path.write_text("\n".join([RUNS_CSV_HEADER, *[ok] * CSV_BLOCK, ok.replace(",5,5,", ",5,x,")]) + "\n")
        with pytest.raises(ValueError) as exc:
            read_runs_csv(path)
        assert str(exc.value) == f"{path}: line {CSV_BLOCK + 2}: invalid literal for int() with base 10: 'x'"


class TestSummaryCsv:
    def test_header_and_shape(self, tmp_path):
        table = summarize(synthetic_run(), ExperimentConfig(bootstrap_resamples=10))
        path = tmp_path / "summary.csv"
        write_summary_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SUMMARY_CSV_HEADER
        assert len(lines) == 13  # header + 12 rows
        assert any(",NA," in line for line in lines[1:])  # undefined rows


def linear_truth_dataset():
    """A dataset whose outputs are linear in every slice's free axes."""
    spec = DesignSpec()
    noise = NoiseSpec(sigma1=0.0, sigma2=0.0, sigma3=0.0)
    ds = generate(spec, noise)
    x = ds.x
    linear = 0.5 + 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.25 * x[:, 2]
    y = np.column_stack([linear, linear, linear])
    return FactorialDataset(x=x.copy(), y_clean=y, spec=spec, noise=noise)


class TestSurfaceGrid:
    def test_rbf_grid_fully_defined(self, default_dataset, default_config):
        header, grid = export_surface_grid(
            default_dataset, "x3", 2.0, 1, "rbf", "noise-free", default_config
        )
        assert header == "x1,x2,value"
        assert grid.shape == (default_config.grid_resolution ** 2, 3)
        assert grid.dtype == np.float64
        assert np.isfinite(grid).all()

    def test_cubic_marks_cells_outside_hull(self, default_config):
        # drop one corner of the x3=2 slice so its hull is smaller than the box
        ds = generate()
        keep = ~((ds.x[:, 0] == 2.0) & (ds.x[:, 1] == 1.5) & (ds.x[:, 2] == 2.0))
        pruned = FactorialDataset(
            x=ds.x[keep].copy(), y_clean=ds.y_clean[keep].copy(), spec=ds.spec, noise=ds.noise,
        )
        _, grid = export_surface_grid(pruned, "x3", 2.0, 1, "cubic", "noise-free", default_config)
        assert np.isfinite(grid[:, :2]).all()
        assert np.isnan(grid[:, 2]).any(), "corner cells should be outside the training hull"
        corner = max(grid.tolist(), key=lambda r: (r[0], r[1]))
        assert math.isnan(corner[2])

    @pytest.mark.parametrize("method", METHODS)
    def test_linear_truth_reproduced_on_grid(self, method, default_config):
        ds = linear_truth_dataset()
        _, grid = export_surface_grid(ds, "x1", 1.0, 1, method, "noise-free", default_config)
        u, v, value = grid[np.isfinite(grid[:, 2])].T
        np.testing.assert_allclose(value, 0.5 + 2.0 * 1.0 - 1.0 * u + 0.25 * v, rtol=0, atol=1e-8)

    def test_unknown_slice_rejected(self, default_dataset):
        with pytest.raises(ValueError):
            export_surface_grid(default_dataset, "x3", 2.5, 1, "rbf", "noisy")


class TestPredVsTrue:
    def test_perfect_prediction_rows(self):
        columns = export_pred_vs_true(synthetic_run())
        assert [len(c) for c in columns] == [5] * 8
        np.testing.assert_array_equal(columns[6], columns[7])

    def test_invalid_records_excluded(self):
        columns = export_pred_vs_true(synthetic_run(valid=False))
        assert [len(c) for c in columns] == [0] * 8

    def test_filters(self):
        # a subset of the scatter is a mask over its columns, one entry per
        # test point of each run, in run order
        runs = concat([
            synthetic_run(method="cubic"),
            synthetic_run(method="rbf"),
            synthetic_run(method="rbf", output_index=2),
        ])
        columns = export_pred_vs_true(runs)
        assert [len(c) for c in columns] == [15] * 8
        keep = (columns[5] == "rbf") & (columns[1] == 2)
        np.testing.assert_array_equal(np.flatnonzero(keep), np.arange(10, 15))

    def test_table_read_from_runs_csv_rejected(self, tmp_path):
        write_runs_csv(synthetic_run(), tmp_path / "runs.csv")
        with pytest.raises(ValueError, match="no predictions"):
            export_pred_vs_true(read_runs_csv(tmp_path / "runs.csv"))

    def test_noisy_output3_rbf_residuals_have_both_heavy_tails(self, full_run):
        # the noisy high-sigma channel produces residuals beyond 2 sigma in
        # both directions for the exact RBF interpolant
        columns = export_pred_vs_true(full_run)
        keep = (columns[0] == "noisy") & (columns[1] == 3) & (columns[5] == "rbf")
        residuals = columns[7][keep] - columns[6][keep]
        sigma3 = 2.0
        assert (residuals > 2.0 * sigma3).any()
        assert (residuals < -2.0 * sigma3).any()


class TestDiagnose:
    def test_eleven_slices(self, default_dataset):
        reports = diagnose_slices(default_dataset)
        assert len(reports) == 11

    def test_single_slice_filter(self, default_dataset):
        reports = diagnose_slices(default_dataset, "x3", 2.0)
        assert len(reports) == 1
        assert reports[0]["mesh_ratio"] >= 1.0 - 1e-3
        assert reports[0]["n_nodes"] == 16

    def test_unknown_slice_rejected(self, default_dataset):
        with pytest.raises(ValueError):
            diagnose_slices(default_dataset, "x3", 9.9)

    def test_each_distinct_node_set_is_reported_once(self, default_dataset, monkeypatch):
        # 11 slices on 3 node sets; each entry equals its slice's own report
        nodes = []
        original = report.geometry_report
        monkeypatch.setattr(report, "geometry_report",
                            lambda points: nodes.append(points) or original(points))
        reports = diagnose_slices(default_dataset)
        assert len(reports) == 11 and len(nodes) == 3
        for entry in reports:
            level_index = default_dataset.spec.axis_levels(entry["fixed_axis"]).tolist().index(
                entry["fixed_level"])
            points = slice_nodes(default_dataset, entry["fixed_axis"], level_index)[1]
            assert entry == {"fixed_axis": entry["fixed_axis"], "fixed_level": entry["fixed_level"],
                             **original(points)}


class TestCli:
    @pytest.fixture()
    def small_config_file(self, tmp_path):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"repeats_per_slice": 2, "bootstrap_resamples": 20}))
        return path

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert cli_main(["generate", "--outdir", str(tmp_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 49
        assert "wrote" in capsys.readouterr().out

    def test_run_writes_artifacts_and_meta(self, tmp_path, small_config_file, capsys):
        outdir = tmp_path / "art"
        code = cli_main([
            "run", "--config", str(small_config_file), "--outdir", str(outdir), "--scatter",
        ])
        assert code == 0
        for name in ("dataset.csv", "runs.csv", "summary.csv", "settings.csv", "meta.json", "scatter.csv"):
            assert (outdir / name).exists(), name
        meta = json.loads((outdir / "meta.json").read_text())
        assert set(meta["files"]) == {
            "dataset.csv", "runs.csv", "summary.csv", "settings.csv", "scatter.csv",
        }
        assert meta["config_sha256"] == load_config(small_config_file).sha256()
        assert meta["runtime_seconds"] > 0
        assert meta["n_records"] == 2 * 33 * 2 * 2

    def test_report_round_trips_run_artifacts(self, tmp_path, small_config_file, capsys):
        outdir = tmp_path / "art"
        cli_main(["run", "--config", str(small_config_file), "--outdir", str(outdir)])
        run_table = capsys.readouterr().out.split("\n\nartifacts in")[0]
        # The report prints means only, so it draws no bootstrap interval.
        with mock.patch.object(report, "bootstrap_ci", side_effect=AssertionError("drew an interval")):
            assert cli_main(["report", "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out.splitlines() == run_table.splitlines()

    def test_run_prints_the_paired_contrast_after_the_report_table(self, tmp_path,
                                                                   small_config_file, capsys):
        outdir = tmp_path / "art"
        assert cli_main(["run", "--config", str(small_config_file), "--outdir", str(outdir),
                         "--scatter"]) == 0
        table, rest = capsys.readouterr().out.split("\n\nartifacts in")
        assert cli_main(["report", "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out == table + "\n"
        files, block = rest.split(
            "\n\npaired rmse contrast (rbf - cubic), mean over jointly valid runs:\n")
        assert "\n" not in files
        assert block.endswith("\n")
        assert block.splitlines() == paired_contrast_lines(outdir / "runs.csv")

    def test_report_empty_runs_fails(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUNS_CSV_HEADER + "\n")
        assert cli_main(["report", "--runs", str(runs)]) == 1
        assert "no runs" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        "noisy,1,x3,2,0,cubic,true,ok,5,5,1",  # truncated after rmse
        "noisy,1,x3,2,0,cubic,true,ok,5,5,1,0.8,0.5,extra",
    ])
    def test_report_malformed_row_fails_with_line_number(self, tmp_path, capsys, row):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUNS_CSV_HEADER + "\n" + row + "\n")
        assert cli_main(["report", "--runs", str(runs)]) == 2
        assert "line 2 does not have 13 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("row, cause", [
        ("noisy,1,x3,2,0,cubic,yes,ok,5,5,1,0.8,0.5", "valid must be true or false, got 'yes'"),
        ("noisy,1,x3,2,0,cubic,true,ok,5,5,NA,0.8,0.5", "could not convert string to float: 'NA'"),
    ], ids=["valid_not_a_bool", "metric_not_a_number"])
    def test_report_bad_cell_fails_with_path_and_line(self, tmp_path, capsys, row, cause):
        runs = tmp_path / "runs.csv"
        ok = "noisy,1,x3,2,0,rbf,true,ok,5,5,1,0.8,0.5"
        runs.write_text(RUNS_CSV_HEADER + "\n" + ok + "\n" + row + "\n")
        assert cli_main(["report", "--runs", str(runs)]) == 2
        assert f"{runs}: line 3: {cause}" in capsys.readouterr().err

    @staticmethod
    def report_beside(tmp_path, settings: str) -> int:
        """``surfbench report`` on a one-run runs.csv with ``settings`` as
        the settings.csv beside it."""
        (tmp_path / "runs.csv").write_text(RUNS_CSV_HEADER + "\nnoisy,1,x3,2,0,rbf,true,ok,5,5,1,0.8,0.5\n")
        (tmp_path / "settings.csv").write_text(settings)
        return cli_main(["report", "--outdir", str(tmp_path)])

    def test_report_reads_settings_with_blank_lines(self, tmp_path, capsys):
        settings = "key,value\nbootstrap_resamples,20\n"
        assert self.report_beside(tmp_path, settings) == 0
        expected = capsys.readouterr().out
        assert self.report_beside(tmp_path, settings.replace("\n", "\n\n")) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("row, cause", [
        ("noisx,1,x3,2,0,cubic,true,ok,5,5,1,0.8,0.5", "regime must be one of noise-free, noisy, got 'noisx'"),
        ("noisy,7,x3,2,0,cubic,true,ok,5,5,1,0.8,0.5", "output must be one of 1, 2, 3, got 7"),
        ("noisy,1,x4,2,0,cubic,true,ok,5,5,1,0.8,0.5", "fixed_axis must be one of x1, x2, x3, got 'x4'"),
        ("noisy,1,x3,2,0,cubicc,true,ok,5,5,1,0.8,0.5", "method must be one of cubic, rbf, got 'cubicc'"),
    ], ids=["regime", "output", "fixed_axis", "method"])
    def test_report_unknown_label_fails_with_path_and_line(self, tmp_path, capsys, row, cause):
        # summarize counts only the known labels, so such a run would be
        # dropped from the report without a word
        runs = tmp_path / "runs.csv"
        ok = "noisy,1,x3,2,0,rbf,true,ok,5,5,1,0.8,0.5"
        runs.write_text(RUNS_CSV_HEADER + "\n" + ok + "\n" + row + "\n")
        assert cli_main(["report", "--runs", str(runs)]) == 2
        assert capsys.readouterr().err == f"error: {runs}: line 3: {cause}\n"

    @pytest.mark.parametrize("argv, settings, expected", [
        (["--seed", "7"], True, dict(bootstrap_resamples=20, random_seed=7)),
        ([], True, dict(bootstrap_resamples=20, random_seed=5)),
        (["--seed", "7"], False, dict(random_seed=7)),
        (["--seed", "7", "--config", "small.json"], True, dict(repeats_per_slice=2, random_seed=7)),
    ], ids=["settings_then_seed", "settings", "seed", "config_over_settings"])
    def test_report_config_is_settings_beside_runs_then_seed(self, tmp_path, monkeypatch, argv,
                                                             settings, expected):
        # the settings.csv next to runs.csv (named by --runs, here in
        # another directory than --outdir), unless --config names a file
        runs_dir = tmp_path / "elsewhere"
        runs_dir.mkdir()
        (runs_dir / "runs.csv").write_text(RUNS_CSV_HEADER + "\nnoisy,1,x3,2,0,rbf,true,ok,5,5,1,0.8,0.5\n")
        if settings:
            ExperimentConfig(random_seed=5, bootstrap_resamples=20).write_settings_csv(
                runs_dir / "settings.csv")
        (tmp_path / "small.json").write_text(json.dumps({"repeats_per_slice": 2}))
        argv = [str(tmp_path / a) if a == "small.json" else a for a in argv]
        used = []
        monkeypatch.setattr(cli, "summarize", lambda runs, config: used.append(config) or summarize(runs, config))
        assert cli_main(["report", "--outdir", str(tmp_path), "--runs", str(runs_dir / "runs.csv"), *argv]) == 0
        assert used == [ExperimentConfig(**expected)]

    def test_report_settings_row_without_two_fields_fails_with_path_and_line(self, tmp_path, capsys):
        assert self.report_beside(tmp_path, "key,value\nrandom_seed,42\nbootstrap_resamples,20,7\n") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'settings.csv'}: line 3 does not have 2 fields" in err

    def test_report_settings_repeated_key_fails_naming_it(self, tmp_path, capsys):
        assert self.report_beside(tmp_path, "key,value\nrandom_seed,42\nrandom_seed,7\n") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'settings.csv'}: line 3 repeats key 'random_seed'" in err

    def test_json_config_repeated_key_fails_naming_it(self, tmp_path, capsys):
        # json.load alone keeps the last of the two values (seed 7)
        config = tmp_path / "config.json"
        config.write_text('{"random_seed": 1, "random_seed": 7}')
        with pytest.raises(ValueError, match="repeats key 'random_seed'"):
            load_config(config)
        assert cli_main(["run", "--config", str(config), "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {config}: repeats key 'random_seed'\n"
        assert not (tmp_path / "out").exists()

    def test_report_missing_file_fails(self, tmp_path, capsys):
        assert cli_main(["report", "--runs", str(tmp_path / "nope.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_surface_cubic_and_rbf(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        code = cli_main([
            "surface", "--axis", "x3", "--level", "2", "--output", "1",
            "--method", "rbf", "--outdir", str(tmp_path), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + 50 * 50

    def test_surface_counts_defined_cells(self, tmp_path, capsys, monkeypatch):
        grid = np.array([[1.0, 0.5, 0.1], [2.0, 0.5, math.nan], [3.0, 0.5, -2.0]])
        monkeypatch.setattr(cli, "export_surface_grid", lambda *args: ("x1,x2,value", grid))
        out = tmp_path / "surface.csv"
        code = cli_main([
            "surface", "--axis", "x3", "--level", "2", "--output", "1",
            "--method", "cubic", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[1:] == ["1,0.5,0.10000000000000001", "2,0.5,NA", "3,0.5,-2"]
        assert "(2/3 cells defined)" in capsys.readouterr().out

    def test_surface_fit_failure_fails_naming_it(self, tmp_path, capsys):
        config = tmp_path / "tiny_epsilon.json"
        config.write_text(json.dumps({"rbf_epsilon": 1e-300}))
        assert cli_main(["surface", "--config", str(config), "--axis", "x3", "--level", "2",
                         "--output", "2", "--method", "rbf", "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: saddle system is singular")

    def test_diagnose_prints_json(self, capsys):
        assert cli_main(["diagnose", "--axis", "x3", "--level", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["mesh_ratio"] >= 1.0 - 1e-3

    @pytest.mark.parametrize("argv, message", [
        (["--level", "99"], "no slice matches level=99.0"),
        (["--axis", "x3", "--level", "9.9"], "no slice matches axis=x3 and level=9.9"),
    ])
    def test_diagnose_without_a_matching_slice_names_the_filters_given(self, capsys, argv, message):
        assert cli_main(["diagnose", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_one_parser_serves_every_command(self, tmp_path, capsys):
        # surface, a malformed command, then diagnose in one process give
        # the outputs and exit codes of separate calls, each with a new parser.
        def commands(outdir):
            return [
                ["surface", "--axis", "x3", "--level", "3", "--output", "2", "--method", "cubic",
                 "--regime", "noisy", "--seed", "7", "--out", str(outdir / "grid.csv")],
                ["surface", "--axis", "x9", "--level", "3"],
                # no --axis: level 2 is a level of x1 and of x3
                ["diagnose", "--level", "2", "--out", str(outdir / "diagnose.json")],
            ]

        def outcome(outdir, code):
            out, err = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            return code, out.replace(str(outdir), "<dir>"), err, files

        cli._build_parser.cache_clear()
        shared, separate = [], []
        for argv in commands(tmp_path / "shared"):
            (tmp_path / "shared").mkdir(exist_ok=True)
            shared.append(outcome(tmp_path / "shared", cli_main(argv)))
        assert cli._build_parser.cache_info().misses == 1
        for argv in commands(tmp_path / "separate"):
            cli._build_parser.cache_clear()
            (tmp_path / "separate").mkdir(exist_ok=True)
            separate.append(outcome(tmp_path / "separate", cli_main(argv)))
        assert [s[0] for s in shared] == [0, 2, 0]
        assert "invalid choice: 'x9'" in shared[1][2]
        assert "(2 slices)" in shared[2][1]
        assert shared == separate

    def test_seed_override(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cli_main(["generate", "--outdir", str(tmp_path), "--out", str(out_a), "--seed", "1"])
        cli_main(["generate", "--outdir", str(tmp_path), "--out", str(out_b), "--seed", "2"])
        assert out_a.read_text() != out_b.read_text()

    def test_unknown_command_fails(self, capsys):
        assert cli_main(["bogus"]) != 0

    @pytest.mark.parametrize("entry", [
        {"repeats_per_slice": None},
        {"random_seed": [1]},
        {"noise_sigma_output1": {}},
        {"train_fraction": "abc"},
        {"rbf_epsilon": True},
    ])
    def test_config_value_of_wrong_type_fails_naming_the_key(self, tmp_path, capsys, entry):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(entry))
        assert cli_main(["run", "--config", str(path), "--outdir", str(tmp_path / "art")]) == 2
        assert f"error: {next(iter(entry))} must be" in capsys.readouterr().err

    def test_unreadable_config_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["run", "--config", str(bad), "--outdir", str(tmp_path)]) == 2
