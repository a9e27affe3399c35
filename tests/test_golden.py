"""Golden values of the full default experiment (seed 42).

The reason histogram is pinned exactly. Summary values are pinned within
abs 1e-9 + rel 1e-6 rather than byte for byte, because their last digits
depend on the platform's floating-point libraries. Only the sha256 digests
of runs.csv, summary.csv, scatter.csv, dataset.csv, settings.csv, the
`surfbench report` printout, twelve surface grids and diagnose.json are
pinned byte for byte, and only under the numpy version they were recorded
with. The paired contrast that `surfbench run` prints is pinned as text,
to the four decimals it prints.
"""

import dataclasses
import hashlib
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from surfbench import report
from surfbench.cli import cli_main, run_experiment
from surfbench.config import ExperimentConfig
from surfbench.protocol import REGIMES, execute_experiment, rbf_condition_summary, reason_histogram
from surfbench.report import summarize, write_runs_csv, write_summary_csv
from surfbench.synthdata import DesignSpec

REASONS = {
    ("cubic", "ok"): 402,
    ("cubic", "test_points_outside_support"): 2238,
    ("rbf", "ok"): 2640,
}

# (regime, output, method), valid runs, then rmse_mean, rmse_ci_lo,
# rmse_ci_hi, mae_mean, r2_mean, r2_ci_lo, r2_ci_hi as in summary.csv.
SUMMARY = (
    (("noise-free", 1, "cubic"), 65,
     (0.066640554240298674, 0.05482045579558089, 0.079230425852188535, 0.052661732765726735,
      0.98615355667676963, 0.97953585787927033, 0.99163617709941032)),
    (("noise-free", 1, "rbf"), 440,
     (0.050339619239284379, 0.044746776561290856, 0.055475591359887368, 0.042505008921501122,
      0.99212817659499808, 0.98979506710260856, 0.99411710167052547)),
    (("noise-free", 2, "cubic"), 74,
     (0.22707454347024125, 0.17009477594706107, 0.28224671869232842, 0.15874293014900401,
      0.98730455678435958, 0.98274526877008905, 0.99149199054264592)),
    (("noise-free", 2, "rbf"), 440,
     (0.094116131024076802, 0.084735815919706012, 0.10484770403785061, 0.07277582342155435,
      0.98082446792093703, 0.94780944291024227, 0.99764002070405911)),
    (("noise-free", 3, "cubic"), 66,
     (0.0083626730273336641, 0.0074240274844081123, 0.0094572915545320397, 0.0063334445539206183,
      0.99983107793417347, 0.99976633654765457, 0.99988254949402455)),
    (("noise-free", 3, "rbf"), 440,
     (0.047576875204362851, 0.039530718492570061, 0.055903094856395552, 0.038509893139560401,
      0.98566218430516439, 0.97357102716040822, 0.99331778092081935)),
    (("noisy", 1, "cubic"), 64,
     (0.10687144739804211, 0.095890269348445148, 0.11751765048869295, 0.091677337689011595,
      0.97637453469852542, 0.96990730730717511, 0.98264315021463422)),
    (("noisy", 1, "rbf"), 440,
     (0.16535700379595256, 0.15853013179244915, 0.17201783486725369, 0.13874144851949929,
      0.95278086911283477, 0.9446203200521408, 0.95961815885304558)),
    (("noisy", 2, "cubic"), 63,
     (1.3637922538325813, 1.255514767840809, 1.4745881614123673, 1.17401308198431,
      -0.071149786888575137, -0.99400843844183995, 0.48303807189553216)),
    (("noisy", 2, "rbf"), 440,
     (2.1386529438976769, 2.0473400509703188, 2.2376901828123654, 1.8184797231450636,
      -1.2078700174676653, -1.8744090387579559, -0.62979899078084256)),
    (("noisy", 3, "cubic"), 70,
     (2.3985971662719456, 2.1986402071336735, 2.6031111657086803, 2.0758733430772658,
      -3.9744314110382066, -5.7486329568560617, -2.5242815385335264)),
    (("noisy", 3, "rbf"), 440,
     (4.28370183152607, 4.0827303874101926, 4.5020164481738529, 3.6557064048762022,
      -13.598651733757931, -16.835986389002134, -11.080588450172154)),
)


def test_reason_histogram(full_run):
    assert Counter(zip(full_run.method.tolist(), full_run.reason.tolist())) == REASONS


def test_reason_histogram_with_failing_rbf_fits(default_dataset):
    # one training node in ten: the only kind of config where RBF fits fail
    # (collinear training sets), so it pins how their reasons are recorded
    records = execute_experiment(default_dataset, ExperimentConfig(train_fraction=0.1))
    per_regime = {
        "cubic": {"fit_failed:degenerate_geometry": 124, "test_points_outside_support": 1196},
        "rbf": {"fit_failed:singular_system": 124, "ok": 1196},
    }
    assert reason_histogram(records) == {regime: per_regime for regime in REGIMES}


def test_meta_reason_histogram(default_config, full_run, tmp_path, capsys):
    run_experiment(default_config, tmp_path)
    capsys.readouterr()
    meta = json.loads((tmp_path / "meta.json").read_text())
    reasons = meta["reasons"]
    assert reasons == reason_histogram(full_run)
    assert meta["rbf_condition"] == rbf_condition_summary(full_run)
    assert {regime: c["fits"] for regime, c in meta["rbf_condition"].items()} == {
        "noise-free": 1320, "noisy": 1320}
    totals = Counter()
    for by_method in reasons.values():
        for method, counts in by_method.items():
            totals.update({(method, reason): n for reason, n in counts.items()})
    assert totals == REASONS


# The block `surfbench run` prints last: the mean of RBF minus cubic RMSE
# over the splits where both runs are valid, per (regime, output).
PAIRED_CONTRAST = """
paired rmse contrast (rbf - cubic), mean over jointly valid runs:
  noise-free  output1: -0.0324  (n=65)
  noise-free  output2: -0.1508  (n=74)
  noise-free  output3: +0.0048  (n=66)
  noisy       output1: +0.0090  (n=64)
  noisy       output2: +0.1974  (n=63)
  noisy       output3: +0.6092  (n=70)
"""


def test_run_ends_with_the_paired_contrast(default_config, tmp_path, capsys):
    run_experiment(default_config, tmp_path)
    out = capsys.readouterr().out
    assert out.endswith(f"meta.json\n{PAIRED_CONTRAST}")


def test_summary_values(summary):
    for key, runs, expected in SUMMARY:
        row = summary.row(*key)
        assert row.valid_runs == runs, key
        actual = (row.rmse_mean, row.rmse_ci.lower, row.rmse_ci.upper, row.mae_mean,
                  row.r2_mean, row.r2_ci.lower, row.r2_ci.upper)
        np.testing.assert_allclose(actual, expected, rtol=1e-6, atol=1e-9, err_msg=str(key))


def test_condition_estimates_leave_runs_and_summary_unchanged(default_config, full_run, tmp_path):
    np.testing.assert_array_equal(~np.isnan(full_run.condition_estimate), full_run.method == "rbf")
    bare = dataclasses.replace(full_run, condition_estimate=np.full(len(full_run), np.nan))
    for name, records in (("with", full_run), ("without", bare)):
        write_runs_csv(records, tmp_path / f"runs_{name}.csv")
        write_summary_csv(summarize(records, default_config), tmp_path / f"summary_{name}.csv")
    for table in ("runs", "summary"):
        assert (tmp_path / f"{table}_with.csv").read_bytes() == (tmp_path / f"{table}_without.csv").read_bytes()


SUMMARY_CSV_DIGEST = "41e3bc1f7bc7ad5b295a7ebb4f63ac660aaa8275df3117e8d72c82d05d7ac18d"


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the digests were recorded with numpy 2.4.6; another numpy or "
                           "floating-point library may change the last digits of the artifacts")
def test_default_artifact_digests(tmp_path, capsys):
    assert cli_main(["run", "--outdir", str(tmp_path), "--scatter"]) == 0
    capsys.readouterr()
    names = ("runs.csv", "summary.csv", "scatter.csv", "dataset.csv", "settings.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
    assert cli_main(["report", "--outdir", str(tmp_path)]) == 0
    digests["report"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == {
        "runs.csv": "caee91258a86cba93a9a0f1e778f14542436d54b7db8b0fd90b2a3bec718567c",
        "summary.csv": SUMMARY_CSV_DIGEST,
        "scatter.csv": "26cb70559be9a85b5d3a343ea721447831b6ce62da476522ecf1ed013365193b",
        "dataset.csv": "7ef2eff6d54900c8dcd2850417951247281d266162c873e338e8b838db5e9da2",
        "settings.csv": "d378dc514dd6a23646a16c948967ed4a89250526c3a1d432d42b219bb2ef63a7",
        "report": "b326b3eaaa6826f1e7ec0f2d2aba01e0dfdf7087d437441add2ff961a97a4f40",
    }


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the digests were recorded with numpy 2.4.6; another numpy or "
                           "floating-point library may change the last digits of the artifacts")
def test_summary_csv_draws_each_interval_once(full_run, default_config, tmp_path):
    with mock.patch.object(report, "bootstrap_ci", wraps=report.bootstrap_ci) as draws:
        table = summarize(full_run, default_config)
        assert draws.call_count == 0
        intervals = [(row.rmse_ci, row.r2_ci) for row in table.rows]
        assert draws.call_count == 24 and None not in sum(intervals, ())
        write_summary_csv(table, tmp_path / "summary.csv")
        assert draws.call_count == 24
    assert hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest() == SUMMARY_CSV_DIGEST


# sha256 of `surfbench surface` grids (seed 42), one (level, output) per
# axis, for each regime and method, and of `surfbench diagnose`.
SURFACE_DIGESTS = {
    ("noise-free", "x1", 1, 1, "cubic"): "aaddf511e1e5d77974df536f8cfde59d45910e5819abdcf0c043d718793454ee",
    ("noise-free", "x1", 1, 1, "rbf"): "0a22ba86ce89919202645630ed704411c96d968a79ff22ab04941ee0072727ca",
    ("noise-free", "x2", 2, 2, "cubic"): "44d4564c3b4c02e750b7d90654bbcc90d504b8fc9a1b5b8e074f03b9f2db7c29",
    ("noise-free", "x2", 2, 2, "rbf"): "8168fafcb14d40a6478a68fb710c114d9fbe909dfdee5e6a4f3a3ac11c34b469",
    ("noise-free", "x3", 1, 3, "cubic"): "96fed8eeef3362b3cdb181311fe59aed1c94824d9ce34894504ad531216a0473",
    ("noise-free", "x3", 1, 3, "rbf"): "27781df13e424a944112959ec7cd9510e921143fdf164f9ed3ae1342b5176f87",
    ("noisy", "x1", 1, 1, "cubic"): "46110421edba1174ea19b92819e21d39b8528d927ac97488daaaf728b6df723a",
    ("noisy", "x1", 1, 1, "rbf"): "c4cc09f08d9a11855d87b13eb1be75660eb76f74d8bc9a4c267c6cb96fb0e8e8",
    ("noisy", "x2", 2, 2, "cubic"): "98886fc7c19ecd9ab23c49fbb24d8e914cab22c339f279e35648172648f833d5",
    ("noisy", "x2", 2, 2, "rbf"): "db906e24d874592ac705efcbadaef42cceba0bd0e4c8c680881d9ca85615b00e",
    ("noisy", "x3", 1, 3, "cubic"): "d60e733afdd7c5b5d5ef8d0a19ace05499d89b23ef8de39c8aec469b4de74ac9",
    ("noisy", "x3", 1, 3, "rbf"): "b06f0631f048670ef0164d0d050cf7546880cf3b3b63acafb8ad65cbc0de59e2",
}
DIAGNOSE_DIGEST = "de508a20fa1e4768ad89015ef67f07a4b03e2dc05e74075dfb88c870ac68d843"


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the digests were recorded with numpy 2.4.6; another numpy or "
                           "floating-point library may change the last digits of the artifacts")
def test_surface_and_diagnose_digests(tmp_path, capsys):
    levels = DesignSpec().axis_levels
    digests = {}
    for key in SURFACE_DIGESTS:
        regime, axis, level_index, output, method = key
        out = tmp_path / "grid.csv"
        assert cli_main(["surface", "--axis", axis, "--level", repr(float(levels(axis)[level_index])),
                         "--output", str(output), "--method", method, "--regime", regime,
                         "--out", str(out)]) == 0
        digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert cli_main(["diagnose", "--out", str(tmp_path / "diagnose.json")]) == 0
    capsys.readouterr()
    assert digests == SURFACE_DIGESTS
    assert hashlib.sha256((tmp_path / "diagnose.json").read_bytes()).hexdigest() == DIAGNOSE_DIGEST
