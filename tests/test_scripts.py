"""Smoke tests of the scripts under scripts/, run as separate processes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from surfbench.cli import cli_main
from surfbench.report import read_runs_csv

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_export_figure_data_grids_match_surface_command(tmp_path, capsys):
    outdir = tmp_path / "figure_data"
    stdout = run_script("export_figure_data.py", "--outdir", outdir)
    assert sorted(p.name for p in outdir.iterdir()) == [
        "geometry_reports.json", "rmse_by_run.csv", "scatter_failure_slice.csv",
        "surface_cubic_noise_free.csv", "surface_cubic_noisy.csv",
        "surface_rbf_noise_free.csv", "surface_rbf_noisy.csv",
    ]
    assert stdout.count("wrote ") == 7
    for method in ("cubic", "rbf"):
        for regime in ("noise-free", "noisy"):
            out = tmp_path / f"{method}_{regime}.csv"
            assert cli_main([
                "surface", "--axis", "x3", "--level", "2", "--output", "2",
                "--method", method, "--regime", regime, "--out", str(out),
            ]) == 0
            name = f"surface_{method}_{regime.replace('-', '_')}.csv"
            assert (outdir / name).read_bytes() == out.read_bytes(), name
    rmse_lines = (outdir / "rmse_by_run.csv").read_text().splitlines()
    assert rmse_lines[0] == "regime,output,method,repeat,fixed_axis,fixed_level,rmse"
    assert "NA" not in "".join(rmse_lines)


def test_run_full_experiment_matches_run_command(tmp_path, capsys):
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"repeats_per_slice": 2, "bootstrap_resamples": 20}))
    script_dir, cli_dir = tmp_path / "script", tmp_path / "cli"
    stdout = run_script("run_full_experiment.py", "--config", config, "--outdir", script_dir)
    assert cli_main(["run", "--config", str(config), "--outdir", str(cli_dir), "--scatter"]) == 0

    names = sorted(p.name for p in cli_dir.iterdir())
    assert sorted(p.name for p in script_dir.iterdir()) == names
    for name in names:
        if name == "meta.json":
            script_meta, cli_meta = (json.loads((d / name).read_text()) for d in (script_dir, cli_dir))
            assert script_meta.pop("runtime_seconds") > 0
            cli_meta.pop("runtime_seconds")
            assert script_meta == cli_meta
        else:
            assert (script_dir / name).read_bytes() == (cli_dir / name).read_bytes(), name

    block = stdout.split("paired rmse contrast (rbf - cubic), mean over jointly valid runs:\n")
    assert len(block) == 2, stdout
    assert block[1].splitlines() == paired_contrast_lines(script_dir / "runs.csv")


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

