"""Smoke test of scripts/export_figure_data.py, run as a separate process."""

import os
import subprocess
import sys
from pathlib import Path

from surfbench.cli import cli_main

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
