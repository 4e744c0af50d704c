"""Command-line interface: subcommands, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import susywkb
from susywkb.cli import main

# the child process imports the same susywkb as this one, installed or not
SRC = os.path.dirname(os.path.dirname(susywkb.__file__))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "susywkb.cli", *args],
                          capture_output=True, text=True, env=CHILD_ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_list_has_nine_rows():
    rc, out, _ = run_cli("list")
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0].startswith("id,mapping,")
    assert len(lines) == 10


def test_spectrum_swkb_eckart():
    rc, out, _ = run_cli("spectrum", "eckart", "--method", "swkb",
                         "--levels", "2")
    assert rc == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,energy,method,residual"
    assert rows[1].startswith("0,0,")
    assert rows[2].startswith("1,189,") or rows[2].startswith("1,188.999")


def test_spectrum_closed_form_json():
    rc, out, _ = run_cli("--format", "json", "spectrum", "eckart",
                         "--method", "closed_form", "--levels", "3")
    assert rc == 0
    doc = json.loads(out)
    assert [row["n"] for row in doc] == [0, 1, 2]
    assert doc[1]["energy"] == pytest.approx(189.0)


def test_census_counts():
    rc, out, _ = run_cli("census", "nonexact1", "--energy", "8")
    assert rc == 0
    rows = out.strip().splitlines()[1:]
    kinds = [r.split(",")[0] for r in rows]
    assert kinds.count("branch_point") == 12
    assert kinds.count("branch_cut") == 6


def test_contours_table():
    rc, out, _ = run_cli("contours", "eckart", "--energy", "189")
    assert rc == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    by_term = {}
    for r in rows:
        by_term.setdefault(r[0], []).append(r)
    assert len(by_term["pole"]) == 3
    assert "large_circle" in by_term
    assert "classical_cut" in by_term and "mirror_cut" in by_term


def test_defect_row():
    rc, out, _ = run_cli("defect", "nonexact1", "--level", "1")
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header.startswith("id,n,E_exact,J_swkb,")
    cells = row.split(",")
    assert cells[0] == "nonexact1"
    assert float(cells[2]) == pytest.approx(4.0, abs=1e-3)


def test_determinism_byte_identical(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--out", str(f1), "spectrum", "eckart", "--method",
                 "closed_form", "--levels", "3"]) == 0
    assert main(["--out", str(f2), "spectrum", "eckart", "--method",
                 "closed_form", "--levels", "3"]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"B": 20.0}, "hbar": 1.0}))
    out = tmp_path / "out.csv"
    rc = main(["--config", str(cfg), "--out", str(out), "spectrum", "eckart",
               "--method", "closed_form", "--levels", "2"])
    assert rc == 0
    # E_1 = A^2 + B^2/A^2 - B^2/(A+1)^2 - (A+1)^2 with B=20
    row = out.read_text().splitlines()[2].split(",")
    assert float(row[1]) == pytest.approx(1.0 + 400.0 - 100.0 - 4.0)
    # explicit --params beats the config file
    rc = main(["--config", str(cfg), "--params", "B=16", "--out", str(out),
               "spectrum", "eckart", "--method", "closed_form",
               "--levels", "2"])
    assert rc == 0
    assert float(out.read_text().splitlines()[2].split(",")[1]) == \
        pytest.approx(189.0)


def test_exit_code_usage_error():
    rc, _, err = run_cli("spectrum")           # missing id
    assert rc == 1
    rc, _, _ = run_cli("bogus-subcommand")
    assert rc == 1


def test_exit_code_domain_error():
    rc, _, err = run_cli("spectrum", "unknown-id")
    assert rc == 2
    assert "error" in err
    rc, _, _ = run_cli("--params", "B=0.5", "spectrum", "eckart")
    assert rc == 2


def test_complex_cells_quoted():
    rc, out, _ = run_cli("census", "scarf2", "--energy", "5")
    assert rc == 0
    assert '"' in out        # complex locations are single quoted fields
