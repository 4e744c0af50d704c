"""Command-line interface: subcommands, formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import susywkb
from susywkb import catalog, swkb
from susywkb.cli import main

# the child process imports the same susywkb as this one, installed or not
SRC = os.path.dirname(os.path.dirname(susywkb.__file__))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    """main(args) in this process: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(args))
        except SystemExit as exc:      # a usage error
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_module_runs_as_a_child_process():
    # python -m susywkb.cli exits with main's code and writes its bytes
    for args in (["list"], ["spectrum", "unknown-id"]):
        proc = subprocess.run([sys.executable, "-m", "susywkb.cli", *args],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(*args)


# closure_sweep.py exits 1 when a closure residual exceeds 1e-12;
# defect_scan.py takes both quadratures at nonexact2's oracle level;
# oracle_sweeps.py wraps the oracle's bracket search by name
@pytest.mark.parametrize("script, args", [
    ("root_steps.py", ["eckart", "scarf1"]), ("closure_sweep.py", []),
    ("defect_scan.py", []), ("oracle_sweeps.py", ["nonexact2"]),
])
def test_script_exits_cleanly(script, args):
    scripts = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "scripts")
    proc = subprocess.run([sys.executable, os.path.join(scripts, script),
                           *args], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stdout + proc.stderr


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


def parse_cell(cell):
    return complex(cell.strip('"').replace("i", "j"))


@pytest.mark.parametrize("pot_id, E", [("nonexact1", "4"),
                                       ("nonexact2", "0.03125")])
def test_census_rows_ignore_rounding_noise(pot_id, E, capsys):
    # of conjugate poles and branch points whose real parts differ only by
    # rounding noise (1.8e-30 against -1.3e-44) the lower one comes first
    assert main(["census", pot_id, "--energy", E]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    for kind in ("fixed_pole", "branch_point"):
        points = [parse_cell(r[1]) for r in rows
                  if r[0] == kind and r[1] != "infinity"]
        assert points == sorted(points, key=catalog.plane_key)


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


def test_dump_wavefunction_names_only_the_suffix(tmp_path):
    # a ".csv" elsewhere in the path stays as it is
    out_dir = tmp_path / "runs.csv.d"
    out_dir.mkdir()
    assert main(["--dump-wavefunction", str(out_dir / "wf"), "spectrum",
                 "eckart", "--method", "numerov", "--levels", "1"]) == 0
    dumped = out_dir / "wf.n0.csv"
    assert dumped.exists()
    assert dumped.read_text().splitlines()[0] == "x,psi"


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
    rc, _, _ = run_cli("--tol", "1e-8", "spectrum", "eckart")
    assert rc == 1


def test_exit_code_domain_error():
    rc, _, err = run_cli("spectrum", "unknown-id")
    assert rc == 2
    assert "error" in err
    rc, _, _ = run_cli("--params", "B=0.5", "spectrum", "eckart")
    assert rc == 2
    # every subcommand refuses hbar = 0, NaN or inf, list included, and a
    # --params value that is not a finite number, or whose closed form
    # overflows (scarf2's A^2 at A = 1e308), ends in the error, not a
    # traceback
    for args in (["--hbar", "0", "list"], ["--hbar", "inf", "list"],
                 ["--hbar", "inf", "spectrum", "eckart"],
                 ["--hbar", "nan", "spectrum", "scarf1"],
                 ["--params", "A=abc", "spectrum", "eckart"],
                 ["--params", "A=inf", "spectrum", "scarf2"],
                 ["--params", "A=1e308", "spectrum", "scarf2"]):
        rc, out, err = run_cli(*args)
        assert (rc, out) == (2, ""), args
        assert err.startswith("error: ") and "Traceback" not in err, args


def test_complex_cells_quoted():
    rc, out, _ = run_cli("census", "scarf2", "--energy", "5")
    assert rc == 0
    assert '"' in out        # complex locations are single quoted fields


@pytest.mark.parametrize("pot_id", susywkb.CATALOG_IDS)
def test_every_entry_solves_or_refuses_in_process(pot_id, capsys):
    assert main(["spectrum", pot_id, "--method", "swkb", "--levels", "2"]) == 0
    # more than two cuts is the documented DomainError of the contour route
    want = 0 if pot_id in susywkb.EXACT_IDS else 2
    assert main(["spectrum", pot_id, "--method", "contour",
                 "--levels", "2"]) == want


def test_compare_nonexact2_in_process(capsys):
    assert main(["compare", "nonexact2", "--levels", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3


def test_compare_solves_each_swkb_level_once(monkeypatch, capsys):
    # without a closed form the oracle starts at the SWKB level, which
    # compare has solved already
    solved = []
    solve_level = swkb.solve_level

    def counted(spec, n):
        solved.append(n)
        return solve_level(spec, n)

    monkeypatch.setattr(swkb, "solve_level", counted)
    assert main(["compare", "nonexact2", "--levels", "2"]) == 0
    assert solved == [0, 1]


@pytest.mark.parametrize("pot_id", susywkb.CATALOG_IDS)
def test_spectrum_numerov_equals_compare_oracle(pot_id, capsys):
    # both start the oracle at the same level: the closed form, else SWKB
    assert main(["spectrum", pot_id, "--method", "numerov",
                 "--levels", "2"]) == 0
    spectrum = capsys.readouterr().out.strip().splitlines()[1:]
    assert main(["compare", pot_id, "--levels", "2"]) == 0
    compare = capsys.readouterr().out.strip().splitlines()
    column = compare[0].split(",").index("E_numerov")
    assert len(spectrum) == len(compare) - 1 == 2
    for s_row, c_row in zip(spectrum, compare[1:]):
        assert s_row.split(",")[1] == c_row.split(",")[column]


def test_spectrum_by_poles_in_process(capsys):
    # nonexact2's pole levels 1/16 - 1/(2n + 4)^2; on a two-cut entry the
    # pole route prints the contour route's energies
    assert main(["spectrum", "nonexact2", "--method", "poles",
                 "--levels", "3"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["n", "energy", "method", "residual"]
    assert [r[2] for r in rows[1:]] == ["poles"] * 3
    assert [r[1] for r in rows[1:]] == ["0", "0.0347222222222", "0.046875"]
    energies = {}
    for method in ("poles", "contour"):
        assert main(["spectrum", "scarf1", "--method", method]) == 0
        energies[method] = [r.split(",")[1] for r in
                            capsys.readouterr().out.splitlines()[1:]]
    assert energies["poles"] == energies["contour"]
    assert main(["spectrum", "nonexact3", "--method", "poles"]) == 2


def test_residues_table_in_process(capsys):
    # eckart at E_1 = 189: the sheet's terms beside the QHJ terms, J = 1 at
    # y = +-1 (the other root gives 0), -10 at y = 0 and -6 at infinity
    assert main(["residues", "eckart", "--level", "1"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["n", "E", "term", "location", "J_swkb", "J_qhj",
                       "J_qhj_other"]
    assert [r[2] for r in rows[1:]] == ["pole"] * 3 + ["large_circle"]
    want = {-1: (1, 0), 0: (-10, None), 1: (1, 0), "infinity": (-6, None)}
    for r in rows[1:]:
        assert r[:2] == ["1", "189"]
        loc = r[3] if r[3] == "infinity" else int(parse_cell(r[3]).real)
        J, other = want[loc]
        assert abs(parse_cell(r[4]) - J) <= 1e-9
        assert abs(parse_cell(r[5]) - J) <= 1e-12
        assert (r[6] == "") == (other is None)
        if other is not None:
            assert abs(parse_cell(r[6]) - other) <= 1e-12
