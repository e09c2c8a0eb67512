import os
import re

import numpy as np
import pytest

from brownian_transport import cli
from brownian_transport.cli import ENV_OUT_DIR, main
from brownian_transport.lattice import LatticeMeasure
from brownian_transport.pipeline import CantelliConfig, run_pipeline
from brownian_transport.solver import solve


def test_pipeline_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["pipeline", "n=32", "depth=5", f"out_dir={out}", "svg=1"])
    assert code == 0
    for name in ("f.csv", "phi.csv", "cantor.csv", "meta", "f1.svg",
                 "phi.svg"):
        assert (out / name).exists(), name
    meta = dict(
        line.split("=", 1) for line in (out / "meta").read_text().splitlines()
    )
    assert set(meta) == {"t0", "c", "C", "E_T", "n", "R"}
    assert meta["n"] == "32"
    header = (out / "f.csv").read_text().splitlines()[0]
    assert header == "x,f"


def test_pipeline_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "n=32", "depth=5", f"out_dir={a}"]) == 0
    assert main(["pipeline", "n=32", "depth=5", f"out_dir={b}"]) == 0
    for name in ("f.csv", "phi.csv", "cantor.csv", "meta"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_pipeline_passes_only_the_given_keys(tmp_path, monkeypatch):
    # the keys left out keep CantelliConfig's own defaults
    seen = []

    def spy(cfg):
        seen.append(cfg)
        return run_pipeline(cfg)

    monkeypatch.setattr(cli, "run_pipeline", spy)
    assert main(["pipeline", "n=50", f"out_dir={tmp_path}"]) == 0
    assert seen == [CantelliConfig(mesh_n=50)]


def test_verify_passes_only_the_given_keys(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli.acceptance, "run_all",
                        lambda report, **params: seen.append(params) or [])
    assert main(["verify", "seed=1", "meshes=32,64", "cells=4"]) == 0
    assert seen == [{"seed": 1, "meshes": (32, 64), "enumeration_cells": 4}]


def test_full_precision_floats(tmp_path):
    out = tmp_path / "p"
    main(["pipeline", "n=32", "depth=5", f"out_dir={out}"])
    txt = (out / "meta").read_text()
    # the normalizer keeps its full 17 significant digits
    c_line = next(l for l in txt.splitlines() if l.startswith("c="))
    assert len(c_line.split("=")[1].replace(".", "").lstrip("0")) >= 15


def test_invalid_t0_exits_2(tmp_path, capsys):
    code = main(["pipeline", "t0=1.5", f"out_dir={tmp_path}"])
    assert code == 2
    assert "t0" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    code = main(["pipeline", "bogus=1", f"out_dir={tmp_path}"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_command_exits_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_solve_roundtrip(tmp_path):
    mu0 = LatticeMeasure(1, 0, np.array([1.0]))
    mu1 = LatticeMeasure(1, -2, np.array([0.25, 0.25, 0.0, 0.25, 0.25]))
    mu0.to_csv(tmp_path / "mu0.csv")
    mu1.to_csv(tmp_path / "mu1.csv")
    out = tmp_path / "sol"
    code = main([
        "solve", f"mu0={tmp_path / 'mu0.csv'}", f"mu1={tmp_path / 'mu1.csv'}",
        f"out_dir={out}", "verbose=2",
    ])
    assert code == 0
    sol_lines = (out / "solution.csv").read_text().splitlines()
    assert sol_lines[0] == "position,g_physical,q"
    assert len(sol_lines) == 6
    log_lines = (out / "steplog.csv").read_text().splitlines()
    assert log_lines[0] == "t,cell,nu,phi,frozen_flag"
    assert len(log_lines) > 5
    assert (out / "stopped.csv").exists()


def test_solve_verbose_1_reports_on_stderr(tmp_path, capsys):
    # steps, freeze steps, mean live span and steps/s on standard error;
    # standard output and the written files as without verbose
    mu0 = LatticeMeasure(1, 0, np.array([1.0]))
    mu1 = LatticeMeasure(1, -2, np.array([0.25, 0.25, 0.0, 0.25, 0.25]))
    mu0.to_csv(tmp_path / "mu0.csv")
    mu1.to_csv(tmp_path / "mu1.csv")
    runs = []
    for verbose in (0, 1):
        out = tmp_path / f"verbose{verbose}"
        assert main([
            "solve", f"mu0={tmp_path / 'mu0.csv'}",
            f"mu1={tmp_path / 'mu1.csv'}", f"out_dir={out}",
            f"verbose={verbose}",
        ]) == 0
        captured = capsys.readouterr()
        runs.append((captured.out.replace(str(out), "OUT"), captured.err,
                     sorted((f.name, f.read_bytes()) for f in out.iterdir())))
    (out0, err0, files0), (out1, err1, files1) = runs
    assert (out1, files1) == (out0, files0)
    assert err0 == ""
    assert re.fullmatch(r"solve: 3 steps, 2 freeze steps, mean live span "
                        r"3\.0 of 5 cells, \d+ steps/s\n", err1), err1


def test_steplog_rows_match_per_cell_formatting(tmp_path):
    # reference: the row of every cell of every stepping state, formatted
    # one value at a time
    mu0 = LatticeMeasure(1, 0, np.array([1.0]))
    mu1 = LatticeMeasure(1, -2, np.array([0.25, 0.25, 0.0, 0.25, 0.25]))
    mu0.to_csv(tmp_path / "mu0.csv")
    mu1.to_csv(tmp_path / "mu1.csv")
    expected = ["t,cell,nu,phi,frozen_flag\n"]

    def rows(state):
        if float(state.live.sum()) <= 1e-12:
            return
        for k in range(state.live.size):
            expected.append(
                f"{state.t},{state.offset + k},{float(state.live[k]):.17g},"
                f"{float(state.phi[k]):.17g},{int(state.absorbing[k])}\n"
            )

    solve(mu0, mu1, observe=rows)
    out = tmp_path / "sol"
    assert main([
        "solve", f"mu0={tmp_path / 'mu0.csv'}", f"mu1={tmp_path / 'mu1.csv'}",
        f"out_dir={out}", "verbose=2",
    ]) == 0
    assert (out / "steplog.csv").read_text() == "".join(expected)
    assert len(expected) == 1 + 3 * 5


def test_steplog_covers_runs_beyond_ten_thousand_steps(tmp_path):
    # point mass to the two edges of a 51-cell window: 14 111 steps, one
    # block of rows per step up to termination
    m = 25
    target = np.zeros(2 * m + 1)
    target[[0, -1]] = 0.5
    mu0 = LatticeMeasure(1, 0, np.array([1.0]))
    mu1 = LatticeMeasure(1, -m, target)
    mu0.to_csv(tmp_path / "mu0.csv")
    mu1.to_csv(tmp_path / "mu1.csv")
    out = tmp_path / "sol"
    code = main([
        "solve", f"mu0={tmp_path / 'mu0.csv'}", f"mu1={tmp_path / 'mu1.csv'}",
        f"out_dir={out}", "verbose=2",
    ])
    assert code == 0
    steps = solve(mu0, mu1).steps
    assert steps > 10_000
    with open(out / "steplog.csv") as fh:
        next(fh)
        ts = [int(line.split(",", 1)[0]) for line in fh]
    assert ts == [t for t in range(steps) for _ in range(target.size)]


def test_solve_reads_a_point_mass_at_0_on_the_other_inputs_mesh(tmp_path):
    # a file whose rows all sit at position 0 does not state its mesh
    mu0 = LatticeMeasure(2, 0, np.array([1.0]))
    mu1 = LatticeMeasure(2, -1, np.array([0.5, 0.0, 0.5]))
    mu0.to_csv(tmp_path / "a.csv")
    mu1.to_csv(tmp_path / "b.csv")
    out = tmp_path / "sol"
    code = main(["solve", f"mu0={tmp_path / 'a.csv'}",
                 f"mu1={tmp_path / 'b.csv'}", f"out_dir={out}"])
    assert code == 0
    stopped = LatticeMeasure.from_csv(out / "stopped.csv")
    assert stopped.mesh_n == 2 and stopped.offset == -1
    assert np.array_equal(stopped.masses, mu1.masses)


def test_solve_infeasible_exits_2(tmp_path, capsys):
    mu0 = LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5]))
    mu1 = LatticeMeasure(1, 0, np.array([1.0]))  # variance decreases
    mu0.to_csv(tmp_path / "mu0.csv")
    mu1.to_csv(tmp_path / "mu1.csv")
    code = main([
        "solve", f"mu0={tmp_path / 'mu0.csv'}", f"mu1={tmp_path / 'mu1.csv'}",
        f"out_dir={tmp_path}",
    ])
    assert code == 2


def _solve_with_mu0(tmp_path, mu0_text):
    mu1 = LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5]))
    mu1.to_csv(tmp_path / "mu1.csv")
    mu0 = tmp_path / "mu0.csv"
    if mu0_text is not None:
        mu0.write_text(mu0_text)
    return main(["solve", f"mu0={mu0}", f"mu1={tmp_path / 'mu1.csv'}",
                 f"out_dir={tmp_path / 'sol'}"])


def test_solve_missing_input_exits_2(tmp_path, capsys):
    assert _solve_with_mu0(tmp_path, None) == 2
    err = capsys.readouterr().err
    assert "mu0.csv" in err and "Traceback" not in err


def test_solve_header_only_input_exits_2(tmp_path, capsys):
    assert _solve_with_mu0(tmp_path, "cell_index,position,mass\n") == 2
    err = capsys.readouterr().err
    assert "mu0.csv" in err and "no rows" in err


def test_solve_short_row_exits_2(tmp_path, capsys):
    code = _solve_with_mu0(tmp_path,
                           "cell_index,position,mass\n0,0,0.5\n1,1\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "mu0.csv line 3" in err and "'1,1'" in err


def test_solve_position_off_its_cell_exits_2(tmp_path, capsys):
    # the mesh read off the first row, 3, puts cell 1 at 1/3, not 0.3
    LatticeMeasure(1, 0, np.array([1.0])).to_csv(tmp_path / "a.csv")
    (tmp_path / "b.csv").write_text(
        "cell_index,position,mass\n-1,-0.3,0.5\n0,0,0\n1,0.3,0.5\n")
    code = main(["solve", f"mu0={tmp_path / 'a.csv'}",
                 f"mu1={tmp_path / 'b.csv'}", f"out_dir={tmp_path / 'sol'}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "b.csv line 2" in err and "-1/3" in err
    assert not (tmp_path / "sol").exists()


def test_cantor_command(tmp_path):
    code = main([
        "cantor", "r=0.5", "depth=6", "samples=300", "seed=1",
        f"out_dir={tmp_path}",
    ])
    assert code == 0
    assert (tmp_path / "cantor.csv").exists()
    gaps = (tmp_path / "gap_constants").read_text()
    assert "alpha_quadratic=" in gaps


@pytest.mark.parametrize("bound", ["lo=0", "hi=0.5"])
def test_cantor_with_one_endpoint_exits_2(tmp_path, capsys, bound):
    code = main(["cantor", bound, "depth=4", f"out_dir={tmp_path}"])
    assert code == 2
    missing = "hi" if bound.startswith("lo") else "lo"
    assert f"{missing}= is missing" in capsys.readouterr().err


def test_cantor_zero_samples_exits_2(tmp_path, capsys):
    code = main(["cantor", "depth=4", "samples=0", f"out_dir={tmp_path}"])
    assert code == 2
    assert "samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("arg, message", [
    ("instances=0", "random_instances must be at least 1, got 0"),
    ("gap_samples=0", "gap_samples must be at least 1, got 0"),
    ("cells=0", "cells must be at least 1, got 0"),
    ("meshes=", "meshes must name at least one mesh"),
])
def test_verify_zero_counts_exit_2(capsys, arg, message):
    assert main(["verify", arg]) == 2
    assert message in capsys.readouterr().err


def test_verify_one_cell(capsys):
    main([
        "verify", "seed=1", "paths=2000", "meshes=16,32", "instances=2",
        "gap_samples=100", "sim_mesh=16", "cells=1",
    ])
    line = next(s for s in capsys.readouterr().out.splitlines()
                if "criterion 1:" in s)
    assert line.startswith("[PASS]") and "1 canonical instances" in line


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path / "envout"))
    code = main(["cantor", "r=0.4", "depth=4", "samples=100"])
    assert code == 0
    assert (tmp_path / "envout" / "cantor.csv").exists()


def test_config_file_with_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n=32\ndepth=5\nt0=0.4\n")
    out = tmp_path / "cfg"
    code = main(["pipeline", f"config={cfgfile}", "t0=0.5",
                 f"out_dir={out}"])
    assert code == 0
    meta = dict(
        line.split("=", 1) for line in (out / "meta").read_text().splitlines()
    )
    assert meta["t0"] == "0.5"  # explicit argument wins over the file


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# mesh\nn=32\ndepth 5\n")
    code = main(["pipeline", f"config={cfgfile}", f"out_dir={tmp_path}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "run.cfg line 3" in err and "'depth 5'" in err


@pytest.mark.parametrize("command",
                         ["pipeline", "verify", "cantor", "convergence"])
def test_verbose_only_for_solve(tmp_path, capsys, command):
    code = main([command, "verbose=1", "n=16", f"out_dir={tmp_path}"]
                if command == "pipeline" else
                [command, "verbose=1", f"out_dir={tmp_path}"])
    assert code == 2
    assert "unknown keys" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_convergence_command(tmp_path, capsys):
    code = main([
        "convergence", "meshes=25,50", "paths=20000", "seed=3",
        f"out_dir={tmp_path}",
    ])
    assert code == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,ks_sampled,ks_exact,C,E_T"
    assert len(lines) == 3


def test_verify_command_scaled_down(tmp_path, capsys):
    code = main([
        "verify", "seed=1", "paths=4000", "meshes=32,64", "instances=5",
        "gap_samples=200", "sim_mesh=16", "cells=5",
    ])
    out = capsys.readouterr().out
    assert out.count("criterion") == 10
    assert "criteria passed" in out
    assert code in (0, 1)


def test_verify_two_meshes_fail_the_cauchy_clause(capsys):
    # a Cauchy factor compares two mesh gaps, so two meshes cannot pass it
    code = main([
        "verify", "seed=1", "paths=4000", "meshes=32,64", "instances=5",
        "gap_samples=200", "sim_mesh=16", "cells=5",
    ])
    line = next(s for s in capsys.readouterr().out.splitlines()
                if "criterion 7:" in s)
    assert line.startswith("[FAIL]")
    assert "needs three or more meshes, got 2" in line
    assert "nan" not in line
    assert code == 1


def test_verify_times_each_criterion_on_stderr(capsys):
    main([
        "verify", "seed=1", "paths=2000", "meshes=16,32", "instances=2",
        "gap_samples=100", "sim_mesh=16", "cells=4",
    ])
    captured = capsys.readouterr()
    assert re.fullmatch(
        "".join(rf"criterion {k}: \d+\.\d\d s\n" for k in range(1, 11)),
        captured.err,
    )
    assert all(line.startswith("[") for line in
               captured.out.splitlines()[:-1])
