import copy
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import push_flows_off_kernel
from test_bench_contract import load_tracer

from expidae.cli import main
from expidae.flow import kernel_reduction, step_maps
from expidae.harness import read_convergence_csv
from expidae.integrators import SchemeConfig, integrate
from expidae.problems import build_problem


class TestListProblems:
    def test_exit_zero_and_names(self, capsys):
        assert main(["list-problems"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "dynbc: n_cells=32",
            "nonsym: n_cells=32",
            "toy: n=40, m=3, seed=0",
        ]


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "expidae", "list-problems"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "nonsym" in proc.stdout


class TestSolve:
    def test_toy_trajectory_written(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "solve", "--problem", "toy", "--tau", "0.05", "--t-end", "0.5",
                "--scheme", "exp-euler", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,t,constraint_residual,solution_norm"
        assert len(lines) == 12  # header + initial + 10 steps

    def test_summary_shows_repairs_and_max_basis(self, tmp_path, capsys, monkeypatch):
        import expidae.cli as cli_mod
        from expidae.integrators import integrate

        seen = []

        def integrate_and_keep(*args, **kwargs):
            traj, diag = integrate(*args, **kwargs)
            seen.append(diag)
            return traj, diag

        monkeypatch.setattr(cli_mod, "integrate", integrate_and_keep)
        # The tracer counts the Arnoldi steps of the sparse generator.
        monkeypatch.setattr(sys.modules["expidae.flow"], "DENSE_GENERATOR_MAX_N", 0)
        out = tmp_path / "traj.csv"
        with load_tracer().Tracer() as tracer:
            code = main(
                [
                    "solve", "--problem", "toy", "--tau", "0.05", "--t-end", "0.5",
                    "--scheme", "second-order", "--out", str(out),
                ]
            )
        assert code == 0
        (diag,) = seen
        summary = capsys.readouterr().out
        assert diag.max_basis_size > 0
        assert f" repairs={diag.repairs} " in summary
        assert f" max_basis={diag.max_basis_size} " in summary
        assert diag.flow_checks > 0
        assert f" checks={diag.flow_checks} " in summary
        assert diag.arnoldi_steps == tracer.calls["flow.arnoldi_step"] > 0
        assert f" checks={diag.flow_checks} arnoldi_steps={diag.arnoldi_steps} " in summary

    def test_summary_shows_a_repair(self, tmp_path, capsys, monkeypatch):
        push_flows_off_kernel(monkeypatch)
        code = main(
            [
                "solve", "--problem", "nonsym", "--h", "1/16", "--tau", "0.01",
                "--t-end", "0.01", "--scheme", "exp-euler", "--out", str(tmp_path / "traj.csv"),
            ]
        )
        assert code == 0
        assert " repairs=1 " in capsys.readouterr().out

    @pytest.mark.parametrize("h", ["1/0", "0.25/0", "nan"])
    def test_bad_mesh_size_is_config_error(self, tmp_path, capsys, h):
        out = tmp_path / "traj.csv"
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(f"h = {h}\n")
        for extra in (["--h", h], ["--config", str(cfg)]):
            code = main(
                [
                    "solve", "--problem", "nonsym", "--tau", "0.1", "--t-end", "0.2",
                    "--scheme", "exp-euler", "--out", str(out), *extra,
                ]
            )
            assert code == 2
            assert f"mesh size h={h} " in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("h", ["1/2", "1/3", "0.5"])
    def test_mesh_of_fewer_than_four_cells_names_the_flag(self, tmp_path, capsys, h):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "solve", "--problem", "nonsym", "--h", h, "--tau", "0.1",
                "--t-end", "0.2", "--scheme", "exp-euler", "--out", str(out),
            ]
        )
        assert code == 2
        assert "--h" in capsys.readouterr().err
        assert not out.exists()

    def test_mesh_of_four_cells_is_accepted(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "solve", "--problem", "nonsym", "--h", "1/4", "--tau", "0.1",
                "--t-end", "0.2", "--scheme", "exp-euler", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_mesh_size_on_a_problem_without_a_mesh_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "solve", "--problem", "toy", "--h", "1/8", "--tau", "0.1",
                "--t-end", "0.2", "--scheme", "exp-euler", "--out", str(out),
            ]
        )
        assert code == 2
        assert "--h" in capsys.readouterr().err
        assert not out.exists()

    def test_flow_substep_limit_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        flow_module = sys.modules["expidae.flow"]
        monkeypatch.setattr(flow_module, "BASIS_CAP", 8)
        monkeypatch.setattr(flow_module, "SUBSTEP_LIMIT", 2)
        code = main(
            [
                "solve", "--problem", "nonsym", "--h", "1/16", "--tau", "0.05",
                "--t-end", "0.05", "--scheme", "exp-euler", "--out", str(tmp_path / "traj.csv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "flow substep limit 2 reached in a flow over t = 0.05 with " in err
        assert "basis 8 (cap 8), last error estimate" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c2", ["1e-300", "1e-170", "1e-150"])
    def test_overflowing_stage_slope_names_c2_without_a_warning(self, tmp_path, capsys, c2):
        # (l_s - l_0) / c2 at c2 = 1e-300 is finite, but its squared norm
        # and the Arnoldi products of its flow overflow.  At 1e-170 the
        # squared norm is finite and the Arnoldi products overflow; at
        # 1e-150 they are finite and the exponential of the Hessenberg
        # matrix overflows.
        code = main(
            [
                "solve", "--problem", "nonsym", "--h", "1/16", "--tau", "0.01",
                "--t-end", "0.05", "--scheme", "second-order-family", "--c2", c2,
                "--out", str(tmp_path / "traj.csv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"c2 = {c2} (t = " in err
        if c2 == "1e-300":
            assert "stage slope (l(t_n + c2 tau) - l_0) / c2 overflows at c2 = 1e-300" in err
        assert "Warning" not in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_constraint_data_is_named_without_a_warning(self, tmp_path, capsys):
        # g(t) = exp(2t) - 1 of nonsym is inf at t = 1e6.
        code = main(
            [
                "solve", "--problem", "nonsym", "--h", "1/16", "--tau", "1e6",
                "--t-end", "1e6", "--scheme", "second-order", "--out", str(tmp_path / "traj.csv"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "constraint_rhs returned non-finite values at t=1000000.0" in err
        assert "Warning" not in err

    def test_fine_mesh_coarse_step_flow_converges(self, tmp_path):
        # At h = 1/256 the flow over tau = 0.05 goes on from capped bases
        # for some 60 substeps; its state matches a step through the
        # dense step maps to the flow tolerance.
        out, dump = tmp_path / "traj.csv", tmp_path / "states.bin"
        argv = [
            "solve", "--problem", "nonsym", "--h", "1/256", "--tau", "0.05",
            "--t-end", "0.05", "--scheme", "exp-euler", "--out", str(out),
            "--dump-state", str(dump),
        ]
        assert main(argv) == 0
        n, count = struct.unpack("<qq", dump.read_bytes()[:16])
        final = np.frombuffer(dump.read_bytes()[16:], dtype="<f8").reshape(count, n)[-1]

        problem = build_problem("nonsym", n_cells=256)
        mapped = copy.copy(problem.system)
        mapped.step_maps = step_maps(mapped.flow_op, 0.05, kernel_reduction(mapped.flow_op))
        config = SchemeConfig(scheme="exp-euler")
        traj, _ = integrate(mapped, config, problem.u0, 0.0, 0.05, 0.05)
        assert np.linalg.norm(final - traj[-1].u) <= config.flow_tol

    def test_mesh_flag_fraction(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "solve", "--problem", "nonsym", "--h", "1/8", "--tau", "0.1",
                "--t-end", "0.2", "--scheme", "exp-euler", "--out", str(out),
            ]
        )
        assert code == 0

    def test_state_dump(self, tmp_path):
        out = tmp_path / "traj.csv"
        dump = tmp_path / "states.bin"
        code = main(
            [
                "solve", "--problem", "toy", "--tau", "0.1", "--t-end", "0.2",
                "--scheme", "second-order", "--out", str(out),
                "--dump-state", str(dump),
            ]
        )
        assert code == 0
        n, count = struct.unpack("<qq", dump.read_bytes()[:16])
        assert count == 3

    def test_failed_state_dump_writes_no_trajectory(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "solve", "--problem", "toy", "--tau", "0.1", "--t-end", "0.2",
                "--scheme", "exp-euler", "--out", str(out), "--dump-state", str(tmp_path),
            ]
        )
        assert code == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []

    def test_missing_flag_is_config_error(self, tmp_path):
        code = main(["solve", "--problem", "toy", "--tau", "0.1"])
        assert code == 2

    def test_bad_step_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        for tau, t_end in [
            ("0.3", "1.0"), ("inf", "0.5"), ("nan", "0.5"), ("1e-320", "0.5"), ("0.1", "inf"),
        ]:
            code = main(
                [
                    "solve", "--problem", "toy", "--tau", tau, "--t-end", t_end,
                    "--scheme", "exp-euler", "--out", str(out),
                ]
            )
            assert code == 2, (tau, t_end)
            err = capsys.readouterr().err
            assert "step" in err or "span" in err
            assert not out.exists()

    def test_non_finite_c2_is_config_error(self, tmp_path, capsys):
        code = main(
            [
                "solve", "--problem", "toy", "--tau", "0.1", "--t-end", "0.2",
                "--scheme", "second-order-family", "--c2", "nan",
                "--out", str(tmp_path / "traj.csv"),
            ]
        )
        assert code == 2
        assert "c2 must be finite" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        from expidae.errors import NoConvergence
        import expidae.cli as cli_mod

        def boom(*a, **k):
            raise NoConvergence("flow substep limit exceeded")

        monkeypatch.setattr(cli_mod, "integrate", boom)
        out = tmp_path / "traj.csv"
        code = main(
            [
                "solve", "--problem", "toy", "--tau", "0.1", "--t-end", "0.2",
                "--scheme", "exp-euler", "--out", str(out),
            ]
        )
        assert code == 3


SOLVE_TOY = ["solve", "--problem", "toy", "--tau", "0.1", "--scheme", "second-order-family",
             "--out", "out.csv"]


class TestMalformedNumber:
    @pytest.mark.parametrize(
        "argv, config, flag",
        [
            (["solve", "--problem", "nonsym", "--h", "abc", "--tau", "0.1", "--t-end", "0.2",
              "--scheme", "exp-euler", "--out", "out.csv"], None, "--h"),
            (["converge", "--problem", "toy", "--taus", "0.05,abc", "--t-end", "0.5",
              "--scheme", "exp-euler", "--norm", "l2", "--ref-tau", "0.001",
              "--cache-dir", "cache", "--out", "out.csv"], None, "--taus"),
            (SOLVE_TOY, "t_end = abc\n", "--t-end"),
            (SOLVE_TOY + ["--t-end", "0.2"], "c2 = x\n", "--c2"),
        ],
        ids=["h", "taus", "config-t_end", "config-c2"],
    )
    def test_names_its_option(self, tmp_path, capsys, monkeypatch, argv, config, flag):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", "run.cfg"]
        assert main(argv) == 2
        assert f"invalid configuration: {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists() and not (tmp_path / "cache").exists()


class TestConverge:
    def test_toy_study(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(
            [
                "converge", "--problem", "toy", "--taus", "0.1,0.05,0.025",
                "--t-end", "0.5", "--scheme", "exp-euler", "--norm", "l2",
                "--ref-tau", str(0.025 / 16), "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
            ]
        )
        assert code == 0
        meta, rows = read_convergence_csv(out)
        assert meta["problem"] == "toy"
        assert len(rows) == 3
        assert float(meta["fitted_order"]) == pytest.approx(1.0, abs=0.2)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "problem = toy\n"
            "taus = 0.1,0.05\n"
            "t_end = 0.5\n"
            "scheme = exp-euler\n"
            "norm = l2\n"
            f"ref_tau = {0.05 / 16}\n"
            f"out = {tmp_path / 'from_file.csv'}\n"
        )
        out_flag = tmp_path / "from_flag.csv"
        code = main(
            ["converge", "--config", str(cfg), "--out", str(out_flag)]
        )
        assert code == 0
        assert out_flag.exists()
        assert not (tmp_path / "from_file.csv").exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("wibble = 3\n")
        code = main(["converge", "--config", str(cfg)])
        assert code == 2

    def test_unknown_norm_in_config_file_is_rejected_before_the_reference(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "problem = nonsym\n"
            "h = 1/8\n"
            "taus = 0.1,0.05\n"
            "t_end = 0.5\n"
            "scheme = exp-euler\n"
            "norm = bogus\n"
            f"ref_tau = {0.05 / 16}\n"
            f"cache_dir = {cache}\n"
            f"out = {tmp_path / 'conv.csv'}\n"
        )
        code = main(["converge", "--config", str(cfg)])
        assert code == 2
        assert "unknown norm 'bogus'" in capsys.readouterr().err
        assert not cache.exists() or list(cache.iterdir()) == []
        assert not (tmp_path / "conv.csv").exists()

    def test_truncated_cache_is_rebuilt(self, tmp_path, caplog):
        cache = tmp_path / "cache"
        argv = [
            "converge", "--problem", "toy", "--taus", "0.1,0.05",
            "--t-end", "0.5", "--scheme", "exp-euler", "--norm", "l2",
            "--ref-tau", str(0.05 / 16), "--cache-dir", str(cache),
            "--out", str(tmp_path / "conv.csv"),
        ]
        assert main(argv) == 0
        (cached,) = cache.glob("*.npz")
        complete = cached.read_bytes()
        cached.write_bytes(complete[: len(complete) // 2])
        assert main(argv) == 0
        assert "unreadable" in caplog.text
        assert cached.read_bytes() == complete
        assert [p.name for p in cache.iterdir()] == [cached.name]

    @pytest.mark.parametrize(
        "taus, t_end",
        [("inf,0.05", "0.5"), ("0.1,0.05", "inf"), ("0.05,nan", "0.5"), ("0.05,inf", "0.5")],
    )
    def test_non_finite_step_or_end_time_is_config_error(self, tmp_path, capsys, taus, t_end):
        cache = tmp_path / "cache"
        code = main(
            [
                "converge", "--problem", "toy", "--taus", taus, "--t-end", t_end,
                "--scheme", "exp-euler", "--norm", "l2", "--ref-tau", str(0.05 / 16),
                "--cache-dir", str(cache), "--out", str(tmp_path / "conv.csv"),
            ]
        )
        assert code == 2
        # Every ladder step is checked, by name, before t_end is divided by the smallest.
        bad = "nan" if "nan" in taus else "inf"
        expected = "span inf must be finite" if t_end == "inf" else f"step {bad} must be finite"
        assert expected in capsys.readouterr().err
        assert not cache.exists() or list(cache.iterdir()) == []
        assert not (tmp_path / "conv.csv").exists()

    def test_ladder_is_checked_before_the_reference_is_built(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code = main(
            [
                "converge", "--problem", "toy", "--taus", "0.1,0.05", "--t-end", "0.25",
                "--scheme", "exp-euler", "--norm", "l2", "--ref-tau", "0.003125",
                "--cache-dir", str(cache), "--out", str(tmp_path / "conv.csv"),
            ]
        )
        assert code == 2
        assert "span 0.25 is not a whole number of steps 0.1" in capsys.readouterr().err
        assert not cache.exists() or list(cache.iterdir()) == []

    @pytest.mark.parametrize("t_end", ["0", "-0.5", "nan"])
    def test_non_positive_end_time_is_rejected_by_name(self, tmp_path, capsys, t_end):
        code = main(
            [
                "converge", "--problem", "toy", "--taus", "0.1,0.05", "--t-end", t_end,
                "--scheme", "exp-euler", "--norm", "l2", "--ref-tau", "0.003125",
                "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "conv.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"t_end {float(t_end)!r} must be positive" in err
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "t_end, sample, ref_tau, expected",
        [
            ("0.5", "final", "nan", "tau_ref=nan: step nan must be finite and positive"),
            ("0.5", "final", "-1", "tau_ref=-1.0: step -1.0 must be finite and positive"),
            ("0.5", "final", "0.003", "tau_ref=0.003: span 0.5 is not a whole number"),
            ("0.3", "max", "0.003", "tau_ref=0.003: span 0.05 is not a whole number"),
        ],
    )
    def test_bad_reference_step_is_named(self, tmp_path, capsys, t_end, sample, ref_tau, expected):
        cache, out = tmp_path / "cache", tmp_path / "conv.csv"
        code = main(
            [
                "converge", "--problem", "toy", "--taus", "0.1,0.05", "--t-end", t_end,
                "--scheme", "exp-euler", "--norm", "l2", "--sample", sample,
                "--ref-tau", ref_tau, "--cache-dir", str(cache), "--out", str(out),
            ]
        )
        assert code == 2
        assert f"reference step {expected}" in capsys.readouterr().err
        assert not cache.exists() or list(cache.iterdir()) == []
        assert not out.exists()

    def test_coarse_reference_rejected(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(
            [
                "converge", "--problem", "toy", "--taus", "0.1,0.05",
                "--t-end", "0.5", "--scheme", "exp-euler", "--norm", "l2",
                "--ref-tau", "0.01", "--out", str(out),
            ]
        )
        assert code == 2
