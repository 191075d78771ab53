import dataclasses

import numpy as np
import pytest

import stiefelprox.bench as bench
from stiefelprox.bench import (
    ExperimentSpec,
    SummaryRow,
    build_config,
    emit_csv,
    main,
    run_experiment,
    run_label,
)
from stiefelprox.solver import Mode, Status, TRACE_CSV_HEADER
from stiefelprox.stiefel import RetractionKind

TINY = dict(problem="cm", n_values=(16,), r_values=(2,), mu_values=(0.1,), seeds=2)


@pytest.fixture(autouse=True)
def serial_pool(monkeypatch):
    monkeypatch.setenv("BENCH_THREADS", "1")


class TestSpec:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="cm", n_values=(), r_values=(2,), mu_values=(0.1,))

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**{**TINY, "seeds": 0})

    @pytest.mark.parametrize("seeds", [2.5, True, "2"])
    def test_non_integer_seeds_rejected(self, seeds):
        # 2.5 used to fail with a TypeError inside run_experiment, and True
        # silently ran one seed
        with pytest.raises(ValueError, match="seeds must be an integer"):
            ExperimentSpec(**{**TINY, "seeds": seeds})

    @pytest.mark.parametrize("base_seed", [0.5, False, None])
    def test_non_integer_base_seed_rejected(self, base_seed):
        with pytest.raises(ValueError, match="base_seed must be an integer"):
            ExperimentSpec(**TINY, base_seed=base_seed)

    def test_numpy_integer_seeds_accepted(self):
        spec = ExperimentSpec(**{**TINY, "seeds": np.int64(2)}, base_seed=np.int32(3))
        assert spec.seeds == 2 and spec.base_seed == 3

    def test_unknown_problem_rejected(self):
        # it used to construct, and then every run failed in make_problem
        with pytest.raises(ValueError, match="unknown problem 'xx'"):
            ExperimentSpec(**{**TINY, "problem": "xx"})

    @pytest.mark.parametrize(
        "grid, match",
        [
            ({"n_values": (64.5,)}, "n must be an integer"),
            ({"r_values": (2, 2.0)}, "r must be an integer"),
            ({"mu_values": (-0.1,)}, "mu must be a finite number"),
            ({"mu_values": (0.1, float("inf"))}, "mu must be a finite number"),
            ({"n_values": (16, 8), "r_values": (12,)}, "1 <= r <= n"),
            ({"n_values": (3,), "r_values": (1,)}, "n >= 4"),
            ({"mu_values": (True,)}, "mu must be a finite number"),
        ],
    )
    def test_invalid_grid_point_rejected(self, grid, match):
        # each of these used to construct, and then every run failed in the pool
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(**{**TINY, **grid})

    def test_spca_grid_point_checked_as_make_spca_checks_it(self):
        # three grid points are fine for sparse PCA, not for compressed modes
        spec = dict(TINY, n_values=(3,), r_values=(1,))
        assert ExperimentSpec(**{**spec, "problem": "spca"}).n_values == (3,)
        with pytest.raises(ValueError, match="n >= 4"):
            ExperimentSpec(**spec)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**TINY, modes=("newton",))

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**TINY, overrides={"bogus": 1.0})

    def test_invalid_override_value_rejected(self):
        # an out-of-range value fails at construction, not as a failed run per seed
        with pytest.raises(ValueError, match="max_outer"):
            ExperimentSpec(**TINY, overrides={"max_outer": -1})

    def test_non_integer_override_rejected(self):
        # before SolverConfig checked types, this built a spec whose every run
        # failed with a TypeError and whose row read F = nan
        with pytest.raises(ValueError, match="max_outer must be an integer"):
            ExperimentSpec(**TINY, overrides={"max_outer": 2.5})


class TestConfigBuild:
    def test_mode_and_retraction_mapping(self):
        cfg = build_config("arpqn", "cayley", {})
        assert cfg.mode is Mode.MONOTONE and cfg.retraction is RetractionKind.CAYLEY
        assert build_config("pg", "qr", {}).mode is Mode.PROX_GRAD

    def test_overrides_applied(self):
        cfg = build_config("nls", "svd", {"sigma0": 2.0, "max_outer": 3})
        assert cfg.sigma0 == 2.0 and cfg.max_outer == 3

    def test_label_format(self):
        assert run_label("cm", 64, 4, 0.1, "nls", "svd") == "cm_n64_r4_mu0.1_nls_svd"


class TestRunExperiment:
    def test_row_count_is_grid_size(self):
        spec = ExperimentSpec(
            problem="cm",
            n_values=(16,),
            r_values=(2,),
            mu_values=(0.1, 0.2),
            modes=("nls", "pg"),
            retractions=("svd",),
            seeds=1,
        )
        rows = run_experiment(spec)
        assert len(rows) == 2 * 2 * 1
        assert all(row.failures == 0 for row in rows)

    def test_deterministic_except_timing(self):
        spec = ExperimentSpec(**TINY)
        a = run_experiment(spec)
        b = run_experiment(spec)
        for ra, rb in zip(a, b):
            assert ra.label == rb.label
            assert ra.iterations == rb.iterations
            assert ra.F == rb.F
            assert ra.sparsity == rb.sparsity
            assert ra.linesearch == rb.linesearch
            assert ra.ssn_iters == rb.ssn_iters

    def test_failed_runs_counted_not_fatal(self, monkeypatch):
        calls = {"n": 0}
        real_solve = bench.solve

        def flaky(problem, X0, config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected")
            return real_solve(problem, X0, config)

        monkeypatch.setattr(bench, "solve", flaky)
        rows = run_experiment(ExperimentSpec(**TINY))
        assert len(rows) == 1
        assert rows[0].failures == 1
        assert rows[0].error == "RuntimeError: injected"
        assert rows[0].nonconverged == 0
        assert np.isfinite(rows[0].F)

    def test_nonconverged_runs_counted(self, monkeypatch):
        # a run that returns STALLED is not a failure, but it is not a success either
        calls = {"n": 0}
        real_solve = bench.solve

        def stalls_once(problem, X0, config):
            calls["n"] += 1
            result = real_solve(problem, X0, config)
            return dataclasses.replace(result, status=Status.STALLED) if calls["n"] == 1 else result

        monkeypatch.setattr(bench, "solve", stalls_once)
        rows = run_experiment(ExperimentSpec(**TINY))
        assert (rows[0].failures, rows[0].nonconverged, rows[0].error) == (0, 1, "")

    def test_traces_written(self, tmp_path):
        spec = ExperimentSpec(**TINY, trace_dir=str(tmp_path / "tr"))
        run_experiment(spec)
        files = sorted((tmp_path / "tr").glob("*.csv"))
        assert len(files) == 2
        assert files[0].read_text().splitlines()[0] == TRACE_CSV_HEADER

    @pytest.mark.parametrize("value, workers", [("", 8), ("0", 8), ("3", 3), ("64", 8)])
    def test_pool_size_caps_at_bench_threads(self, monkeypatch, value, workers):
        # 0 or unset means one worker per CPU; never more workers than tasks
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 16)
        monkeypatch.setenv("BENCH_THREADS", value)
        assert bench._pool_size(8) == workers

    @pytest.mark.parametrize("value", ["x", "-3", "1.5", " 2"])
    def test_malformed_bench_threads_rejected(self, monkeypatch, tmp_path, value):
        monkeypatch.setenv("BENCH_THREADS", value)
        with pytest.raises(ValueError, match="BENCH_THREADS"):
            run_experiment(ExperimentSpec(**TINY))
        with pytest.raises(SystemExit, match="bench: BENCH_THREADS"):
            main(["--problem", "cm", "--n", "16", "--r", "2", "--mu", "0.1", "--seeds", "1",
                  "--out", str(tmp_path / "out.csv")])

    def test_parallel_matches_serial(self, monkeypatch):
        spec = ExperimentSpec(**TINY)
        serial = run_experiment(spec)
        monkeypatch.setenv("BENCH_THREADS", "2")
        parallel = run_experiment(spec)
        for a, b in zip(serial, parallel):
            assert (a.label, a.iterations, a.F, a.sparsity) == (
                b.label,
                b.iterations,
                b.F,
                b.sparsity,
            )


class TestEmitCsv:
    def row(self, **kw):
        base = dict(
            label="cm_n64_r4_mu0.1_nls_svd",
            iterations=110.0,
            F=1.4253071,
            sparsity=0.8,
            cpu_s=0.0321,
            linesearch=120.0,
            ssn_iters=1.57,
            failures=0,
            nonconverged=0,
        )
        base.update(kw)
        return SummaryRow(**base)

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([self.row()], path)
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines[0] == "label,iter,F,sparsity,cpu_s,linesearch,ssn_iters,failures,nonconverged"
        assert lines[1].split(",")[2] == "1.42531"

    def test_newlines_are_bare_lf(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([self.row()], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "nope.csv")

    def test_round_trips_through_parse(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([self.row(failures=1, nonconverged=2, error="RuntimeError: x")], path)
        header, line = path.read_text().splitlines()
        fields = line.split(",")
        assert len(fields) == len(header.split(","))
        assert float(fields[1]) == 110.0
        assert (int(fields[7]), int(fields[8])) == (1, 2)


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        rc = main(
            [
                "--problem", "cm",
                "--n", "16",
                "--r", "2",
                "--mu", "0.1",
                "--mode", "nls", "pg",
                "--retraction", "svd",
                "--seeds", "1",
                "--out", str(out),
                "--config", "max_outer=2000",
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 modes
        assert f"wrote 2 rows to {out} (0 failed runs, 0 not converged)" in capsys.readouterr().out

    def test_prints_first_error_of_each_failing_cell(self, tmp_path, capsys, monkeypatch):
        def broken(problem, X0, config):
            raise RuntimeError(f"injected in {config.mode.value}")

        monkeypatch.setattr(bench, "solve", broken)
        out = tmp_path / "summary.csv"
        args = ["--problem", "cm", "--n", "16", "--r", "2", "--mu", "0.1", "--mode", "nls", "pg"]
        assert main(args + ["--seeds", "2", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"wrote 2 rows to {out} (4 failed runs, 0 not converged)",
            "  cm_n16_r2_mu0.1_nls_svd: 2 failed, first error: RuntimeError: injected in nls",
            "  cm_n16_r2_mu0.1_pg_svd: 2 failed, first error: RuntimeError: injected in pg",
        ]

    def test_bad_config_key_exits(self, tmp_path):
        cases = [
            ("myfield=3", "unknown config field 'myfield'"),
            ("max_outer=1e3", "--config max_outer expects int, got '1e3'"),
            ("sigma0=fast", "--config sigma0 expects float, got 'fast'"),
            ("window_m=3", "unknown config field 'window_m'"),
            ("sigma0=nan", "bench: sigma0 must be a finite number, got nan"),
        ]
        for item, message in cases:
            with pytest.raises(SystemExit) as exc:
                main(
                    [
                        "--problem", "cm", "--n", "16", "--r", "2", "--mu", "0.1",
                        "--seeds", "1", "--out", str(tmp_path / "x.csv"),
                        "--config", item,
                    ]
                )
            assert exc.value.code == message
        assert not (tmp_path / "x.csv").exists()
