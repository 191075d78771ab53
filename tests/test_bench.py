import dataclasses
import hashlib
import itertools
import re

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
from stiefelprox.problems import make_problem
from stiefelprox.solver import Mode, Status, TRACE_CSV_HEADER
from stiefelprox.stiefel import RetractionKind

TINY = dict(problem="cm", n_values=(16,), r_values=(2,), mu_values=(0.1,), seeds=2)
# SHA-256 of the summary CSV, cpu_s column dropped, of CM(16|32,2,0.1) under
# nls, pg and arpqn with seeds 0 and 1
PINNED_SWEEP_SUMMARY_CSV = "2bdd03d5f7d914ac931a63944ec0d3964c3aedf11ff5a710f1e1cf011f23aac2"

# grid points that make_problem cannot build, and the spec's error for each
BAD_GRIDS = [
    ({"n_values": (64.5,)}, "n must be an integer"),
    ({"r_values": (2, 2.0)}, "r must be an integer"),
    ({"mu_values": (-0.1,)}, "mu must be a finite number"),
    ({"mu_values": (0.1, float("inf"))}, "mu must be a finite number"),
    ({"n_values": (16, 8), "r_values": (12,)}, "1 <= r <= n"),
    ({"n_values": (3,), "r_values": (1,)}, "n >= 4"),
    ({"mu_values": (True,)}, "mu must be a finite number"),
]


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

    def test_negative_base_seed_rejected(self):
        # it used to construct, and then seed -1 failed in random_point: the
        # row read failures=1 and averaged the one run left
        with pytest.raises(ValueError, match="base_seed must be an integer >= 0, got -1"):
            ExperimentSpec(**TINY, base_seed=-1)

    @pytest.mark.parametrize("overrides", [None, ["sigma0"]])
    def test_overrides_that_are_not_a_mapping_rejected(self, overrides):
        # both used to raise a TypeError, which the CLI's ValueError handler missed
        with pytest.raises(ValueError, match=re.escape(f"overrides must be a mapping, got {overrides!r}")):
            ExperimentSpec(**TINY, overrides=overrides)

    def test_numpy_integer_seeds_accepted(self):
        spec = ExperimentSpec(**{**TINY, "seeds": np.int64(2)}, base_seed=np.int32(3))
        assert spec.seeds == 2 and spec.base_seed == 3

    def test_unknown_problem_rejected(self):
        # it used to construct, and then every run failed in make_problem
        with pytest.raises(ValueError, match="unknown problem 'xx'"):
            ExperimentSpec(**{**TINY, "problem": "xx"})

    @pytest.mark.parametrize(
        "grid, match",
        BAD_GRIDS + [
            # mu agreeing to the 6 digits of {mu:g}, a repeated value
            ({"mu_values": (0.1, 0.1000001)}, "share the label 'cm_n16_r2_mu0.1_nls_svd'"),
            ({"n_values": (16, 16)}, "share the label 'cm_n16_r2_mu0.1_nls_svd'"),
            ({"modes": ("nls", "nls")}, "share the label 'cm_n16_r2_mu0.1_nls_svd'"),
        ],
    )
    def test_invalid_grid_point_rejected(self, grid, match):
        # each of these used to construct, and then every run failed in the
        # pool, or two cells wrote rows of one label to the same trace files
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(**{**TINY, **grid})

    @pytest.mark.parametrize("grid", [grid for grid, _ in BAD_GRIDS])
    def test_invalid_grid_point_fails_with_make_problems_message(self, grid):
        # the spec builds each grid point, so a cell is valid exactly when
        # make_problem can build it
        spec = {**TINY, **grid}
        with pytest.raises(ValueError) as info:
            ExperimentSpec(**spec)
        for n, r, mu in itertools.product(spec["n_values"], spec["r_values"], spec["mu_values"]):
            try:
                make_problem(spec["problem"], n, r, mu)
            except ValueError as exc:
                assert str(exc) == str(info.value)
                return
        pytest.fail("make_problem builds every grid point")

    def test_spca_grid_point_checked_as_make_spca_checks_it(self):
        # three grid points are fine for sparse PCA, not for compressed modes
        spec = dict(TINY, n_values=(3,), r_values=(1,))
        assert ExperimentSpec(**{**spec, "problem": "spca"}).n_values == (3,)
        with pytest.raises(ValueError, match="n >= 4"):
            ExperimentSpec(**spec)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**TINY, modes=("newton",))

    def test_unknown_retraction_rejected(self):
        with pytest.raises(ValueError, match="unknown retraction 'polar'"):
            ExperimentSpec(**TINY, retractions=("polar",))

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**TINY, overrides={"bogus": 1.0})

    def test_invalid_override_value_rejected(self):
        # an out-of-range value fails at construction, not as a failed run per seed
        with pytest.raises(ValueError, match="max_outer"):
            ExperimentSpec(**TINY, overrides={"max_outer": -1})

    @pytest.mark.parametrize(
        "field, value",
        [("modes", "nls"), ("retractions", "svd"), ("n_values", 16), ("mu_values", 0.1)],
    )
    def test_sweep_list_that_is_a_string_or_scalar_rejected(self, field, value):
        # a string used to be read as its characters ("unknown mode 'n'") and a
        # scalar raised a TypeError that the CLI's ValueError handler missed
        with pytest.raises(ValueError, match=f"{field} must be a nonempty tuple or list, got {value!r}"):
            ExperimentSpec(**{**TINY, field: value})

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

    @pytest.mark.parametrize(
        "value, affinity, workers",
        [("", 16, 8), ("0", 16, 8), ("3", 16, 3), ("64", 16, 8), ("", 2, 2), ("0", None, 8)],
        ids=["-8", "0-8", "3-3", "64-8", "affinity-2-2", "no-affinity-0-8"],
    )
    def test_pool_size_caps_at_bench_threads(self, monkeypatch, value, affinity, workers):
        # 0 or unset means one worker per CPU this process may run on (all
        # 16 where the platform cannot say); never more workers than tasks
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 16)
        if affinity is None:
            monkeypatch.delattr(bench.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
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

    def test_sweep_summary_matches_pinned_digest(self, tmp_path):
        # the whole summary CSV of a small serial sweep but its timing column:
        # pins the header, the row order, every average and every format
        spec = ExperimentSpec(**{**TINY, "n_values": (16, 32)}, modes=("nls", "pg", "arpqn"))
        path = tmp_path / "summary.csv"
        emit_csv(run_experiment(spec), path)
        lines = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        col = lines[0].index("cpu_s")
        kept = "".join(",".join(f[:col] + f[col + 1 :]) + "\n" for f in lines)
        assert hashlib.sha256(kept.encode()).hexdigest() == PINNED_SWEEP_SUMMARY_CSV


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
                "--max-outer", "2000",
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

    def test_bad_config_key_exits(self, tmp_path, capsys):
        args = ["--problem", "cm", "--n", "16", "--r", "2", "--mu", "0.1", "--seeds", "1"]
        args += ["--out", str(tmp_path / "x.csv")]
        # malformed values and unknown flags: argparse names the flag and the value
        usage_cases = [
            (["--max-outer", "1e3"], "argument --max-outer: invalid int value: '1e3'"),
            (["--sigma0", "fast"], "argument --sigma0: invalid float value: 'fast'"),
            (["--window-m", "3"], "unrecognized arguments: --window-m 3"),
        ]
        for extra, message in usage_cases:
            with pytest.raises(SystemExit) as exc:
                main(args + extra)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
        # well-formed values out of range: the config's own message
        config_cases = [
            (["--sigma0", "nan"], "bench: sigma0 must be a finite number > 0, got nan"),
            (["--max-outer", "-1"], "bench: max_outer must be an integer >= 0, got -1"),
        ]
        for extra, message in config_cases:
            with pytest.raises(SystemExit) as exc:
                main(args + extra)
            assert exc.value.code == message
        assert not (tmp_path / "x.csv").exists()

    def test_negative_base_seed_exits_before_any_run(self, tmp_path, monkeypatch):
        def never(problem, X0, config):
            raise AssertionError("no run may start")

        monkeypatch.setattr(bench, "solve", never)
        out = tmp_path / "x.csv"
        args = ["--problem", "cm", "--n", "16", "--r", "2", "--mu", "0.1", "--seeds", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--base-seed", "-1", "--out", str(out)])
        assert exc.value.code == "bench: base_seed must be an integer >= 0, got -1"
        assert not out.exists()

    def test_shared_label_exits_before_any_run(self, tmp_path, monkeypatch):
        def never(problem, X0, config):
            raise AssertionError("no run may start")

        monkeypatch.setattr(bench, "solve", never)
        out = tmp_path / "x.csv"
        args = ["--problem", "cm", "--n", "16", "--r", "2", "--mu", "0.1", "0.1000001", "--seeds", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(out)])
        assert exc.value.code == "bench: two grid cells share the label 'cm_n16_r2_mu0.1_nls_svd'"
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, message",
        [
            (["--out", "missing/x.csv"], "bench: --out 'missing/x.csv' must name a file in a writable directory"),
            (["--out", "."], "bench: --out '.' must name a file in a writable directory"),
            (
                ["--out", "x.csv", "--trace-dir", "taken"],
                "bench: trace_dir 'taken' is not a usable directory: File exists",
            ),
        ],
        ids=["out-in-missing-directory", "out-is-a-directory", "trace-dir-is-a-file"],
    )
    def test_unusable_output_path_exits_before_any_run(self, tmp_path, monkeypatch, where, message):
        # each used to run every solve and then raise FileNotFoundError or
        # IsADirectoryError, or raise FileExistsError out of run_experiment
        runs = []
        monkeypatch.setattr(bench, "_run_single", runs.append)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        args = ["--problem", "cm", "--n", "16", "--r", "2", "--mu", "0.1", "--seeds", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args + where)
        assert exc.value.code == message
        assert runs == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_config_flags_come_from_solver_config(self, capsys):
        # one typed flag per SolverConfig field other than mode and retraction
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out
        assert "--sigma0 SIGMA0" in usage and "--max-outer MAX_OUTER" in usage
        assert "--config" not in usage
