import json

import pytest

from taskgrid import __version__, fixture_path, lll_stationary_distribution
from taskgrid.cli import BUDGET_ENV, main


def example(name):
    return str(fixture_path(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_every_fixture_validates(self, capsys):
        files = [
            example("example_1.json"),
            example("example_2.json"),
            example("case_study_1.json"),
        ]
        code, out, err = run_cli(capsys, "validate", *files)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].endswith(
            "OK (7x5 grid, 10 obstacles, 3 stations, 3 robots, 1 tasks, "
            "horizon 6, plain mode)"
        )
        assert "extended mode" in lines[1]

    def test_episode_suites_expand_to_one_line_each(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", example("experiment_episodes.json")
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert ":episode-3" in lines[2]

    def test_broken_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert err.startswith("error:")
        assert "bad.json" in err


class TestActions:
    def test_sizes_per_robot(self, capsys):
        code, out, _ = run_cli(capsys, "actions", example("example_1.json"))
        assert code == 0
        assert "(plain mode)" in out
        assert "robot 1 (station 1 at (2, 2)): 1 actions" in out
        assert "robot 3 (station 3 at (4, 5)): 1 actions" in out

    def test_full_dumps_trajectories(self, capsys):
        code, out, _ = run_cli(
            capsys, "actions", example("example_2.json"), "--full"
        )
        assert code == 0
        assert "[0] (2,2) (3,3) (3,3) (3,3) (2,2)" in out
        assert out.count("[0]") == 1
        assert "[1]" in out

    def test_episode_selection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "actions",
            example("experiment_episodes.json"),
            "--episode",
            "episode-2",
        )
        assert code == 0
        assert out.count("robot 1") == 1
        assert ":episode-2" in out

    def test_suite_without_episode_covers_all(self, capsys):
        code, out, _ = run_cli(
            capsys, "actions", example("experiment_episodes.json")
        )
        assert code == 0
        assert out.count("robot 1 ") == 5

    def test_episode_flag_on_plain_file_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "actions", example("example_1.json"), "--episode", "1"
        )
        assert code == 2
        assert "--episode" in err


class TestPlan:
    def plan_args(self, tmp_path, sub):
        out_dir = tmp_path / sub
        out_dir.mkdir()
        return out_dir, [
            "plan",
            example("example_3.json"),
            "--algorithm",
            "br",
            "--rounds",
            "10",
            "--runs",
            "3",
            "--seed",
            "5",
            "--out",
            str(out_dir / "series.csv"),
            "--json",
            str(out_dir / "report.json"),
            "--trace-dir",
            str(out_dir / "traces"),
        ]

    def test_writes_all_artifacts(self, capsys, tmp_path):
        out_dir, argv = self.plan_args(tmp_path, "a")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "br x3 runs, 10 rounds, seed 5" in out
        assert "epsilon" not in out
        assert "terminal value min/avg/max:" in out
        series = (out_dir / "series.csv").read_text(encoding="utf-8").splitlines()
        assert series[0] == "round,min,avg,max"
        assert len(series) == 1 + 11
        traces = sorted(p.name for p in (out_dir / "traces").iterdir())
        assert traces == ["run_5.csv", "run_6.csv", "run_7.csv"]
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["runs"] == 3
        assert report["action_set_sizes"] == [3, 3]
        assert len(report["traces"]) == 3
        assert sum(report["terminal_histogram"].values()) == 3

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        _, argv_a = self.plan_args(tmp_path, "a")
        _, argv_b = self.plan_args(tmp_path, "b")
        assert run_cli(capsys, *argv_a)[0] == 0
        assert run_cli(capsys, *argv_b)[0] == 0
        for rel in ("series.csv", "traces/run_6.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes()

    def test_scenario_defaults_fill_missing_flags(self, capsys):
        code, out, _ = run_cli(capsys, "plan", example("example_3.json"))
        assert code == 0
        assert "lll x10 runs, 200 rounds, seed 11, epsilon 0.2" in out

    def test_flags_override_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan",
            example("example_3.json"),
            "--rounds",
            "4",
            "--runs",
            "2",
            "--seed",
            "1",
        )
        assert code == 0
        assert "lll x2 runs, 4 rounds, seed 1, epsilon 0.2" in out

    def test_no_algorithm_and_no_default(self, capsys, tmp_path):
        bare = tmp_path / "bare.json"
        obj = {
            "environment": {
                "width": 2,
                "height": 2,
                "obstacles": [],
                "stations": [[1, 1]],
            },
            "horizon": 2,
            "robots": [1],
            "tasks": [
                {
                    "id": 1,
                    "location": [2, 2],
                    "arrival": 0,
                    "departure": 2,
                    "value": {"kind": "simple", "max_value": 1},
                }
            ],
        }
        bare.write_text(json.dumps(obj), encoding="utf-8")
        code, _, err = run_cli(capsys, "plan", str(bare), "--rounds", "3")
        assert code == 2
        assert "no algorithm" in err

    def test_suite_needs_an_episode_choice(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", example("experiment_episodes.json")
        )
        assert code == 2
        assert "pick one with --episode" in err

    def test_episode_plan_runs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan",
            example("experiment_episodes.json"),
            "--episode",
            "2",
            "--rounds",
            "5",
            "--runs",
            "2",
        )
        assert code == 0
        assert ":episode-2: br x2 runs, 5 rounds, seed 1" in out


class TestAnalyze:
    def test_default_prints_optimum_and_equilibria(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", example("example_3.json"))
        assert code == 0
        assert "optimum 10 (1 witness plans)" in out
        assert "3 equilibria, values [2, 2, 10], price of anarchy 5" in out

    def test_stationary_json(self, capsys, tmp_path, games):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys,
            "analyze",
            example("example_3.json"),
            "--stationary",
            "--epsilon",
            "0.5",
            "--json",
            str(path),
        )
        assert code == 0
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert obj["stationary_epsilon"] == 0.5
        pi = lll_stationary_distribution(games["example_3.json"], 0.5)
        assert obj["stationary_optimal_mass"] == pytest.approx(
            float(pi[-1]), abs=1e-12
        )
        assert obj["stationary_optimal_mass"] > 0.999
        assert "scenario" in obj and "optimum" not in obj

    def test_nash_only_skips_the_optimum(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", example("example_3.json"), "--nash"
        )
        assert code == 0
        assert "equilibria" in out
        assert "optimum" not in out

    def test_budget_flag_aborts_large_enumerations(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", example("example_3.json"), "--budget", "2"
        )
        assert code == 2
        assert "budget" in err

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "2")
        code, _, err = run_cli(capsys, "analyze", example("example_3.json"))
        assert code == 2
        assert "budget" in err

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "2")
        code, out, _ = run_cli(
            capsys,
            "analyze",
            example("example_3.json"),
            "--budget",
            "100000",
        )
        assert code == 0
        assert "optimum 10" in out

    def test_malformed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "lots")
        code, _, err = run_cli(capsys, "analyze", example("example_3.json"))
        assert code == 2
        assert BUDGET_ENV in err


class TestBatch:
    def manifest(self, tmp_path, jobs):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": jobs}), encoding="utf-8")
        return path

    def test_manifest_runs_every_job(self, capsys, tmp_path):
        path = self.manifest(
            tmp_path,
            [
                {
                    "scenario": example("example_3.json"),
                    "algorithm": "br",
                    "rounds": 5,
                    "runs": 2,
                    "seed": 3,
                    "out": "a.csv",
                },
                {
                    "scenario": example("experiment_episodes.json"),
                    "episode": "episode-1",
                    "rounds": 5,
                    "json": "b.json",
                },
            ],
        )
        code, out, err = run_cli(capsys, "batch", str(path))
        assert code == 0
        assert err == ""
        assert (tmp_path / "a.csv").exists()
        assert json.loads((tmp_path / "b.json").read_text(encoding="utf-8"))

    def test_failing_job_reported_and_exit_1(self, capsys, tmp_path):
        path = self.manifest(
            tmp_path,
            [
                {
                    "scenario": example("example_3.json"),
                    "algorithm": "br",
                    "rounds": 3,
                },
                {"algorithm": "br", "rounds": 3},
            ],
        )
        code, out, err = run_cli(capsys, "batch", str(path))
        assert code == 1
        assert "example_3" in out
        assert "jobs[1]: FAILED: missing field 'scenario'" in err
        assert "1 of 2 jobs failed" in err

    def test_missing_scenario_file_does_not_abort_the_batch(
        self, capsys, tmp_path
    ):
        path = self.manifest(
            tmp_path,
            [
                {"scenario": "absent.json", "algorithm": "br", "rounds": 3},
                {
                    "scenario": example("example_3.json"),
                    "algorithm": "br",
                    "rounds": 3,
                    "out": "ok.csv",
                },
            ],
        )
        code, out, err = run_cli(capsys, "batch", str(path))
        assert code == 1
        assert "jobs[0]: FAILED" in err and "cannot read" in err
        assert (tmp_path / "ok.csv").exists()

    def test_missing_manifest_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "batch", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read" in err

    def test_manifest_must_hold_a_jobs_list(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"tasks": []}', encoding="utf-8")
        code, _, err = run_cli(capsys, "batch", str(path))
        assert code == 2
        assert "'jobs' list" in err

    def test_manifest_must_be_json(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[", encoding="utf-8")
        code, _, err = run_cli(capsys, "batch", str(path))
        assert code == 2
        assert "not valid JSON" in err


class TestParser:
    def test_module_entry_point(self):
        import os
        import subprocess
        import sys

        import taskgrid

        # the child imports the same copy of the package as this process
        src = os.path.dirname(os.path.dirname(taskgrid.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "taskgrid", "--version"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
