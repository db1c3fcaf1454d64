"""End-to-end tests of the command line interface, run in process."""

import json
import os
import subprocess
import sys

import pytest

import sdeinvariance
from sdeinvariance.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


QUICK_CHECK = ("--samples", "128", "--time-samples", "4")


class TestCheck:
    def test_logistic_noise_is_satisfied(self, capsys):
        code, out, err = run_cli(capsys, "check", "--model", "hh-logistic",
                                 *QUICK_CHECK)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "satisfied"
        assert len(report["faces"]) == 6

    def test_additive_noise_is_violated_with_witnesses(self, capsys):
        code, out, err = run_cli(capsys, "check", "--model", "hh-additive",
                                 *QUICK_CHECK)
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "violated"
        kinds = {w["kind"] for f in report["faces"]
                 for w in f["witnesses"]}
        assert kinds == {"diffusion_nonzero"}

    def test_out_flag_writes_file_and_leaves_stdout_empty(self, capsys,
                                                          tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "check", "--model", "hh-logistic",
                                 "--out", str(target), *QUICK_CHECK)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "satisfied"

    def test_box_override_changes_checked_faces(self, capsys):
        box = json.dumps({"indices": [3], "lower": [-90.0],
                          "upper": [58.0]})
        code, out, err = run_cli(capsys, "check", "--model", "hh-det",
                                 "--box", box, *QUICK_CHECK)
        report = json.loads(out)
        assert [f["index"] for f in report["faces"]] == [3, 3]

    def test_malformed_box_json(self, capsys):
        code, out, err = run_cli(capsys, "check", "--model", "hh-logistic",
                                 "--box", "{nope")
        assert code == 1
        assert err.startswith("error:")

    def test_both_is_not_a_check_interpretation(self, capsys):
        code, out, err = run_cli(capsys, "check", "--model", "hh-logistic",
                                 "--interpretation", "both")
        assert code == 1
        assert "both" in err


class TestErrors:
    def test_unknown_model(self, capsys):
        code, out, err = run_cli(capsys, "check", "--model", "no-such")
        assert code == 1
        assert err.startswith("error:")
        assert "hh-additive" in err  # the message lists what exists

    def test_model_is_required(self, capsys):
        code, out, err = run_cli(capsys, "check")
        assert code == 1
        assert "no model given" in err

    def test_subcommand_is_required(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 1

    def test_dt_and_n_steps_conflict(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--model", "hh-det",
                                 "--dt", "0.1", "--n-steps", "10")
        assert code == 1
        assert "not both" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_module_entry_point_runs_main(self):
        # python -m sdeinvariance.cli must run the CLI, not only import it
        src = os.path.dirname(os.path.dirname(sdeinvariance.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "sdeinvariance.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120)

        helped = run("--help")
        assert helped.returncode == 0
        assert helped.stdout.startswith("usage: sdeinv")
        unknown = run("frobnicate")
        assert unknown.returncode == 1
        assert unknown.stderr.startswith("error:")


class TestSimulate:
    def test_csv_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--model", "hh-det",
                                 "--t-end", "1.0", "--dt", "0.1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x_1,x_2,x_3,V"
        assert len(lines) == 12  # header plus 11 grid points

    def test_plot_writes_named_panels(self, capsys, tmp_path):
        prefix = tmp_path / "run"
        code, out, err = run_cli(capsys, "simulate", "--model",
                                 "hh-additive", "--sigma", "0.1",
                                 "--t-end", "0.5",
                                 "--out", str(tmp_path / "path.csv"),
                                 "--plot", str(prefix))
        assert code == 0
        for suffix in ("gating", "voltage"):
            content = (tmp_path / f"run-{suffix}.svg").read_text()
            assert content.startswith("<svg")

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        args = ("simulate", "--model", "hh-additive", "--sigma", "0.2",
                "--t-end", "0.5", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_scheme_mismatch_is_refused_unless_forced(self, capsys):
        args = ("simulate", "--model", "hh-logistic", "--sigma", "0.2",
                "--interpretation", "stratonovich", "--scheme", "em",
                "--t-end", "0.1")
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        code, out, err = run_cli(capsys, *args, "--force-scheme")
        assert code == 0


class TestEnsemble:
    def test_stats_json_shape(self, capsys):
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-logistic", "--sigma", "0.5",
                                 "--t-end", "1.0", "--n-paths", "8")
        assert code == 0
        stats = json.loads(out)
        assert stats["n_paths"] == 8
        assert 0.0 <= stats["violation_fraction"] <= 1.0
        assert stats["grid"] == {"t0": 0.0, "t_end": 1.0, "n_steps": 100}
        assert set(stats["quantiles"]) == {"q05", "q50", "q95"}

    def test_both_interpretations_nest_the_output(self, capsys):
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-logistic", "--sigma", "0.3",
                                 "--interpretation", "both",
                                 "--t-end", "0.5", "--n-paths", "4")
        assert code == 0
        nested = json.loads(out)
        assert set(nested) == {"ito", "stratonovich"}
        assert nested["ito"]["n_paths"] == 4

    def test_dump_paths_writes_one_csv_per_path(self, capsys, tmp_path):
        target = tmp_path / "paths"
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-logistic", "--sigma", "0.2",
                                 "--t-end", "0.2", "--n-paths", "3",
                                 "--dump-paths", str(target))
        assert code == 0
        names = sorted(p.name for p in target.iterdir())
        assert names == [f"hh-logistic-ito-{pid:05d}.csv"
                         for pid in range(3)]
        first = (target / names[0]).read_text().split("\n")[0]
        assert first == "t,x_1,x_2,x_3,V"

    def test_dump_survives_a_path_that_blows_up(self, capsys, tmp_path):
        # an additive-noise path turns non-finite mid-run; the dump writes
        # it frozen, as the ensemble counts it, and the stats still land
        target = tmp_path / "paths"
        stats_file = tmp_path / "stats.json"
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-additive", "--n-paths", "5",
                                 "--dump-paths", str(target),
                                 "--out", str(stats_file))
        assert code == 0, err
        assert json.loads(stats_file.read_text())["nonfinite_paths"]
        assert len(list(target.iterdir())) == 5

    def test_large_dump_warns_on_stderr(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-logistic", "--sigma", "0.2",
                                 "--t-end", "0.05", "--n-paths", "65",
                                 "--dump-paths", str(tmp_path / "many"))
        assert code == 0
        assert "warning" in err


class TestConvert:
    def test_builtin_models_report_equal_verdicts(self, capsys):
        code, out, err = run_cli(capsys, "convert", "--model",
                                 "hh-logistic", *QUICK_CHECK)
        assert code == 0
        assert "verdict equality: equal" in out
        assert "jacobian mode: analytic" in out

    def test_json_payload(self, capsys, tmp_path):
        target = tmp_path / "conv.json"
        code, out, err = run_cli(capsys, "convert", "--model",
                                 "hh-additive", "--out", str(target),
                                 *QUICK_CHECK)
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["verdicts_equal"] is True
        assert len(payload["correction_samples"]) == 5


class TestConfigAndEnvironment:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "hh-logistic",
                                   "samples": 128, "time_samples": 4}))
        code, out, err = run_cli(capsys, "check", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["config_echo"]["n_face_samples"] == 128

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "hh-additive",
                                   "samples": 128, "time_samples": 4}))
        code, out, err = run_cli(capsys, "check", "--config", str(cfg),
                                 "--model", "hh-logistic")
        assert code == 0  # the flag's model is the noise-free one

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "hh-logistic", "speling": 1}))
        code, out, err = run_cli(capsys, "check", "--config", str(cfg))
        assert code == 1
        assert "unknown config keys: speling" in err

    def test_config_must_be_json(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("model = hh-logistic")
        code, out, err = run_cli(capsys, "check", "--config", str(cfg))
        assert code == 1
        assert "valid JSON" in err

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SDE_SEED", "123")
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-logistic", "--sigma", "0.2",
                                 "--t-end", "0.1", "--n-paths", "2")
        assert json.loads(out)["seed"] == 123

    def test_seed_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SDE_SEED", "123")
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-logistic", "--sigma", "0.2",
                                 "--t-end", "0.1", "--n-paths", "2",
                                 "--seed", "7")
        assert json.loads(out)["seed"] == 7

    def test_unparseable_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SDE_SEED", "lots")
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-logistic", "--sigma", "0.2",
                                 "--t-end", "0.1", "--n-paths", "2")
        assert code == 1
        assert "SDE_SEED" in err


PLUGIN_SOURCE = '''\
from sdeinvariance import Box, ModelInfo, SdeSystem


def build(sigma=None, interpretation=None):
    def drift(t, x):
        return [1.0 - x[0]]

    kwargs = {}
    if interpretation is not None:
        kwargs["interpretation"] = interpretation
    system = SdeSystem(m=1, r=0, drift=drift,
                       diffusion=lambda t, x: [[]],
                       name="relax", **kwargs)
    info = ModelInfo(box=Box((0,), (0.0,), (2.0,)), x0=(0.5,), horizon=3.0)
    return system, info
'''


COUNTING_PREFIX = '''\
import pathlib

with open(pathlib.Path(__file__).with_name("executions.log"), "a") as fh:
    fh.write("run\\n")
'''


class TestPluginModels:
    @pytest.fixture
    def plugin(self, tmp_path):
        path = tmp_path / "relax_model.py"
        path.write_text(PLUGIN_SOURCE)
        return str(path)

    def test_check_through_plugin(self, capsys, plugin):
        code, out, err = run_cli(capsys, "check", "--model", plugin,
                                 *QUICK_CHECK)
        assert code == 0
        assert json.loads(out)["verdict"] == "satisfied"

    def test_simulate_through_plugin(self, capsys, plugin):
        code, out, err = run_cli(capsys, "simulate", "--model", plugin,
                                 "--t-end", "1.0", "--dt", "0.25")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x_1"
        assert len(lines) == 6

    @pytest.mark.parametrize("argv", [
        ("check", *QUICK_CHECK),
        ("simulate", "--t-end", "1.0", "--dt", "0.25"),
        ("ensemble", "--interpretation", "both", "--t-end", "1.0",
         "--dt", "0.25", "--n-paths", "2"),
    ])
    def test_plugin_file_runs_once_per_command(self, capsys, tmp_path,
                                               argv):
        path = tmp_path / "counted_model.py"
        path.write_text(COUNTING_PREFIX + PLUGIN_SOURCE)
        code, out, err = run_cli(capsys, argv[0], "--model", str(path),
                                 *argv[1:])
        assert code == 0, err
        runs = (tmp_path / "executions.log").read_text()
        assert runs.count("run") == 1

    def test_plugin_without_build_function(self, capsys, tmp_path):
        path = tmp_path / "empty_model.py"
        path.write_text("VALUE = 3\n")
        code, out, err = run_cli(capsys, "check", "--model", str(path))
        assert code == 1
        assert "build" in err
