"""End-to-end tests of the command line interface, run in process."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

import sdeinvariance
from sdeinvariance import cli
from sdeinvariance.cli import main
from sdeinvariance.hodgkin_huxley import build_model


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
    def test_unknown_model(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "check", "--model", "no-such",
                                 "--out", str(target))
        assert code == 1
        # the message lists what exists
        assert err == ("error: unknown model 'no-such'; registered models: "
                       "hh-additive, hh-det, hh-logistic\n")
        assert out == ""
        assert not target.exists()

    def test_model_is_required(self, capsys):
        code, out, err = run_cli(capsys, "check")
        assert code == 1
        assert "no model given" in err

    def test_subcommand_is_required(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 1

    def test_dt_is_the_one_step_option(self, capsys, tmp_path):
        # the grid is round((t_end - t0) / dt) steps; there is no n_steps
        assert run_cli(capsys, "simulate", "--model", "hh-det", "--n-steps",
                       "10") == (
            1, "", "error: unrecognized arguments: --n-steps 10\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "hh-det", "n_steps": 10}))
        assert run_cli(capsys, "simulate", "--config", str(cfg)) == (
            1, "", "error: unknown config keys: n_steps\n")

    @pytest.mark.parametrize("argv, message", [
        (("--dt", "0"), "dt must be positive"),
        (("--t-end", "0.004"), "grid is shorter than one step"),
        (("--t-end", "inf"), "t0, t_end and dt give inf steps"),
        (("--t-end", "nan"), "t0, t_end and dt give nan steps"),
        (("--t0", "nan"), "t0, t_end and dt give nan steps"),
        (("--t-end", "1e308", "--dt", "1e-308"),
         "t0, t_end and dt give inf steps"),
    ])
    def test_grids_without_a_step_are_refused(self, capsys, argv, message):
        assert run_cli(capsys, "simulate", "--model", "hh-det",
                       *argv) == (1, "", f"error: {message}\n")

    # each grid's first array is larger than any address space, so every
    # case fails before anything is allocated
    @pytest.mark.parametrize("grid", [
        ("--t-end", "1e300"), ("--t-end", "1e14")])
    @pytest.mark.parametrize("command", [
        ("simulate",), ("ensemble", "--n-paths", "2")])
    def test_grids_too_large_to_allocate_are_errors(self, capsys, command,
                                                    grid):
        code, out, err = run_cli(capsys, *command, "--model", "hh-logistic",
                                 *grid)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, config", [
        (("check", "--model", "hh-logistic", "--sigma", "abc"), None),
        (("check", "--model", "hh-logistic", "--box",
          '{"indices": [0], "lower": ["a"], "upper": [1]}'), None),
        (("ensemble",), {"model": "hh-logistic", "n_paths": "many"}),
        (("check", "--model", "hh-additive", "--t-max-check", "inf"), None),
        (("check", "--model", "hh-det", "--sampler-seed", "-1"), None),
        (("check", "--model", "hh-additive", "--sigma", "inf"), None),
        (("ensemble", "--model", "hh-additive", "--n-paths", "2",
          "--tol", "nan"), None),
        (("ensemble", "--model", "hh-additive", "--n-paths", "2",
          "--tol", "inf"), None),
        (("simulate", "--model", "hh-det", "--t-end", "0.1",
          "--path-id", str(2 ** 64)), None),
        (("check", "--model", "hh-logistic", "--box",
          '{"indices": [2.7], "lower": [0], "upper": [1]}'), None),
    ])
    def test_malformed_values_are_usage_errors(self, capsys, tmp_path, argv,
                                               config):
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv = (*argv, "--config", str(cfg))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")

    # refused as usage, before a model is evaluated or a path is run
    @pytest.mark.parametrize("argv, message", [
        (("check", "--model", "hh-additive", "--sigma", "inf"),
         "sigma entries must be positive and finite"),
        (("ensemble", "--model", "hh-additive", "--n-paths", "2",
          "--tol", "nan"), "tol must be finite and >= 0"),
    ])
    def test_non_finite_values_are_named(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

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

    def test_out_holds_the_bytes_of_stdout(self, capsys, tmp_path):
        args = ("simulate", "--model", "hh-logistic", "--t-end", "1")
        _, out, _ = run_cli(capsys, *args)
        target = tmp_path / "p.csv"
        assert run_cli(capsys, *args, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()

    # the CSV streams into its target: the traced peak of the second of
    # two runs (the first fills the caches) holds no copy of its 5,001
    # rows, which take 0.8 MiB as text
    def test_csv_is_not_held_in_memory(self, tmp_path):
        argv = ["simulate", "--model", "hh-logistic", "--t-end", "50",
                "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_a_failed_path_writes_no_file(self, capsys, tmp_path):
        model = tmp_path / "nan_model.py"
        model.write_text(NAN_DRIFT_SOURCE)
        target = tmp_path / "p.csv"
        code, out, err = run_cli(capsys, "simulate", "--model", str(model),
                                 "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: state became non-finite at step 1 ")
        assert not target.exists()

    def test_scheme_flags_are_usage_errors(self, capsys, tmp_path):
        # the interpretation picks the scheme; there is no flag for it
        args = ("simulate", "--model", "hh-logistic", "--sigma", "0.2",
                "--interpretation", "stratonovich", "--t-end", "0.1")
        for extra in (("--scheme", "em"), ("--force-scheme",)):
            code, out, err = run_cli(capsys, *args, *extra)
            assert code == 1
            assert err.startswith("error:")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"scheme": "em"}))
        code, out, err = run_cli(capsys, *args, "--config", str(cfg))
        assert code == 1
        assert "unknown config keys: scheme" in err


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

    def test_box_outside_the_state_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "paths"
        stats_file = tmp_path / "stats.json"
        code, out, err = run_cli(
            capsys, "ensemble", "--model", "hh-logistic", "--n-paths", "2",
            "--t-end", "0.1", "--box",
            '{"indices": [7], "lower": [0], "upper": [1]}',
            "--dump-paths", str(target), "--out", str(stats_file))
        assert (code, out) == (1, "")
        assert err == "error: box constrains a coordinate outside the state\n"
        assert not target.exists()
        assert not stats_file.exists()

    def test_large_dump_warns_on_stderr(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-logistic", "--sigma", "0.2",
                                 "--t-end", "0.05", "--n-paths", "65",
                                 "--dump-paths", str(tmp_path / "many"))
        assert code == 0
        assert "warning" in err

    def test_dump_evaluates_the_drift_no_more_often(self, capsys, tmp_path,
                                                    monkeypatch):
        # the path files come from the ensemble's own integration
        calls = []

        def counted_model(*args, **kwargs):
            system, info = build_model(*args, **kwargs)

            def drift(t, x):
                calls.append(t)
                return system.drift(t, x)

            return replace(system, drift=drift), info

        monkeypatch.setattr(sdeinvariance.cli, "build_model", counted_model)
        argv = ("ensemble", "--model", "hh-logistic", "--sigma", "0.3",
                "--interpretation", "both", "--t-end", "0.5",
                "--n-paths", "3")
        assert run_cli(capsys, *argv)[0] == 0
        plain = len(calls)
        assert run_cli(capsys, *argv, "--dump-paths",
                       str(tmp_path / "paths"))[0] == 0
        assert plain > 0
        assert len(calls) == 2 * plain


# one-dimensional logistic noise with no diffusion_jacobian, so convert
# takes the central-difference branch
LOGISTIC_1D_SOURCE = '''\
from sdeinvariance import Box, ModelInfo, SdeSystem


def build(sigma=None, interpretation=None):
    s = 0.5 if sigma is None else sigma
    kwargs = {}
    if interpretation is not None:
        kwargs["interpretation"] = interpretation
    system = SdeSystem(m=1, r=1, drift=lambda t, x: [0.5 - x[0]],
                       diffusion=lambda t, x: [[s * x[0] * (1.0 - x[0])]],
                       name="logistic1d", **kwargs)
    info = ModelInfo(box=Box.unit((0,)), x0=(0.3,), horizon=1.0)
    return system, info
'''

# convert arguments -> sha256 of stdout and of the --out file
PINNED_CONVERTS = {
    "hh-det": (
        ("--model", "hh-det"),
        {"stdout": "92df39ddd75c3db374b0629211ceb56b"
                   "7fdec0c523c31dad50bfb60f19dc35ec",
         "out": "4bddcd9b3f3bab0d81ca476b871918f1"
                "0573b98cba634aa6e8e3c48b8f58f1e0"}),
    "hh-additive": (
        ("--model", "hh-additive"),
        {"stdout": "51ea186d94e1641834bf0cb4739f28f2"
                   "355587b4964950dd7f866adfed08314e",
         "out": "4370d7c03e7fb1d89c7379d6d0186852"
                "9b80c5ce0deed0b8a26eb3de488b90b8"}),
    "hh-logistic": (
        ("--model", "hh-logistic"),
        {"stdout": "e05427edd2b20e7e52db80190d2173e1"
                   "2342a964d912b2bf3d3149c1a1d121f0",
         "out": "bf8b5e496d88df8cba33313d3b260aca"
                "6670f48aba2c39a9a9c27e20cf175648"}),
    "hh-logistic-box": (
        ("--model", "hh-logistic", "--sigma", "0.2,0.4,0.6", "--box",
         '{"indices": [0, 2], "lower": [0.1, 0.2], "upper": [0.9, 0.7]}'),
        {"stdout": "2aac191364b9eacd7eb37ec90caef49a"
                   "0615f3a7f368899782895853068ab38b",
         "out": "99bf7afc59b64f59f45a3d0beffe1307"
                "510208f5558a013ace7577061202f61b"}),
    "plugin-central-difference": (
        ("--model", "logistic1d.py"),
        {"stdout": "5e540a1a6c717b669cd5097b246092d9"
                   "d924e5dbaf38719efd374c1d306d06c7",
         "out": "9092adfd01d9052a0c5f1175f07cbc6b"
                "abb40c5bbc0a972e460739a683ef1569"}),
}


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

    def test_interpretation_is_not_a_convert_flag(self, capsys):
        # convert always starts from the Stratonovich reading
        for reading in ("ito", "stratonovich"):
            code, out, err = run_cli(capsys, "convert", "--model",
                                     "hh-logistic", "--interpretation",
                                     reading, *QUICK_CHECK)
            assert code == 1
            assert err.startswith("error:")
            assert out == ""

    # the box's diagonal has an infinite end; the samples take check_box's
    # interval there instead of turning NaN
    @pytest.mark.filterwarnings("error")
    def test_one_sided_box(self, capsys):
        code, out, err = run_cli(
            capsys, "convert", "--model", "hh-logistic", "--box",
            '{"indices": [0], "lower": [0], "upper": [Infinity]}',
            *QUICK_CHECK)
        assert code == 0, err
        assert "check verdict, stratonovich form: satisfied\n" in out
        assert "check verdict, converted ito form: satisfied\n" in out

    # the diagonal of a box whose width overflows float64 would sample
    # inf and NaN points
    @pytest.mark.filterwarnings("error")
    def test_box_too_wide_to_sample_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "convert", "--model", "hh-logistic", "--box",
            '{"indices": [0], "lower": [-1e308], "upper": [1e308]}')
        assert (code, out) == (1, "")
        assert err == ("error: coordinate 0: [-1e+308, 1e+308] is too wide "
                       "to sample\n")

    def test_box_outside_the_state_is_a_usage_error(self, capsys):
        for upper in ("1", "Infinity"):
            code, out, err = run_cli(
                capsys, "convert", "--model", "hh-logistic", "--box",
                f'{{"indices": [7], "lower": [0], "upper": [{upper}]}}',
                *QUICK_CHECK)
            assert code == 1
            assert err == ("error: box constrains a coordinate outside "
                           "the state\n")
            assert out == ""

    @pytest.mark.parametrize("case", sorted(PINNED_CONVERTS))
    def test_output_digests(self, capsys, tmp_path, monkeypatch, case):
        argv, digests = PINNED_CONVERTS[case]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "logistic1d.py").write_text(LOGISTIC_1D_SOURCE)
        code, out, err = run_cli(capsys, "convert", *argv, *QUICK_CHECK,
                                 "--out", "conv.json")
        assert code == 0, err
        assert {"stdout": hashlib.sha256(out.encode()).hexdigest(),
                "out": hashlib.sha256(
                    (tmp_path / "conv.json").read_bytes()).hexdigest()
                } == digests


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the command ran before its targets were checked")


# one command line per target flag; each names its target "{target}"
TARGET_RUNS = {
    "check-out": ("check", "--model", "hh-logistic", *QUICK_CHECK, "--out",
                  "{target}"),
    "simulate-out": ("simulate", "--model", "hh-logistic", "--t-end", "1",
                     "--out", "{target}"),
    "simulate-plot": ("simulate", "--model", "hh-logistic", "--t-end", "1",
                      "--plot", "{target}"),
    "ensemble-out": ("ensemble", "--model", "hh-logistic", "--n-paths", "4",
                     "--t-end", "1", "--out", "{target}"),
    "convert-out": ("convert", "--model", "hh-logistic", *QUICK_CHECK,
                    "--out", "{target}"),
}

# one command line per target flag that an empty value must not reach
EMPTY_TARGETS = {
    "--out": ("check", "--model", "hh-logistic", *QUICK_CHECK),
    "--plot": ("simulate", "--model", "hh-logistic", "--t-end", "1"),
    "--dump-paths": ("ensemble", "--model", "hh-logistic", "--n-paths", "4",
                     "--t-end", "1"),
}


class TestOutputTargets:
    """An empty target, or an --out or --plot that cannot be written, is
    refused before the command does any work, so nothing runs and nothing
    is lost."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        for name in ("run_ensemble", "check_box", "simulate",
                     "correction_batch"):
            monkeypatch.setattr(cli, name, _refuse_to_run)

    @staticmethod
    def run(capsys, case, target):
        argv = [str(target) if a == "{target}" else a
                for a in TARGET_RUNS[case]]
        return run_cli(capsys, *argv)

    @pytest.mark.parametrize("case", sorted(TARGET_RUNS))
    def test_missing_directory(self, capsys, tmp_path, case):
        folder = tmp_path / "missing"
        target = folder / "result"
        flag = "--" + case.split("-")[1]
        assert self.run(capsys, case, target) == (
            1, "", f"error: {flag} {target}: no writable directory "
            f"{folder}\n")
        assert not folder.exists()

    @pytest.mark.parametrize("case", sorted(TARGET_RUNS))
    def test_directory_that_is_not_writable(self, capsys, tmp_path,
                                            monkeypatch, case):
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        target = tmp_path / "result"
        flag = "--" + case.split("-")[1]
        assert self.run(capsys, case, target) == (
            1, "", f"error: {flag} {target}: no writable directory "
            f"{tmp_path}\n")

    @pytest.mark.parametrize("case", sorted(c for c in TARGET_RUNS
                                            if c.endswith("-out")))
    def test_out_that_is_a_directory(self, capsys, tmp_path, case):
        assert self.run(capsys, case, tmp_path) == (
            1, "", f"error: --out {tmp_path} is a directory\n")

    @pytest.mark.parametrize("flag", sorted(EMPTY_TARGETS))
    def test_empty_target(self, capsys, tmp_path, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *EMPTY_TARGETS[flag], f"{flag}=") == (
            1, "", f"error: {flag} must not be empty\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", sorted(EMPTY_TARGETS))
    def test_empty_target_from_a_config_file(self, capsys, tmp_path,
                                             monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): ""}))
        argv = (*EMPTY_TARGETS[flag], "--config", str(cfg))
        assert run_cli(capsys, *argv) == (
            1, "", f"error: {flag} must not be empty\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_plot_panel_that_is_a_directory(self, capsys, tmp_path):
        # the panel files are named after the model's panels, so they are
        # checked once the model is read, still before the path is drawn
        (tmp_path / "q-gating.svg").mkdir()
        out, prefix = tmp_path / "q.csv", tmp_path / "q"
        argv = (*TARGET_RUNS["simulate-plot"][:-1], str(prefix), "--out",
                str(out))
        assert run_cli(capsys, *argv) == (
            1, "", f"error: --plot {prefix}-gating.svg is a directory\n")
        assert not out.exists()

    def test_a_file_that_is_not_a_directory(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "s.json"
        code, out, err = self.run(capsys, "ensemble-out", target)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "no writable directory" in err

    @pytest.mark.parametrize("below", (False, True), ids=("file", "below"))
    def test_dump_paths_at_or_below_a_file(self, capsys, tmp_path, below):
        # makedirs would fail with [Errno 17] or [Errno 20], but only after
        # the ensemble's first block
        (tmp_path / "afile").write_text("")
        target = tmp_path / "afile" / "paths" if below else tmp_path / "afile"
        argv = (*EMPTY_TARGETS["--dump-paths"], "--dump-paths", str(target))
        assert run_cli(capsys, *argv) == (
            1, "", f"error: --dump-paths {target}: no writable directory "
            f"{tmp_path / 'afile'}\n")


def test_bare_target_names_write_to_the_working_directory(capsys, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "simulate", "--model", "hh-logistic",
                             "--t-end", "0.1", "--out", "p.csv", "--plot", "p")
    assert (code, out, err) == (0, "", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "p-gating.svg", "p-voltage.svg", "p.csv"]


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

    @pytest.mark.parametrize("content, message", [
        (None, "config file not found: "),
        ('["model", "hh-logistic"]', "config file must hold a JSON object"),
    ])
    def test_config_must_be_a_json_object_file(self, capsys, tmp_path,
                                               content, message):
        cfg = tmp_path / "run.json"
        if content is not None:
            cfg.write_text(content)
        code, out, err = run_cli(capsys, "check", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

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

    @pytest.mark.parametrize("config, flags, expected", [
        ({"seed": 5}, (), {"seed": 5}),  # the config seed beats SDE_SEED
        ({"seed": 5}, ("--seed", "7"), {"seed": 7}),
        ({"n_paths": 3}, ("--n-paths", "2"), {"n_paths": 2}),
        ({"n_paths": 2.0}, (), {"n_paths": 2}),  # an integral JSON float
    ])
    def test_precedence_flag_config_env(self, capsys, tmp_path, monkeypatch,
                                        config, flags, expected):
        monkeypatch.setenv("SDE_SEED", "123")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "hh-logistic", "sigma": 0.2,
                                   "t_end": 0.1, "n_paths": 4, **config}))
        code, out, err = run_cli(capsys, "ensemble", "--config", str(cfg),
                                 *flags)
        assert code == 0, err
        stats = json.loads(out)
        assert {key: stats[key] for key in expected} == expected

    def test_one_file_serves_every_command(self, capsys, tmp_path):
        # every accepted key; those of other subcommands, such as n_paths
        # and dump_paths, are accepted by check and ignored
        keys = ("model", "sigma", "interpretation", "seed", "t0", "t_end",
                "dt", "n_paths", "tol", "box", "out", "plot",
                "path_id", "samples", "time_samples", "t_max_check",
                "eps_drift", "eps_diff", "sampler_seed", "dump_paths")
        config = dict.fromkeys(keys)
        config.update(model="hh-logistic", samples=128, time_samples=4,
                      n_paths=5, dump_paths=str(tmp_path / "unused"))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "check", "--config", str(cfg))
        assert code == 0, err
        assert json.loads(out)["config_echo"]["n_face_samples"] == 128
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("command, config, flag", [
        ("ensemble", {"n_paths": 2.5}, "--n-paths: invalid int value: '2.5'"),
        ("check", {"samples": 100.7}, "--samples: invalid int value: '100.7'"),
        ("ensemble", {"seed": True}, "--seed: invalid int value: 'True'"),
        ("check", {"t_max_check": True},
         "--t-max-check: invalid float value: 'True'"),
        ("ensemble", {"interpretation": "Ito"},
         "--interpretation: invalid choice: 'Ito'"),
    ], ids=["n_paths-2.5", "samples-100.7", "seed-true", "t_max_check-true",
            "interpretation-Ito"])
    def test_config_values_are_refused_as_their_flags_are(
            self, capsys, tmp_path, command, config, flag):
        # argparse converts the file's values, and the error names the file
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "hh-logistic", **config}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {cfg}: argument {flag}")

    def test_negative_zero_keeps_its_sign(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "hh-logistic", "sigma": 0.2,
                                   "t0": -0.0, "t_end": 0.1, "n_paths": 2}))
        code, out, err = run_cli(capsys, "ensemble", "--config", str(cfg))
        assert code == 0, err
        assert '"t0": -0.0' in out

    # seeds are 64-bit keys: 2**64 would wrap to seed 0, -1 to 2**64 - 1
    @pytest.mark.parametrize("flags, env", [
        (("--seed=18446744073709551616",), None), ((), "-1")])
    def test_seed_outside_the_keys_is_refused(self, capsys, monkeypatch,
                                              flags, env):
        monkeypatch.delenv("SDE_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("SDE_SEED", env)
        assert run_cli(capsys, "simulate", "--model", "hh-additive",
                       "--t-end", "0.1", *flags) == (
            1, "", "error: seeds must lie in [0, 2**64)\n")

    # only simulate and ensemble draw noise, so only they take a seed
    @pytest.mark.parametrize("command", ["check", "convert"])
    def test_seed_is_not_an_option_without_noise(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--model", "hh-det",
                                 "--seed", "1", *QUICK_CHECK)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_check_does_not_read_the_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.delenv("SDE_SEED", raising=False)
        unset = run_cli(capsys, "check", "--model", "hh-det", *QUICK_CHECK)
        monkeypatch.setenv("SDE_SEED", "abc")
        assert run_cli(capsys, "check", "--model", "hh-det",
                       *QUICK_CHECK) == unset
        assert unset[0] == 0

    def test_unparseable_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SDE_SEED", "lots")
        code, out, err = run_cli(capsys, "ensemble", "--model",
                                 "hh-logistic", "--sigma", "0.2",
                                 "--t-end", "0.1", "--n-paths", "2")
        assert code == 1
        assert "SDE_SEED" in err


# one valid value for each option type: (config value, the flag's text)
PARITY_VALUES = {
    int: (3, "3"),
    float: (0.25, "0.25"),
    None: ("run-output", "run-output"),
    cli._parse_sigma: ([0.1, 0.2, 0.3], "0.1,0.2,0.3"),
    cli._parse_box: ({"indices": [1], "lower": [0.25], "upper": [0.75]},
                     '{"indices": [1], "lower": [0.25], "upper": [0.75]}'),
}


def _options():
    """(subcommand, action) for every option a config file may set."""
    for command, sub in cli.build_parser().commands.items():
        for action in sub._actions:
            if action.option_strings and action.dest not in ("help",
                                                             "config"):
                yield command, action


class TestConfigFlagParity:
    """Every option of every subcommand parses to the same namespace from
    a config entry as from its flag; a new option is covered as soon as
    it has a type in PARITY_VALUES or choices."""

    @pytest.mark.parametrize("command, dest", [
        (command, action.dest) for command, action in _options()])
    def test_config_entry_parses_as_its_flag(self, tmp_path, monkeypatch,
                                             command, dest):
        monkeypatch.delenv("SDE_SEED", raising=False)
        action = next(a for c, a in _options()
                      if (c, a.dest) == (command, dest))
        if action.choices is not None:
            value = text = action.choices[-1]
        else:
            value, text = PARITY_VALUES[action.type]
        flags = {"--model": "hh-det", action.option_strings[0]: text}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "hh-det", dest: value}))

        def parsed(*argv):
            ns = vars(cli._parse(cli.build_parser(), [command, *argv]))
            return {k: v for k, v in ns.items() if k not in ("config",
                                                             "plugin")}

        from_flags = parsed(*(w for pair in flags.items() for w in pair))
        assert from_flags[dest] != action.default
        assert parsed("--config", str(cfg)) == from_flags


def _as_flags(options):
    """The flags that say what a config object says: --long-name value."""
    argv = []
    for key, value in options.items():
        argv.append("--" + key.replace("_", "-"))
        argv.append(json.dumps(value) if isinstance(value, dict)
                    else str(value))
    return argv


PINNED_BOX = {"indices": [0, 1, 2], "lower": [0.051, 0.05, 0.05],
              "upper": [0.95, 0.95, 0.95]}

# (subcommand, options, files written, sha256 of stdout and each file)
PINNED_RUNS = {
    "check": (
        "check", {"model": "hh-logistic", "samples": 128, "time_samples": 4},
        (),
        {"stdout": "9de1909bde823ee99e87c98ae2127351"
                   "fb7d25c1dcffce7a29adaf075eafbada"}),
    "simulate": (
        "simulate", {"model": "hh-additive", "sigma": 0.2, "t_end": 0.5,
                     "seed": 9, "out": "path.csv", "plot": "run"},
        ("path.csv", "run-gating.svg", "run-voltage.svg"),
        {"stdout": hashlib.sha256(b"").hexdigest(),
         "path.csv": "12e735ca713f320a727cfa199cae0324"
                     "8102b56ad7cf49498aa596bc5e66812a",
         "run-gating.svg": "c5b224cd39ac605d9965290b9639d194"
                           "37dfcd9dc6dac561bb5ff63fba13a472",
         "run-voltage.svg": "49af3af43d77ec0193ade7b2ef7ee870"
                            "de9568766d96bd1e6e48e769c3ba5b4a"}),
    "ensemble": (
        "ensemble", {"model": "hh-logistic", "sigma": 0.3,
                     "interpretation": "both", "t_end": 0.5, "n_paths": 4,
                     "seed": 3, "box": PINNED_BOX, "tol": 0.001},
        (),
        {"stdout": "6d096dc685c28c4630801645769e0392"
                   "64e681159866dfb819a425374cc472f7"}),
    "convert": (
        "convert", {"model": "hh-additive", "samples": 128,
                    "time_samples": 4, "out": "conv.json"},
        ("conv.json",),
        {"stdout": "51ea186d94e1641834bf0cb4739f28f2"
                   "355587b4964950dd7f866adfed08314e",
         "conv.json": "4370d7c03e7fb1d89c7379d6d0186852"
                      "9b80c5ce0deed0b8a26eb3de488b90b8"}),
}


class TestPinnedBytes:
    """Each subcommand's output bytes, reached through flags and through
    an equivalent config file."""

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("run", sorted(PINNED_RUNS))
    def test_output_digests(self, capsys, tmp_path, monkeypatch, run,
                            source):
        command, options, files, digests = PINNED_RUNS[run]
        monkeypatch.chdir(tmp_path)
        if source == "flags":
            argv = [command, *_as_flags(options)]
        else:
            (tmp_path / "run.json").write_text(json.dumps(options))
            argv = [command, "--config", "run.json"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        for name in files:
            got[name] = hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest()
        assert got == digests


# (ensemble options, sha256 of each file --dump-paths writes); the
# additive run has non-finite paths, which the files hold frozen
PINNED_DUMPS = {
    "additive-blow-ups": (
        ("--model", "hh-additive", "--n-paths", "5"),
        {"hh-additive-ito-00000.csv": "bd3db6225ffa86b33e9b70cc9dbddae3"
                                      "0bd17e09ea5d24987233c450a8e4b8e5",
         "hh-additive-ito-00001.csv": "73d4176f7bd69169c8d5144dfacc19a8"
                                      "644cd7acef2ea299c49c1c971ffc639f",
         "hh-additive-ito-00002.csv": "4d17cb59e1234399cf431276355143c1"
                                      "695ad24bc139fce9bab5a70061f3373a",
         "hh-additive-ito-00003.csv": "05d3981f75fc261afcb0444475f5b808"
                                      "a7742b9260c6a6e7e6c13842a98e98c7",
         "hh-additive-ito-00004.csv": "245749e9a42f7fcdb99b7d13f98354ce"
                                      "c86377ce47fac63310e516f6c5148d85"}),
    "logistic-both": (
        ("--model", "hh-logistic", "--sigma", "0.3", "--interpretation",
         "both", "--t-end", "0.5", "--n-paths", "5", "--seed", "3"),
        {"hh-logistic-ito-00000.csv": "e70665a7ce6f278e8387d5a02ca44702"
                                      "d4124ca951e15e213f9ac9e2f40b3f09",
         "hh-logistic-ito-00001.csv": "07e2f71fe69a0653bbd708d1996910c9"
                                      "a6b8d0f9545c47535e928ec750cce80a",
         "hh-logistic-ito-00002.csv": "edc1548b2835b1cb92c0a8fa6c15f8c1"
                                      "e57b8efb2b0dc06013923f24e8010f09",
         "hh-logistic-ito-00003.csv": "6609c9edd80e361f1e5b9368d2a9be1c"
                                      "64fb7b1fc4215f9b6e7ab17db7063b35",
         "hh-logistic-ito-00004.csv": "11be7234031e088d0af88b9c17b9788c"
                                      "52f758c2e6a44d6d94f9d3bcfc0a8e3a",
         "hh-logistic-stratonovich-00000.csv":
             "40741567a967b3280556a24cafd927f6"
             "8896ea1c48aed1680bf7296559f32eb7",
         "hh-logistic-stratonovich-00001.csv":
             "ce902a14f4f78d8f2e7bd9567be93723"
             "9758a1b98825e2c6e6312a1a62f0f2fd",
         "hh-logistic-stratonovich-00002.csv":
             "f6eeeb54fa03726a2f7041a6447ee143"
             "75737954273e86f3857bb0fc3fe38355",
         "hh-logistic-stratonovich-00003.csv":
             "3381e9df1e742881112a099664d5a2fa"
             "2d268fceb299f43f5b204927428f7cc7",
         "hh-logistic-stratonovich-00004.csv":
             "c4113cbb493be4fa0ec28b8f933cf41e"
             "84bd5e932d2e200653eed2f4f26b1318"}),
}


class TestPinnedDumps:
    """The bytes of every --dump-paths file, at any ensemble block width."""

    # 5 paths x 4 coordinates x 8 bytes: 160 bytes of states is a 1-step
    # block and 1120 a 7-step one, which divides neither grid; the budget
    # adds the states' path-first copy and the block's noise, 4 + 3 words
    # a path-step beside the states' 4
    @pytest.mark.parametrize("states_bytes", [None, 160, 1120])
    @pytest.mark.parametrize("run", sorted(PINNED_DUMPS))
    def test_dump_digests(self, capsys, tmp_path, monkeypatch, run,
                          states_bytes):
        if states_bytes is not None:
            monkeypatch.setattr(sdeinvariance.ensemble, "_BLOCK_BYTES",
                                states_bytes // 4 * 11)
        runs = []  # the block widths of each reading's run
        tee = sdeinvariance.cli._path_tee

        def counted_tee(*args):
            write, widths = tee(*args), []
            runs.append(widths)

            def on_block(start, states):
                widths.append(states.shape[1])
                write(start, states)

            return on_block

        monkeypatch.setattr(sdeinvariance.cli, "_path_tee", counted_tee)
        options, digests = PINNED_DUMPS[run]
        target = tmp_path / "paths"
        code, out, err = run_cli(capsys, "ensemble", *options,
                                 "--dump-paths", str(target))
        assert code == 0, err
        if states_bytes is not None:  # the widths the budget names
            width = states_bytes // 160
            assert runs
            for widths in runs:
                assert widths[:-1] == [width] * (len(widths) - 1)
                assert 0 < widths[-1] < width or width == 1
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in target.iterdir()}
        assert got == digests


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


# a drift that is NaN everywhere: every path dies at its first step
NAN_DRIFT_SOURCE = '''\
from sdeinvariance import ModelInfo, SdeSystem


def build(sigma=None, interpretation=None):
    system = SdeSystem(m=1, r=0, drift=lambda t, x: [float("nan")],
                       diffusion=lambda t, x: [[]])
    return system, ModelInfo(box=None, x0=(0.5,), horizon=1.0)
'''

# a free coordinate whose window is too wide to sample
WIDE_WINDOW_SOURCE = '''\
from sdeinvariance import Box, ModelInfo, SdeSystem


def build(sigma=None, interpretation=None):
    system = SdeSystem(m=2, r=0, drift=lambda t, x: [-v for v in x],
                       diffusion=lambda t, x: [[]] * 2,
                       coord_ranges=((0.0, 1.0), (-1e308, 1e308)))
    return system, ModelInfo(box=Box.unit((0,)), x0=(0.5, 0.0), horizon=1.0)
'''

# four coordinates and a box on the first three, as the HH models have
GATES_PLUGIN_SOURCE = '''\
from sdeinvariance import Box, ModelInfo, SdeSystem


def build(sigma=None, interpretation=None):
    system = SdeSystem(m=4, r=0, drift=lambda t, x: [-v for v in x],
                       diffusion=lambda t, x: [[]] * 4, name="decay")
    info = ModelInfo(box=Box.unit((0, 1, 2)), x0=(0.5,) * 4, horizon=1.0)
    return system, info
'''


# two coordinates, but a start state of one
SHORT_X0_PLUGIN_SOURCE = '''\
from sdeinvariance import Box, ModelInfo, SdeSystem


def build(sigma=None, interpretation=None):
    system = SdeSystem(m=2, r=0, drift=lambda t, x: [-v for v in x],
                       diffusion=lambda t, x: [[]] * 2, name="short")
    info = ModelInfo(box=Box.unit((0, 1)), x0=(0.5,), horizon=1.0)
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

    @pytest.mark.filterwarnings("error")
    def test_check_of_a_window_too_wide_to_sample(self, capsys, tmp_path):
        model = tmp_path / "wide_model.py"
        model.write_text(WIDE_WINDOW_SOURCE)
        code, out, err = run_cli(capsys, "check", "--model", str(model))
        assert (code, out) == (1, "")
        assert err == ("error: coordinate 1: [-1e+308, 1e+308] is too wide "
                       "to sample\n")

    def test_simulate_through_plugin(self, capsys, plugin):
        code, out, err = run_cli(capsys, "simulate", "--model", plugin,
                                 "--t-end", "1.0", "--dt", "0.25")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x_1"
        assert len(lines) == 6

    # sha256 of the CSV over the model's 3.0 horizon at dt 0.01
    RELAX_CSV_SHA256 = (
        "827ef0ac68f18c27d8f6e2c77a3220552b3ad845e54ce86848163f781844cf30")

    @pytest.mark.parametrize("reading", ["ito", "stratonovich"])
    def test_noise_free_csv_is_pinned_under_either_reading(self, capsys,
                                                           plugin, reading):
        code, out, err = run_cli(capsys, "simulate", "--model", plugin,
                                 "--interpretation", reading)
        assert code == 0, err
        assert (hashlib.sha256(out.encode()).hexdigest()
                == self.RELAX_CSV_SHA256)

    def test_plot_of_a_plugin_is_one_state_panel(self, capsys, tmp_path):
        path = tmp_path / "gates_model.py"
        path.write_text(GATES_PLUGIN_SOURCE)
        code, out, err = run_cli(capsys, "simulate", "--model", str(path),
                                 "--dt", "0.25", "--plot",
                                 str(tmp_path / "run"))
        assert code == 0, err
        assert [p.name for p in tmp_path.glob("run-*")] == ["run-state.svg"]

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

    def test_nan_drift_on_a_face_is_an_error(self, capsys, tmp_path):
        source = PLUGIN_SOURCE.replace(
            "return [1.0 - x[0]]",
            "return [float('nan') if x[0] <= 0.0 else 1.0 - x[0]]")
        assert source != PLUGIN_SOURCE
        path = tmp_path / "nan_face_model.py"
        path.write_text(source)
        code, out, err = run_cli(capsys, "check", "--model", str(path),
                                 *QUICK_CHECK)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not finite" in err

    @pytest.fixture
    def boxless(self, tmp_path):
        path = tmp_path / "boxless_model.py"
        path.write_text(PLUGIN_SOURCE.replace(
            "ModelInfo(box=Box((0,), (0.0,), (2.0,)),", "ModelInfo(box=None,"))
        return str(path)

    def test_check_of_a_model_without_a_region_asks_for_box(self, capsys,
                                                            boxless):
        assert run_cli(capsys, "check", "--model", boxless, *QUICK_CHECK) == (
            1, "", "error: model declares no region; pass --box\n")
        code, out, err = run_cli(capsys, "check", "--model", boxless,
                                 "--box", '{"indices": [0], "lower": [0], '
                                 '"upper": [2]}', *QUICK_CHECK)
        assert code == 0, err

    def test_convert_of_a_model_without_a_region_skips_the_verdicts(
            self, capsys, boxless):
        code, out, err = run_cli(capsys, "convert", "--model", boxless)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[-1] == "no region declared; skipping verdict comparison"
        assert lines[-2] == "  x = (0.5)  ->  h/2 = (0)"

    def test_plugin_build_must_return_a_pair(self, capsys, tmp_path):
        # a lone system, and a pair that is not (SdeSystem, ModelInfo)
        for name, result in (("single", "system"), ("ints", "1, 2")):
            path = tmp_path / f"{name}_model.py"
            path.write_text(PLUGIN_SOURCE.replace("return system, info",
                                                  f"return {result}"))
            for command in ("check", "simulate"):
                assert run_cli(capsys, command, "--model", str(path)) == (
                    1, "", "error: model build() must return "
                    "(SdeSystem, ModelInfo)\n")

    def test_every_reading_of_a_plugin_is_type_checked(self, capsys,
                                                       tmp_path):
        # a good pair for the Ito reading, a lone system for Stratonovich
        path = tmp_path / "half_model.py"
        path.write_text(PLUGIN_SOURCE.replace(
            "return system, info",
            "return system if interpretation.value == 'stratonovich' "
            "else (system, info)"))
        assert run_cli(capsys, "ensemble", "--model", str(path),
                       "--interpretation", "both", "--t-end", "1.0",
                       "--dt", "0.25", "--n-paths", "2") == (
            1, "", "error: model build() must return "
            "(SdeSystem, ModelInfo)\n")

    @pytest.mark.parametrize("command", ["check", "simulate", "ensemble",
                                         "convert"])
    def test_x0_of_another_size_than_the_state_is_refused(
            self, capsys, tmp_path, command):
        path = tmp_path / "short_model.py"
        path.write_text(SHORT_X0_PLUGIN_SOURCE)
        assert run_cli(capsys, command, "--model", str(path)) == (
            1, "", "error: model x0 has size 1, not m=2\n")

    def test_directory_named_like_a_model_file(self, capsys, tmp_path):
        path = tmp_path / "m.py"
        path.mkdir()
        code, out, err = run_cli(capsys, "check", "--model", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err and "Traceback" not in err

    def test_missing_model_file(self, capsys, tmp_path):
        path = str(tmp_path / "missing.py")
        assert run_cli(capsys, "check", "--model", path) == (
            1, "", f"error: model file not found: {path}\n")

    def test_plugin_without_build_function(self, capsys, tmp_path):
        path = tmp_path / "empty_model.py"
        path.write_text("VALUE = 3\n")
        code, out, err = run_cli(capsys, "check", "--model", str(path))
        assert code == 1
        assert "build" in err


# plugins whose Stratonovich reading alone is at fault, and the error
SECOND_READING_FAULTS = {
    "build": (PLUGIN_SOURCE.replace(
        "return system, info",
        "return system if interpretation.value == 'stratonovich' "
        "else (system, info)"),
        "model build() must return (SdeSystem, ModelInfo)"),
    "grid": (PLUGIN_SOURCE.replace(
        "horizon=3.0",
        "horizon=3.0 if interpretation.value == 'ito' else 0.001"),
        "grid is shorter than one step"),
}


class TestBothReadingsSettleFirst:
    """ensemble --interpretation both builds both readings and their grids,
    and checks every file it will write, before either run, so a fault of
    the second reading loses no finished first ensemble."""

    @pytest.fixture(autouse=True)
    def no_run(self, monkeypatch):
        monkeypatch.setattr(cli, "run_ensemble", _refuse_to_run)

    @staticmethod
    def run(capsys, tmp_path, model):
        return run_cli(capsys, "ensemble", "--model", model,
                       "--interpretation", "both", "--n-paths", "4",
                       "--dump-paths", str(tmp_path / "dump"),
                       "--out", str(tmp_path / "both.json"))

    def test_a_dump_file_that_is_a_directory(self, capsys, tmp_path):
        taken = tmp_path / "dump" / "hh-logistic-stratonovich-00001.csv"
        taken.mkdir(parents=True)
        assert self.run(capsys, tmp_path, "hh-logistic") == (
            1, "", f"error: --dump-paths {taken} is a directory\n")
        assert list((tmp_path / "dump").iterdir()) == [taken]
        assert not (tmp_path / "both.json").exists()

    @pytest.mark.parametrize("fault", sorted(SECOND_READING_FAULTS))
    def test_a_fault_of_the_second_reading(self, capsys, tmp_path, fault):
        source, message = SECOND_READING_FAULTS[fault]
        model = tmp_path / "half_model.py"
        model.write_text(source)
        assert self.run(capsys, tmp_path, str(model)) == (
            1, "", f"error: {message}\n")
        assert not (tmp_path / "dump").exists()
        assert not (tmp_path / "both.json").exists()
