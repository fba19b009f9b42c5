import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcs import (
    ConfigError,
    InvalidArgument,
    load_config,
    run_experiment,
)
from qcs.cli import main as cli_main
from qcs.experiments import SPECS, ResolutionVsIntegration
from qcs.harness import emit_results

REPO = Path(__file__).resolve().parent.parent


class Literal:
    """A JSON number written as is, e.g. an integer too long for ``str()``."""

    def __init__(self, text):
        self.text = text


def write_config(tmp_path, doc, name="config.json"):
    literals = []

    def mark(literal):
        literals.append(literal.text)
        return f"<literal {len(literals) - 1}>"

    text = json.dumps(doc, default=mark)
    for i, literal in enumerate(literals):
        text = text.replace(f'"<literal {i}>"', literal)
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "SuccessVsM", "seed": 7})
        cfg = load_config(path, env={})
        assert cfg.experiment == "SuccessVsM"
        assert cfg.seed == 7
        assert cfg.parameters.p == 0.98

    def test_missing_seed(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "SuccessVsM"})
        with pytest.raises(ConfigError, match="'seed' is required but missing") as err:
            load_config(path, env={})
        assert err.value.field == "seed"

    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "foo", "seed": 1})
        with pytest.raises(ConfigError, match="unknown experiment: 'foo'") as err:
            load_config(path, env={})
        assert err.value.field == "experiment"

    def test_type_mismatch(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "SuccessVsM", "seed": 1, "parameters": {"trials": "many"}}
        )
        with pytest.raises(ConfigError, match="'trials' has the wrong type") as err:
            load_config(path, env={})
        assert err.value.field == "trials"

    def test_unknown_parameter_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "SuccessVsM", "seed": 1, "parameters": {"bogus": 3}}
        )
        with pytest.raises(ConfigError, match="'bogus' has the wrong type: not a parameter"):
            load_config(path, env={})

    def test_seed_priority(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "SuccessVsM", "seed": 5})
        assert load_config(path, env={"QCS_SEED": "9"}).seed == 5
        assert load_config(path, seed_override=3, env={"QCS_SEED": "9"}).seed == 3
        no_seed = write_config(tmp_path, {"experiment": "SuccessVsM"}, "noseed.json")
        assert load_config(no_seed, env={"QCS_SEED": "9"}).seed == 9

    def test_missing_experiment(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1})
        with pytest.raises(ConfigError, match="'experiment' is required but missing"):
            load_config(path, env={})

    @pytest.mark.parametrize("threads", [2, 0])
    def test_any_thread_count_but_one_is_refused(self, tmp_path, threads):
        path = write_config(tmp_path, {"experiment": "SuccessVsM", "seed": 7})
        with pytest.raises(InvalidArgument, match="threads must be 1"):
            load_config(path, threads=threads, env={})
        assert load_config(path, threads=1, env={}).seed == 7


class TestEmitResults:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], ("a", "b"), path)
        assert path.read_text() == "a,b\n"

    def test_three_rows_four_lines(self, tmp_path):
        path = tmp_path / "three.csv"
        emit_results([(1, 2.0), (3, 4.5), (5, 6.25)], ("a", "b"), path)
        text = path.read_text()
        assert text.count("\n") == 4
        assert "\r" not in text

    def test_rerun_identical_checksum(self, tmp_path):
        rows = [(1, 1 / 3), (2, np.pi)]
        d1 = emit_results(rows, ("i", "v"), tmp_path / "a.csv")
        d2 = emit_results(rows, ("i", "v"), tmp_path / "b.csv")
        assert d1 == d2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        emit_results([(np.pi,)], ("v",), path)
        assert path.read_text().splitlines()[1] == "3.14159265"


class TestRunExperiment:
    def test_success_vs_m_perfect_detection(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "SuccessVsM",
                "seed": 11,
                "output_dir": str(tmp_path / "out"),
                "parameters": {
                    "n": 2**15,
                    "k_list": [10],
                    "p": 1.0,
                    "m_grid": list(range(5, 41, 5)),
                    "trials": 200,
                    "min_hits": 1,
                    "dark_per_period": 0.0,
                },
            },
        )
        cfg = load_config(path, env={})
        manifest = run_experiment(cfg)
        assert "success_vs_m.csv" in manifest.outputs
        rows = _read_csv(tmp_path / "out" / "success_vs_m.csv")
        for row in rows:
            m, success = int(row["m"]), float(row["success"])
            if m >= 10:
                assert success == 1.0
            else:
                assert success == 0.0

    def test_manifest_lists_all_outputs_with_checksums(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "JitterBandwidth",
                "seed": 3,
                "output_dir": str(tmp_path / "jout"),
                "parameters": {"f_points": 20},
            },
        )
        manifest = run_experiment(load_config(path, env={}))
        out_dir = tmp_path / "jout"
        listed = set(manifest.outputs)
        on_disk = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
        assert listed == on_disk
        doc = json.loads((out_dir / "manifest.json").read_text())
        assert doc["outputs"] == manifest.outputs
        import hashlib

        for name, digest in manifest.outputs.items():
            assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest

    def test_rerun_byte_identical(self, tmp_path):
        doc = {
            "experiment": "NmseVsM",
            "seed": 21,
            "parameters": {"m_list": [100, 1000], "trials_per_m": 2, "n_periods": 50},
        }
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            doc["output_dir"] = str(out)
            run_experiment(load_config(write_config(tmp_path, doc), env={}))
        assert (out_a / "nmse_vs_m.csv").read_bytes() == (out_b / "nmse_vs_m.csv").read_bytes()

    def test_different_seed_different_output(self, tmp_path):
        doc = {
            "experiment": "NmseVsM",
            "seed": 21,
            "output_dir": str(tmp_path / "s1"),
            "parameters": {"m_list": [100], "trials_per_m": 2, "n_periods": 50},
        }
        run_experiment(load_config(write_config(tmp_path, doc), env={}))
        doc["seed"], doc["output_dir"] = 22, str(tmp_path / "s2")
        run_experiment(load_config(write_config(tmp_path, doc, "c2.json"), env={}))
        a = (tmp_path / "s1" / "nmse_vs_m.csv").read_bytes()
        b = (tmp_path / "s2" / "nmse_vs_m.csv").read_bytes()
        assert a != b


class TestConfusionExperiment:
    def test_background_fit_and_dominance(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "ConfusionTLS",
                "seed": 5,
                "output_dir": str(tmp_path / "conf"),
                "parameters": {"trials": 2000, "photon_counts": [1, 4]},
            },
        )
        run_experiment(load_config(path, env={}))
        acc = {int(r["photons"]): float(r["accuracy"]) for r in _read_csv(tmp_path / "conf" / "accuracy_vs_photons.csv")}
        assert acc[1] == pytest.approx(0.47, abs=0.05)
        assert acc[4] > acc[1]

    def test_zero_background_single_photon_perfect(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "ConfusionTLS",
                "seed": 6,
                "output_dir": str(tmp_path / "conf0"),
                "parameters": {
                    "trials": 400,
                    "photon_counts": [1],
                    "confusion_photons": 1,
                    "background": 0.0,
                },
            },
        )
        run_experiment(load_config(path, env={}))
        rows = _read_csv(tmp_path / "conf0" / "accuracy_vs_photons.csv")
        assert float(rows[0]["accuracy"]) == 1.0

    def test_all_background_runs_at_chance(self, tmp_path, capsys):
        # background 1.0 is the top of its range: every detection is uniform
        # over the window, and four tones are told apart one time in four
        path = write_config(
            tmp_path,
            {
                "experiment": "ConfusionTLS",
                "seed": 7,
                "output_dir": str(tmp_path / "conf1"),
                "parameters": {
                    "trials": 2000,
                    "photon_counts": [1],
                    "confusion_photons": 1,
                    "background": 1.0,
                },
            },
        )
        assert cli_main(["run", "--config", str(path)]) == 0
        rows = _read_csv(tmp_path / "conf1" / "accuracy_vs_photons.csv")
        assert float(rows[0]["accuracy"]) == pytest.approx(0.25, abs=0.05)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "SuccessVsM", "seed": 2})
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert "SuccessVsM" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "nope", "seed": 2})
        assert cli_main(["validate", "--config", str(path)]) == 2

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert cli_main(["validate", "--config", str(tmp_path / "absent.json")]) == 2

    def test_run_writes_outputs(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "experiment": "JitterBandwidth",
                "seed": 1,
                "output_dir": str(tmp_path / "cliout"),
                "parameters": {"f_points": 10},
            },
        )
        assert cli_main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "cliout" / "jitter_bandwidth.csv").exists()

    def test_dark_draw_over_the_cap_exits_3(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "experiment": "SuccessVsM",
                "seed": 1,
                "output_dir": str(tmp_path / "dark"),
                "parameters": {"dark_per_period": 1e6, "n": 8, "k_list": [3], "trials": 5},
            },
        )
        assert cli_main(["run", "--config", str(path)]) == 3
        assert "dark_per_period" in capsys.readouterr().err
        assert not (tmp_path / "dark").exists()

    @pytest.mark.parametrize(
        "experiment, parameters",
        [
            # K = 3 is exact; the Monte Carlo for K = 4 would need ~1e302 periods per trial
            ("MminVsK", {"k_list": [3, 4, 5], "p": 1e-300}),
            # the dark-free Monte Carlo would need ~1e302 periods per trial
            ("SuccessVsM", {"k_list": [3], "p": 1e-300, "dark_per_period": 0}),
        ],
    )
    def test_tiny_p_exits_3_and_names_p(self, tmp_path, capsys, experiment, parameters):
        doc = {"experiment": experiment, "seed": 1, "output_dir": str(tmp_path / "tiny")}
        path = write_config(tmp_path, {**doc, "parameters": parameters})
        assert cli_main(["run", "--config", str(path)]) == 3
        assert "p = 1e-300" in capsys.readouterr().err
        assert not (tmp_path / "tiny").exists()

    @pytest.mark.parametrize(
        "parameters, named",
        [
            # the pulse horizon at p = 0.001 passes the exact curve's work cap at K = 10
            ({"p": 0.001, "k_list": [10, 20, 30], "min_hits_list": [1]}, "p = 0.001"),
            # closer to 1 than the exact curve's error floor
            ({"target": 0.9999999999999999, "k_list": [4, 5, 6]}, "target = 0.9999"),
        ],
    )
    def test_refused_coverage_curve_exits_3_at_once_naming_the_field(
        self, tmp_path, capsys, parameters, named
    ):
        doc = {"experiment": "MminVsK", "seed": 1, "output_dir": str(tmp_path / "curve")}
        path = write_config(tmp_path, {**doc, "parameters": parameters})
        started = time.perf_counter()
        assert cli_main(["run", "--config", str(path)]) == 3
        assert time.perf_counter() - started < 2.0
        assert named in capsys.readouterr().err
        assert not (tmp_path / "curve").exists()

    @pytest.mark.parametrize(
        "experiment, parameters, named",
        [
            # 1000 periods of 1e-320 s make a span far under the 1 ps resolution
            ("NmseVsM", {"period_s": 1e-320}, "span 9.99989e-318 s is outside"),
            # rounds to a span of 0 ps, which the peak search would divide by
            ("ResolutionVsIntegration", {"integration_s": [1e-300]}, "span 1e-300 s"),
            # 2e9 expected candidate arrivals, refused before the draw
            ("DftDemo", {"comb_photons": 10**9}, "2e+09 candidate arrivals"),
        ],
    )
    def test_refused_spectral_run_exits_3_naming_the_cause(
        self, tmp_path, capsys, experiment, parameters, named
    ):
        out = tmp_path / "spectral"
        doc = {"experiment": experiment, "seed": 1, "output_dir": str(out)}
        path = write_config(tmp_path, {**doc, "parameters": parameters})
        assert cli_main(["run", "--config", str(path)]) == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_import_and_validate_leave_scipy_unloaded(self):
        # scipy.stats costs over a second of start-up; only the tests need it.
        # numpy.random loads at a run's first draw: imported with qcs, it
        # raised the benchmark's warm-up peak RSS by about 0.5 MB
        code = (
            "import sys, qcs, qcs.cli\n"
            "assert 'numpy.random' not in sys.modules\n"
            "assert qcs.cli.main(['validate', '--config', sys.argv[1]]) == 0\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
        config = REPO / "configs" / "mmin_vs_k.json"
        done = subprocess.run(
            [sys.executable, "-c", code, str(config)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "JitterBandwidth", "seed": 1})
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", "--config", str(path), "--threads", "2"])
        assert exit_.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_seed_override_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "SuccessVsM", "seed": 2})
        assert cli_main(["validate", "--config", str(path), "--seed", "99"]) == 0
        assert "seed=99" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "config_seed, flag, env_seed",
        [(1, ["--seed", "-1"], None), (-7, [], None), (None, [], "-3")],
        ids=["flag", "config", "env"],
    )
    def test_negative_seed_exits_2_naming_seed(
        self, tmp_path, capsys, monkeypatch, command, config_seed, flag, env_seed
    ):
        # numpy's SeedSequence refuses it, so it must not get past validation
        doc = {"experiment": "JitterBandwidth", "output_dir": str(tmp_path / "neg")}
        if config_seed is not None:
            doc["seed"] = config_seed
        monkeypatch.delenv("QCS_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("QCS_SEED", env_seed)
        path = write_config(tmp_path, doc)
        assert cli_main([command, "--config", str(path), *flag]) == 2
        assert "'seed'" in capsys.readouterr().err
        assert not (tmp_path / "neg").exists()

    @pytest.mark.parametrize(
        "config_seed, flag, env_seed",
        [(1, ["--seed", "0"], None), (0, [], None), (None, [], "0")],
        ids=["flag", "config", "env"],
    )
    def test_zero_seed_is_accepted(
        self, tmp_path, capsys, monkeypatch, config_seed, flag, env_seed
    ):
        # the negative-seed check starts below zero, which SeedSequence takes
        doc = {"experiment": "JitterBandwidth"}
        if config_seed is not None:
            doc["seed"] = config_seed
        monkeypatch.delenv("QCS_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("QCS_SEED", env_seed)
        path = write_config(tmp_path, doc)
        assert cli_main(["validate", "--config", str(path), *flag]) == 0
        assert "seed=0" in capsys.readouterr().out

    @pytest.mark.parametrize("under", [False, True], ids=["file", "file_sub"])
    @pytest.mark.parametrize(
        "command, flag", [("validate", False), ("run", False), ("run", True)],
        ids=["validate", "run", "run_out_flag"],
    )
    def test_out_at_an_existing_file_exits_2_naming_it(
        self, tmp_path, capsys, command, flag, under
    ):
        # refused with the config, not once the sweep has run
        taken = tmp_path / "taken.txt"
        taken.write_text("kept\n")
        out = str(taken / "sub" if under else taken)
        doc = {"experiment": "JitterBandwidth", "seed": 1}
        if not flag:
            doc["output_dir"] = out
        path = write_config(tmp_path, doc)
        assert cli_main([command, "--config", str(path), *(["--out", out] if flag else [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'output_dir'" in err and str(taken) in err
        assert taken.read_text() == "kept\n"

    def test_out_at_a_dangling_link_exits_2_naming_it(self, tmp_path, capsys):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        doc = {"experiment": "JitterBandwidth", "seed": 1, "output_dir": str(link)}
        assert cli_main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "'output_dir'" in err and str(link) in err


# each config field holds a value the spec's annotation rules out
PROBES = [
    ("ConfusionTLS", "tone_freqs_hz", []),
    ("ResolutionVsIntegration", "integration_s", [0]),
    ("ResolutionVsIntegration", "clocks", [["x"]]),
    ("JitterBandwidth", "fwhm_ps_list", ["a"]),
    ("NmseVsM", "trials_per_m", 0),
    ("NmseVsM", "m_list", [0]),
    # a repeated M wrote a made-up fit: slope -0.108, r2 0
    ("NmseVsM", "m_list", [1000, 1000]),
    ("SuccessVsM", "k_list", [1.5]),
    ("SuccessVsM", "p", 1.5),
    ("SuccessVsM", "p", float("nan")),
    ("MminVsK", "k_list", [-3, 5, 10]),
    # the scaling fit needs three distinct K, and each min_hits names a column
    ("MminVsK", "k_list", [10, 20]),
    ("MminVsK", "k_list", [10, 10, 20]),
    ("MminVsK", "min_hits_list", [1, 1]),
    ("ConfusionTLS", "dispersion_s2", float("inf")),
    ("ResolutionVsIntegration", "clocks", [["x", float("nan")]]),
    ("JitterBandwidth", "f_max_hz", 10**400),
    # a count no float holds exactly
    ("NmseVsM", "m_list", [10**400]),
    ("ConfusionTLS", "confusion_photons", 9),
    ("ResolutionVsIntegration", "clocks", [["bad", -1.0]]),
    ("ResolutionVsIntegration", "clocks", [["fast", 1e-2]]),
    # past the 4300 digits int() parses: refused by field, not by the parser
    ("NmseVsM", "m_list", [Literal("1" + "0" * 5000)]),
    ("NmseVsM", "seed", Literal("1" + "0" * 5000)),
    # a subnormal sigma made the 3 dB bandwidth inf, a huge one made it 0
    ("JitterBandwidth", "fwhm_ps_list", [1e-300]),
    ("JitterBandwidth", "fwhm_ps_list", [3.0, 1e200]),
    # cross-field checks: each passed validation, then the run exited 3 unnamed
    ("MminVsK", "bound_n", 5),  # the classical bound needs K <= N
    ("SuccessVsM", "n", 16),  # dark counts need n >= K; the default k_list holds 20
    ("ConfusionTLS", "dispersion_s2", 0.0),
    ("ConfusionTLS", "tone_freqs_hz", [5.4e9, 16.2e9, 27e9, 500e9]),  # outside the lens window
    ("ConfusionTLS", "tone_freqs_hz", [5.4e9, 5.41e9, 27e9, 37.8e9]),  # one lens bin
    ("NmseVsM", "tone_freq_hz", 9e9),  # past the 16-bin grid's 8 GHz Nyquist
    ("DftDemo", "tone_freq_hz", 40e9),
    ("DftDemo", "comb_k", 200),  # line 200 is past the 256-bin grid's Nyquist
    # with no background given, it is fitted to the target: at or below the
    # 4-tone chance floor of 0.25 no background fraction reaches it
    ("ConfusionTLS", "target_single_photon_accuracy", 0.2),
    ("ConfusionTLS", "target_single_photon_accuracy", 0.25),
]

ONE_CLOCK = {"integration_s": [1.0], "photons": 100, "clocks": [["c", 0.0]]}

# sizes that crashed, hung or overflowed a run before each field had a range;
# they are only validated, so a lost range fails here without a sweep
SIZE_PROBES = [
    ("NmseVsM", {"n": 2**40}, "n"),
    ("DftDemo", {"comb_n": 2**53 - 1}, "comb_n"),
    ("ConfusionTLS", {"trials": 2**53 - 1}, "trials"),
    (
        "ConfusionTLS",
        {"photon_counts": [2**53 - 1], "confusion_photons": 2**53 - 1},
        "photon_counts[0]",
    ),
    ("JitterBandwidth", {"f_points": 2**53 - 1}, "f_points"),
    ("SuccessVsM", {"k_list": [2], "dark_per_period": 0, "trials": 2**53 - 1}, "trials"),
    ("SuccessVsM", {"k_list": [2], "trials": 2**53 - 1}, "trials"),
    ("NmseVsM", {"trials_per_m": 2**53 - 1}, "trials_per_m"),
    ("DftDemo", {"comb_k": 2**53 - 1}, "comb_k"),
    # wrapped the dark-count replay's int64 keys: success 0.53, not 0.92
    ("SuccessVsM", {"n": 2**53 - 1, "k_list": [10], "dark_per_period": 1.0}, "n"),
    # a fine peak search below the float spacing at f0: an empty grid's bare
    # argmax error, a 12 Hz error against a 1 Hz limit, a resolution past its limit
    ("ResolutionVsIntegration", {"f0_hz": 1e17, **ONE_CLOCK}, "f0_hz"),
    ("ResolutionVsIntegration", {"f0_hz": 1e16, **ONE_CLOCK}, "f0_hz"),
    ("ResolutionVsIntegration", {**ONE_CLOCK, "integration_s": [3e6]}, "f0_hz"),
]

# each capped size field and the top of its range
CAPS = [
    ("SuccessVsM", "n", 2**32),
    ("SuccessVsM", "trials", 10**6),
    ("NmseVsM", "n", 2**16),
    ("NmseVsM", "trials_per_m", 10**4),
    ("ConfusionTLS", "trials", 10**6),
    ("DftDemo", "tone_n", 2**16),
    ("DftDemo", "comb_n", 2**16),
    ("DftDemo", "comb_k", 2**10),
    ("JitterBandwidth", "f_points", 2**16),
]

# other fields a capped size needs to run at the top of its range
ROOM = {"comb_k": {"comb_n": 2**16}}


class TestConfigBoundary:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("experiment, field, value", PROBES)
    def test_bad_field_exits_2_and_is_named(
        self, tmp_path, capsys, command, experiment, field, value
    ):
        out = tmp_path / "out"
        doc = {"experiment": experiment, "seed": 1, "output_dir": str(out)}
        if field == "seed":
            doc["seed"] = value
        else:
            doc["parameters"] = {field: value}
        path = write_config(tmp_path, doc)
        assert cli_main([command, "--config", str(path)]) == 2
        assert f"'{field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, parameters, field", SIZE_PROBES)
    def test_oversized_field_fails_validation_naming_it(
        self, tmp_path, capsys, experiment, parameters, field
    ):
        doc = {"experiment": experiment, "seed": 1, "parameters": parameters}
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="is out of range") as err:
            load_config(path, env={})
        assert err.value.field == field
        assert cli_main(["validate", "--config", str(path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("parameters", [p for _, p, f in SIZE_PROBES if f == "f0_hz"])
    def test_a_fine_search_within_the_float_spacing_exits_2_from_run(
        self, tmp_path, capsys, parameters
    ):
        out = tmp_path / "out"
        doc = {"experiment": "ResolutionVsIntegration", "seed": 1, "output_dir": str(out)}
        path = write_config(tmp_path, {**doc, "parameters": parameters})
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "'f0_hz' is out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_the_fine_step_must_clear_the_float_spacing_at_f0(self, tmp_path):
        # at 1 GHz doubles are 1.19e-7 Hz apart; the fine step is 1/(40 T)
        doc = {"experiment": "ResolutionVsIntegration", "seed": 1}
        params = {**ONE_CLOCK, "integration_s": [1.0, 2e5]}  # a 1.25e-7 Hz step
        assert load_config(write_config(tmp_path, {**doc, "parameters": params}), env={})
        params["integration_s"] = [2.2e5]  # a 1.14e-7 Hz step
        with pytest.raises(ConfigError, match="'f0_hz' is out of range"):
            load_config(write_config(tmp_path, {**doc, "parameters": params}), env={})

    @pytest.mark.parametrize("experiment, field, top", CAPS)
    def test_size_cap_is_the_top_of_its_range(self, tmp_path, experiment, field, top):
        params = {**ROOM.get(field, {}), field: top}
        doc = {"experiment": experiment, "seed": 1, "parameters": params}
        assert getattr(load_config(write_config(tmp_path, doc), env={}).parameters, field) == top
        doc["parameters"][field] = top + 1
        with pytest.raises(ConfigError, match=f"'{field}' is out of range"):
            load_config(write_config(tmp_path, doc), env={})

    def test_photon_counts_top_out_at_16(self, tmp_path):
        doc = {"experiment": "ConfusionTLS", "seed": 1}
        top = {"photon_counts": [1, 16], "confusion_photons": 16}
        assert load_config(write_config(tmp_path, {**doc, "parameters": top}), env={})
        over = {"photon_counts": [1, 17], "confusion_photons": 1}
        with pytest.raises(ConfigError, match=r"'photon_counts\[1\]' is out of range"):
            load_config(write_config(tmp_path, {**doc, "parameters": over}), env={})

    def test_jitter_range_ends_give_finite_bandwidths(self, tmp_path):
        # at either end of fwhm_ps the bandwidth search stays in normal
        # floats; a Gaussian's f3db x FWHM is 0.3120
        out = tmp_path / "jit"
        doc = {"experiment": "JitterBandwidth", "seed": 1, "output_dir": str(out)}
        for tau in (0.0, 1e9):
            params = {"fwhm_ps_list": [1e-3, 1e9], "tau_ps": tau, "f_points": 5}
            path = write_config(tmp_path, {**doc, "parameters": params})
            run_experiment(load_config(path, env={}))
            rows = _read_csv(out / "jitter_bandwidth.csv")
            values = [float(v) for row in rows for v in row.values()]
            assert all(math.isfinite(v) for v in values)
            if tau == 0.0:
                for row in rows:
                    assert float(row["f3db_times_fwhm"]) == pytest.approx(0.3120, abs=1e-4)

    def test_period_past_the_float_range_exits_2_at_validation(self, tmp_path, capsys):
        # 5e9 Hz * 1e300 s overflows: infinitely many cycles per window
        doc = {"experiment": "NmseVsM", "seed": 1, "parameters": {"period_s": 1e300}}
        assert cli_main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "'tone_freq_hz' is out of range" in err and "at or above the grid Nyquist" in err

    def test_a_long_value_is_cut_in_the_message(self, tmp_path, capsys):
        doc = {"experiment": "NmseVsM", "seed": 1, "parameters": {"m_list": [10**400]}}
        path = write_config(tmp_path, doc)
        assert cli_main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'m_list[0]'" in err and "(401 characters)" in err
        assert len(err) < 200

    def test_count_past_2_to_the_53_names_its_element(self, tmp_path, capsys):
        doc = {"experiment": "NmseVsM", "seed": 1, "output_dir": str(tmp_path / "out")}
        path = write_config(tmp_path, {**doc, "parameters": {"m_list": [100, 2**53]}})
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "'m_list[1]'" in capsys.readouterr().err
        path = write_config(tmp_path, {**doc, "parameters": {"m_list": [2**53 - 1]}})
        assert load_config(path, env={}).parameters.m_list == (2**53 - 1,)

    def test_clock_skew_of_minus_one_rejected_on_a_small_grid(self):
        # 6*|skew|*f0*T + 20 = 26 frequencies: only the skew itself is wrong
        with pytest.raises(ConfigError, match="'clocks' is out of range: a skew of -1"):
            ResolutionVsIntegration(f0_hz=1.0, integration_s=(1.0,), clocks=(("bad", -1.0),))

    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        case=st.sampled_from(
            [(name, f.name) for name, spec in SPECS.items() for f in dataclasses.fields(spec)]
        ),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=2),
            max_leaves=8,
        )
        | st.floats()
        | st.lists(st.integers() | st.floats(), min_size=1, max_size=3),
    )
    def test_any_json_value_gives_a_spec_or_a_config_error(self, tmp_path, case, value):
        experiment, field = case
        doc = {"experiment": experiment, "seed": 1, "parameters": {field: value}}
        try:
            cfg = load_config(write_config(tmp_path, doc), env={})
        except ConfigError:
            return
        assert isinstance(cfg.parameters, SPECS[experiment])
        # an accepted value is finite all the way down
        json.dumps(dataclasses.asdict(cfg.parameters), allow_nan=False)


GOLDEN = sorted(path.stem for path in (REPO / "configs").glob("*.json"))


@pytest.mark.parametrize("name", GOLDEN)
def test_default_config_reproduces_committed_outputs(tmp_path, name):
    config = REPO / "configs" / f"{name}.json"
    committed = json.loads((REPO / "out" / name / "manifest.json").read_text())
    run_experiment(load_config(config, out_override=tmp_path, env={}))
    fresh = json.loads((tmp_path / "manifest.json").read_text())
    del committed["wall_time_s"], fresh["wall_time_s"]
    assert fresh == committed


BENCH = REPO / "perfbench"


@pytest.mark.parametrize("name", sorted(path.stem for path in (BENCH / "configs").glob("*.json")))
def test_benchmark_reference_is_reproduced(tmp_path, name):
    # a change that would move perfbench's reference fails here first; the
    # tolerance is perfbench's own (9 written significant digits)
    cfg = load_config(BENCH / "configs" / f"{name}.json", out_override=tmp_path, env={})
    assert cfg.seed == 20260810
    run_experiment(cfg)
    references = sorted((BENCH / "reference" / cfg.experiment).glob("*.csv"))
    assert references
    for reference in references:
        want = reference.read_text().splitlines()
        got = (tmp_path / reference.name).read_text().splitlines()
        assert len(got) == len(want) and got[0] == want[0], reference.name
        for line, ref in zip(got[1:], want[1:]):
            for a, b in zip(line.split(","), ref.split(","), strict=True):
                # a label column, such as the clock name, must match as text
                assert a == b or math.isclose(float(a), float(b), rel_tol=1e-7, abs_tol=1e-12), (
                    reference.name, line, ref
                )


def test_benchmark_child_loads_its_configs_traced(tmp_path):
    # perfbench patches qcs names and calls load_config(path, threads=1): a
    # renamed traced name or a dropped parameter fails here, not in a run
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--trace", "--setup-only", "--seed", "1",
         "--out", str(tmp_path), *sorted(map(str, (BENCH / "configs").glob("*.json")))],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


# every layer the benchmark configs reach, by the traced name perfbench gives it
TRACED_LAYERS = [
    "signals.render_intensity",
    "frontend.sample_arrivals",
    "frontend.apply_detector",
    "reconstruction.dft_coefficients",
    "coverage.min_measurements",
    "coverage.coverage_mc",
    "harness.emit_results",
]


def test_benchmark_child_runs_its_configs_traced(tmp_path):
    # one traced warm-up pass: a traced layer whose signature or call path
    # changed fails here, not only in a benchmark run
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--trace", "--passes", "0", "--seed", "1",
         "--out", str(tmp_path), *sorted(map(str, (BENCH / "configs").glob("*.json")))],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert len(report["passes"]) == 1
    traced = {span["name"] for span in report["spans"] if span["run"] == 0}
    assert [name for name in TRACED_LAYERS if name not in traced] == []


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]
