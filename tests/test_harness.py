import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcs import (
    ConfigError,
    MissingField,
    OutOfRange,
    TypeMismatch,
    UnknownExperiment,
    load_config,
    run_experiment,
)
from qcs.cli import main as cli_main
from qcs.experiments import SPECS, ResolutionVsIntegration
from qcs.harness import emit_results

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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
        with pytest.raises(MissingField) as err:
            load_config(path, env={})
        assert err.value.field == "seed"

    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "foo", "seed": 1})
        with pytest.raises(UnknownExperiment):
            load_config(path, env={})

    def test_type_mismatch(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "SuccessVsM", "seed": 1, "parameters": {"trials": "many"}}
        )
        with pytest.raises(TypeMismatch) as err:
            load_config(path, env={})
        assert err.value.field == "trials"

    def test_unknown_parameter_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "SuccessVsM", "seed": 1, "parameters": {"bogus": 3}}
        )
        with pytest.raises(TypeMismatch):
            load_config(path, env={})

    def test_seed_priority(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "SuccessVsM", "seed": 5})
        assert load_config(path, env={"QCS_SEED": "9"}).seed == 5
        assert load_config(path, seed_override=3, env={"QCS_SEED": "9"}).seed == 3
        no_seed = write_config(tmp_path, {"experiment": "SuccessVsM"}, "noseed.json")
        assert load_config(no_seed, env={"QCS_SEED": "9"}).seed == 9

    def test_missing_experiment(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1})
        with pytest.raises(MissingField):
            load_config(path, env={})


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

    def test_seed_override_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "SuccessVsM", "seed": 2})
        assert cli_main(["validate", "--config", str(path), "--seed", "99"]) == 0
        assert "seed=99" in capsys.readouterr().out


# each config field holds a value the spec's annotation rules out
PROBES = [
    ("ConfusionTLS", "tone_freqs_hz", []),
    ("ResolutionVsIntegration", "integration_s", [0]),
    ("ResolutionVsIntegration", "clocks", [["x"]]),
    ("JitterBandwidth", "fwhm_ps_list", ["a"]),
    ("NmseVsM", "trials_per_m", 0),
    ("NmseVsM", "m_list", [0]),
    ("SuccessVsM", "k_list", [1.5]),
    ("SuccessVsM", "p", 1.5),
    ("SuccessVsM", "p", float("nan")),
    ("MminVsK", "k_list", [-3, 5, 10]),
    ("ConfusionTLS", "dispersion_s2", float("inf")),
    ("ResolutionVsIntegration", "clocks", [["x", float("nan")]]),
    ("JitterBandwidth", "f_max_hz", 10**400),
    ("ConfusionTLS", "confusion_photons", 9),
    ("ResolutionVsIntegration", "clocks", [["bad", -1.0]]),
    ("ResolutionVsIntegration", "clocks", [["fast", 1e-2]]),
]


class TestConfigBoundary:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("experiment, field, value", PROBES)
    def test_bad_field_exits_2_and_is_named(
        self, tmp_path, capsys, command, experiment, field, value
    ):
        out = tmp_path / "out"
        doc = {
            "experiment": experiment,
            "seed": 1,
            "output_dir": str(out),
            "parameters": {field: value},
        }
        path = write_config(tmp_path, doc)
        assert cli_main([command, "--config", str(path)]) == 2
        assert f"'{field}" in capsys.readouterr().err
        assert not out.exists()

    def test_clock_skew_of_minus_one_rejected_on_a_small_grid(self):
        # 6*|skew|*f0*T + 20 = 26 frequencies: only the skew itself is wrong
        with pytest.raises(OutOfRange, match="clocks"):
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


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]
