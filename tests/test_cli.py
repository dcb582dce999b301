import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from gaugesim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    config_hash,
    main,
    parse_config,
)
from gaugesim.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
SCHEMA = json.loads((REPO / "docs" / "output-schema.json").read_text())


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_config(tmp_path: Path, cfg: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def base_config(**over) -> dict:
    cfg = {
        "scenario": "validate",
        "model": {"name": "tfim", "params": {"j": 1.0, "g": 1.0}},
        "n_sites": 3,
        "cover": {"scheme": "nn_pair"},
        "initial_state": "plus",
        "integrator": {"dt": 0.002, "mode": "generator", "reunitarize_every": 1},
        "observables": [{"id": "Z1", "pauli": "Z", "sites": [1]}],
        "times": [0.1],
        "seed": 3,
        "tolerance": 1e-6,
    }
    cfg.update(over)
    return cfg


class TestParseConfig:
    def test_minimal_valid(self):
        exp = parse_config(base_config())
        assert exp.scenario == "validate"
        assert exp.observables[0].obs_id == "Z1"

    def test_unknown_model_names_field(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config(base_config(model={"name": "bogus"}))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(base_config(scenario="explode"))

    def test_unsorted_times(self):
        with pytest.raises(ConfigError, match="times"):
            parse_config(base_config(times=[0.2, 0.1]))

    def test_observable_without_host_patch(self):
        cfg = base_config(
            observables=[{"pauli": "ZZ", "sites": [0, 2]}]
        )
        with pytest.raises(ConfigError, match="observables"):
            parse_config(cfg)

    def test_bad_integrator_key(self):
        cfg = base_config(integrator={"dt": 0.001, "stepper": "leapfrog"})
        with pytest.raises(ConfigError, match="integrator"):
            parse_config(cfg)

    def test_flag_overrides(self):
        exp = parse_config(base_config(), {"seed": 11, "dt": 0.01, "mode": "direct"})
        assert exp.seed == 11
        assert exp.integrator.dt == 0.01
        assert exp.mode == "direct"

    def test_renormalize_is_a_direct_mode_option(self):
        direct = {"mode": "direct", "renormalize": True}
        assert parse_config(base_config(integrator=direct)).integrator.renormalize
        with pytest.raises(ConfigError, match="integrator.renormalize"):
            parse_config(base_config(integrator=direct), {"mode": "generator"})

    def test_hash_ignores_output_sink(self):
        a = base_config()
        b = base_config(output={"path": "elsewhere.jsonl"})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(base_config(seed=4))


def _bad_field(tag, scenario, section, field):
    """A config-error case with the id scenario-tag-field, whatever its place in the list.

    The tag tells apart the cases of one scenario and field; a sectionN tag is a label.
    """
    return pytest.param(scenario, section, field, id=f"{scenario}-{tag}-{field}")


class TestScenarios:
    def test_validate_passes_and_validates_schema(self, tmp_path):
        out = tmp_path / "out.jsonl"
        cfg = write_config(tmp_path, base_config())
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        records = read_records(out)
        assert records[0]["type"] == "header"
        assert records[-1]["type"] == "summary"
        assert records[-1]["status"] == "pass"
        for record in records:
            jsonschema.validate(record, SCHEMA)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["validate", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
        assert main(["validate", "--config", str(cfg), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_hamiltonian_evolve_constant(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(
                scenario="evolve",
                model={"name": "tfim", "params": {"j": 0.0, "g": 0.0}},
                times=[0.05, 0.1],
            ),
        )
        out = tmp_path / "out.jsonl"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        records = read_records(out)
        values = [r["re"] for r in records if r["type"] == "observable"]
        assert max(abs(v - values[0]) for v in values) < 1e-12
        defects = [r for r in records if r["type"] == "defects"]
        assert all(r["consistency"] < 1e-12 for r in defects)

    def test_tolerance_failure_exit_code(self, tmp_path):
        # an impossibly tight tolerance flips the run to exit code 2
        cfg = write_config(tmp_path, base_config(tolerance=1e-18, times=[0.4]))
        out = tmp_path / "out.jsonl"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_TOLERANCE
        assert read_records(out)[-1]["status"] == "fail"

    def test_scenario_subcommand_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["evolve", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_config_file(self):
        assert main(["evolve", "--config", "/no/such/file.json"]) == EXIT_CONFIG

    def test_circuit_scenario(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "circuit",
                "model": {"name": "tfim", "params": {}},
                "n_sites": 6,
                "initial_state": "plus",
                "circuit": {"depth": 2, "audit_patches": [[2, 3]]},
                "observables": [{"pauli": "Z", "sites": [2]}],
                "seed": 5,
            },
        )
        out = tmp_path / "out.jsonl"
        assert main(["circuit", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        records = read_records(out)
        audits = [r for r in records if r["type"] == "audit"]
        assert len(audits) == 1 and audits[0]["ok"]
        for record in records:
            jsonschema.validate(record, SCHEMA)

    def test_measure_scenario(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "measure",
                "model": {"name": "tfim", "params": {}},
                "n_sites": 4,
                "initial_state": "plus",
                "integrator": {"dt": 0.002, "reunitarize_every": 1},
                "measure": {"site": 1, "basis": "Z", "time": 0.2},
                "observables": [{"pauli": "Z", "sites": [1]}],
                "seed": 17,
            },
        )
        out = tmp_path / "out.jsonl"
        assert main(["measure", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        records = read_records(out)
        meas = [r for r in records if r["type"] == "measurement"]
        assert len(meas) == 1
        assert abs(sum(meas[0]["probabilities"]) - 1.0) < 1e-10
        post_z = [r for r in records if r["type"] == "observable" and r["id"] == "Z1"]
        assert abs(abs(post_z[0]["re"]) - 1.0) < 1e-9  # projective collapse
        for record in records:
            jsonschema.validate(record, SCHEMA)

    @pytest.mark.parametrize(
        "scenario, section, field",
        [
            _bad_field("section0", "measure", {"measure": {"site": "a"}}, "measure.site"),
            _bad_field("section1", "measure", {"measure": {"site": 7}},
                       "measure.site"),  # in no patch
            _bad_field("section2", "measure", {"measure": {"site": 0, "patch": [1, 2]}},
                       "measure.site"),
            _bad_field("section3", "measure", {"measure": {"site": 1, "patch": [0, 2]}},
                       "measure.patch"),
            _bad_field("section4", "measure", {"measure": {"site": 1, "basis": "Y"}},
                       "measure.basis"),
            _bad_field("section5", "circuit", {"circuit": {"depth": "x"}}, "circuit.depth"),
            _bad_field("section6", "circuit",
                       {"circuit": {"depth": 1, "audit_patches": [[1, 2], [0, 2]]}},
                       "circuit.audit_patches[1]"),
            _bad_field("section7", "validate", {"times": ["soon"]}, "times"),
            _bad_field("section8", "validate", {"tolerance": "tight"}, "tolerance"),
            _bad_field("section9", "validate", {"seed": "abc"}, "seed"),
            _bad_field("section10", "validate", {"integrator": {"dt": "small"}}, "integrator.dt"),
            _bad_field("section11", "validate", {"integrator": {"reunitarize_every": "often"}},
                       "integrator.reunitarize_every"),
            _bad_field("section12", "validate", {"integrator": {"renormalize": "false"}},
                       "integrator.renormalize"),
            _bad_field("section13", "measure", {"measure": {"site": 1, "time": "later"}},
                       "measure.time"),
            _bad_field("section14", "measure", {"measure": {"site": 1, "tolerance": "loose"}},
                       "measure.tolerance"),
            _bad_field("section15", "circuit", {"circuit": {"depth": 1, "tolerance": "loose"}},
                       "circuit.tolerance"),
            _bad_field("section16", "circuit", {"circuit": {"depth": 1, "support_tol": "tiny"}},
                       "circuit.support_tol"),
            _bad_field("section17", "validate", {"n_sites": 0}, "n_sites"),
            _bad_field("section18", "validate", {"output": {"format": "xml"}}, "output.format"),
            _bad_field("section19", "circuit",
                       {"circuit": {"depth": 1}, "integrator": {"mode": "direct"}},
                       "integrator.mode"),
            _bad_field("section20", "validate", {"seed": 2.9}, "seed"),
            _bad_field("section21", "validate", {"seed": True}, "seed"),
            _bad_field("section22", "validate", {"integrator": {"reunitarize_every": 2.9}},
                       "integrator.reunitarize_every"),
            _bad_field("section23", "validate", {"tolerance": True}, "tolerance"),
            _bad_field("section24", "validate", {"integrator": {"dt": True}}, "integrator.dt"),
            _bad_field("section25", "circuit", {"circuit": {"depth": 1.5}}, "circuit.depth"),
            _bad_field("section26", "validate", {"observables": [{"pauli": "Z", "sites": [1.5]}]},
                       "observables[0].sites"),
            _bad_field("section27", "validate", {"integrator": "fast"}, "integrator"),
            _bad_field("section28", "validate", {"output": "x.jsonl"}, "output"),
            _bad_field("section29", "validate", {"cover": "nn"}, "cover"),
            _bad_field("section30", "circuit", {"circuit": "deep"}, "circuit"),
            _bad_field("section31", "measure", {"measure": 3}, "measure"),
            _bad_field("section32", "evolve", {"times": []}, "times"),
            _bad_field("section33", "validate", {"observables": [{"pauli": "Z", "sites": 3}]},
                       "observables[0].sites"),
            _bad_field("section34", "validate", {"observables": 3}, "observables"),
            _bad_field("section35", "validate", {"cover": {"scheme": "explicit"}}, "cover"),
            _bad_field("section36", "validate", {"cover": {"scheme": "explicit", "patches": 3}},
                       "cover"),
            _bad_field("section37", "validate", {"initial_state": {"bitstring": 101}},
                       "initial_state.bitstring"),
            _bad_field("section38", "circuit", {"circuit": {"depth": 1, "audit_patches": 5}},
                       "circuit.audit_patches"),
            _bad_field("section39", "validate", {"integrator": {"renormalize": True}},
                       "integrator.renormalize"),
        ],
    )
    def test_bad_scenario_field_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, scenario, section, field
    ):
        import gaugesim.cli as cli_module

        def no_state(*args, **kwargs):
            raise AssertionError("a state was built before the config was checked")

        monkeypatch.setattr(cli_module, "init_gauge_state", no_state)
        cfg = write_config(tmp_path, base_config(scenario=scenario, **section))
        assert main([scenario, "--config", str(cfg)]) == EXIT_CONFIG
        assert f"config error: config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["bench", "--config", str(CONFIGS / "validate_tfim_n4.json")], EXIT_CONFIG),
            (["validate"], EXIT_CONFIG),
            (["validate", "--config", str(CONFIGS / "validate_tfim_n4.json"), "--dt", "abc"],
             EXIT_CONFIG),
            (["--help"], EXIT_OK),
        ],
    )
    def test_usage_errors_exit_as_config_errors(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        err = capsys.readouterr().err
        assert err.startswith("usage: gaugesim") == (code == EXIT_CONFIG)

    def test_entry_point_failures_are_config_errors(self, tmp_path, monkeypatch, capsys):
        import gaugesim.cli as cli_module

        def no_state(*args, **kwargs):
            raise AssertionError("a state was built before the config was checked")

        monkeypatch.setattr(cli_module, "init_gauge_state", no_state)
        not_an_object = tmp_path / "list.json"
        not_an_object.write_text("[1, 2]")
        assert main(["validate", "--config", str(not_an_object)]) == EXIT_CONFIG
        assert "config error: config must be a JSON object" in capsys.readouterr().err
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "no-such-dir" / "out.jsonl"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err

    @pytest.mark.parametrize(
        "scenario, section",
        [
            ("evolve", {}),
            ("validate", {}),
            ("validate", {"tolerance": 1e-18, "times": [0.4]}),
            ("circuit", {"circuit": {"depth": 2}}),
            ("measure", {"measure": {"site": 1, "time": 0.1}}),
        ],
    )
    def test_one_header_first_and_one_summary_last(self, tmp_path, scenario, section):
        cfg = write_config(tmp_path, base_config(scenario=scenario, **section))
        out = tmp_path / "out.jsonl"
        code = main([scenario, "--config", str(cfg), "--out", str(out)])
        records = read_records(out)
        types = [r["type"] for r in records]
        assert types[0] == "header" and types.count("header") == 1
        assert types[-1] == "summary" and types.count("summary") == 1
        assert (records[-1]["status"] == "pass") == (code == EXIT_OK)
        assert code in (EXIT_OK, EXIT_TOLERANCE)

    def test_measure_scenario_sweeps_once(self, tmp_path, monkeypatch):
        import gaugesim.measure as measure_module

        calls = []
        outcomes = measure_module._outcomes

        def counting(*args, **kwargs):
            calls.append(1)
            return outcomes(*args, **kwargs)

        monkeypatch.setattr(measure_module, "_outcomes", counting)
        cfg = write_config(
            tmp_path,
            base_config(scenario="measure", measure={"site": 2, "time": 0.1}, seed=5),
        )
        out = tmp_path / "out.jsonl"
        assert main(["measure", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1

    def test_inconsistent_state_error_ends_the_stream_without_summary(self, tmp_path, capsys):
        # direct mode at dt = 0.1 with no re-unitarization drifts past the measurement's
        # consistency check: the run stops at the records written so far
        cfg = write_config(
            tmp_path,
            base_config(
                scenario="measure",
                n_sites=4,
                integrator={"dt": 0.1, "mode": "direct", "reunitarize_every": 0},
                measure={"site": 1, "time": 1.0},
            ),
        )
        out = tmp_path / "out.jsonl"
        assert main(["measure", "--config", str(cfg), "--out", str(out)]) == EXIT_TOLERANCE
        assert [r["type"] for r in read_records(out)] == ["header"]
        assert capsys.readouterr().err.startswith("error: state is inconsistent (defect ")

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(
                integrator={"dt": 50.0, "reunitarize_every": 0},
                times=[5000.0],
            ),
        )
        out = tmp_path / "out.jsonl"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 3

    def test_reunitarization_failure_exit_code(self, tmp_path, monkeypatch):
        import functools

        import gaugesim.gauge as gauge_module
        from gaugesim.linalg import polar_unitary

        monkeypatch.setattr(
            gauge_module, "polar_unitary", functools.partial(polar_unitary, max_iter=1)
        )
        cfg = write_config(
            tmp_path,
            base_config(integrator={"dt": 0.3, "reunitarize_every": 1}, times=[0.6]),
        )
        out = tmp_path / "out.jsonl"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 3

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out.csv"
        code = main(
            ["validate", "--config", str(cfg), "--out", str(out), "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("type,time,id,re,im")
        assert any(line.startswith("validation,0.1,Z1,") for line in lines)


class TestRepoConfigs:
    @pytest.mark.parametrize(
        "name",
        [
            "validate_tfim_n4.json",
            "validate_tfim_n6.json",
            "evolve_heisenberg.json",
            "measure_site3.json",
            "circuit_audit_n10.json",
            "circuit_audit_n14.json",
        ],
    )
    def test_shipped_configs_run_clean(self, tmp_path, name):
        scenario = json.loads((CONFIGS / name).read_text())["scenario"]
        out = tmp_path / "out.jsonl"
        code = main([scenario, "--config", str(CONFIGS / name), "--out", str(out)])
        assert code == EXIT_OK
        records = read_records(out)
        assert records[-1]["type"] == "summary" and records[-1]["status"] == "pass"
        for record in records:
            jsonschema.validate(record, SCHEMA)

    def test_circuit_audit_n14_runs_in_seconds_and_megabytes(self, tmp_path):
        # one D x D matrix at n = 14 is 4 GiB; the run takes about 0.3 s and 100 MB. The peak
        # is the child's own VmHWM: its ru_maxrss starts at the spawning process's peak
        probe = (
            "import json, re, sys, time\n"
            "from gaugesim.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "wall = time.perf_counter() - start\n"
            "with open('/proc/self/status') as f:\n"
            "    rss_mb = int(re.search(r'VmHWM:\\s*(\\d+) kB', f.read()).group(1)) / 1024\n"
            "print(json.dumps({'code': code, 'wall_s': wall, 'rss_mb': rss_mb}))\n"
        )
        out = tmp_path / "out.jsonl"
        args = ["circuit", "--config", str(CONFIGS / "circuit_audit_n14.json"), "--out", str(out)]
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        done = subprocess.run(
            [sys.executable, "-c", probe, *args],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        result = json.loads(done.stdout)
        records = read_records(out)
        audits = [r for r in records if r["type"] == "audit"]
        assert result["code"] == EXIT_OK
        assert len(audits) == 2 and all(r["ok"] for r in audits)
        assert records[-1]["max_gap"] <= 1e-8
        assert result["wall_s"] < 2.0
        assert result["rss_mb"] < 150

    @pytest.mark.parametrize("name", ["validate_tfim_n4", "circuit_audit_n10"])
    def test_golden_example_structure_matches_regeneration(self, tmp_path, name):
        golden = read_records(REPO / "docs" / "examples" / f"{name}.jsonl")
        config = CONFIGS / f"{name}.json"
        scenario = json.loads(config.read_text())["scenario"]
        out = tmp_path / "fresh.jsonl"
        assert main([scenario, "--config", str(config), "--out", str(out)]) == EXIT_OK
        fresh = read_records(out)
        assert [r["type"] for r in fresh] == [r["type"] for r in golden]
        assert [r.get("id") for r in fresh] == [r.get("id") for r in golden]
        # the experiment hash is arithmetic-free and must match exactly
        assert fresh[0]["config_hash"] == golden[0]["config_hash"]
        for record in golden:
            jsonschema.validate(record, SCHEMA)
        # the golden file pins behaviour: every numeric field to 1e-12 absolute
        for new, old in zip(fresh, golden):
            assert new.keys() == old.keys()
            for key, value in old.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    assert abs(new[key] - value) <= 1e-12, (old["type"], old.get("id"), key)
