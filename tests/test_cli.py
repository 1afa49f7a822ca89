import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from vqlab import vqc
from vqlab.cli import CONFIG_KEYS, SECTIONS, ConfigError, load_config, main
from vqlab.qrl import CHECKPOINT_KEYS


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigLoading:
    def test_schema_required(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1})
        with pytest.raises(ConfigError, match="schema"):
            load_config(path)

    def test_unknown_top_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"schema": "vqlab-v1", "sede": 1})
        with pytest.raises(ConfigError, match="sede"):
            load_config(path)

    def test_unknown_section_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"schema": "vqlab-v1",
                                       "qrl": {"episodez": 5}})
        with pytest.raises(ConfigError, match="episodez"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_measurement_section_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "schema": "vqlab-v1",
            "measurement": {"mode": "bogus", "shots": -3}})
        with pytest.raises(ConfigError, match="measurement"):
            load_config(path)

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_values_pass_unconverted(self, tmp_path):
        # an int passes for a float key, and entangler may be null
        path = write_config(tmp_path, {
            "schema": "vqlab-v1", "seed": 3,
            "qrl": {"lr": 1, "entangler": None, "huber_delta": 0.5},
            "quanv": {"v_max": 2}})
        doc = load_config(path)
        assert doc["qrl"] == {"lr": 1, "entangler": None, "huber_delta": 0.5}
        assert type(doc["qrl"]["lr"]) is int
        assert type(doc["quanv"]["v_max"]) is int


def run_command(tmp_path, command, config_text, *flags):
    """Run one command on a raw config text; returns the exit code."""
    config = tmp_path / "config.json"
    config.write_text(config_text)
    argv = [command, "--config", str(config), *flags]
    if command != "grad-check":
        argv += ["--out", str(tmp_path / "o")]
    if command == "quanv":
        map_path = tmp_path / "map.csv"
        map_path.write_text("0,0,0\n" * 3)
        argv.append(str(map_path))
    return main(argv)


class TestConfigTypes:
    """A value of the wrong type, a non-finite number, or a combination of
    values that does not fit, exits 1 before any work, naming its key."""

    @pytest.mark.parametrize("command, body, named", [
        ("train-qrl", '"out": 5', "config out"),
        ("train-qrl", '"seed": [1]', "config seed"),
        ("grad-check", '"grad_check": {"trials": null}', "grad_check trials"),
        ("quanv", '"quanv": {"k": null}', "quanv k"),
        ("train-qrl", '"qrl": {"eval_episodes": null}', "qrl eval_episodes"),
        ("train-qrl", '"qrl": {"episodes": 2.5}', "qrl episodes"),
        ("train-qrl", '"qrl": {"batch_size": 2.5}', "qrl batch_size"),
        ("train-qrl", '"qrl": {"episodes": "3"}', "qrl episodes"),
        ("train-qrl", '"qrl": {"huber_delta": "x"}', "qrl huber_delta"),
        ("quanv", '"quanv": {"v_max": Infinity}', "quanv v_max"),
        ("train-qrl", '"qrl": {"lr": 1e400}', "qrl lr"),
        ("train-qrl", '"qrl": {"episodes": true}', "qrl episodes"),
        ("train-qrl", '"qrl": {"gamma": NaN}', "qrl gamma"),
        ("grad-check", '"grad_check": {"h": -Infinity}', "grad_check h"),
        ("quanv", '"quanv": {"stride": 1.0}', "quanv stride"),
        ("train-qrl", '"qrl": {"entangler": 3}', "qrl entangler"),
        ("train-qrl", '"qrl": {"env": "cartpole", "num_qubits": 2}',
         "num_qubits"),
        ("train-qrl", '"qrl": {"env": "cartpole", "num_qubits": 5}',
         "num_qubits"),
        ("train-qrl", '"qrl": {"loss": "huber", "huber_delta": 0}',
         "huber_delta"),
    ])
    def test_rejected_naming_key(self, tmp_path, command, body, named,
                                 capsys):
        text = '{"schema": "vqlab-v1", ' + body + "}"
        assert run_command(tmp_path, command, text, "--seed", "1") == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestOutOfRangeValues:
    """Values of the right type but out of range fail before any work."""

    @pytest.mark.parametrize("command, section, key, value", [
        ("train-qrl", "qrl", "depth", -1),
        ("train-qrl", "qrl", "init_scale", -1),
        ("train-qrl", "qrl", "entangler", "star"),
        ("train-qrl", "qrl", "optimizer", "rmsprop"),
        ("train-qrl", "qrl", "num_qubits", 2),
        ("quanv", "quanv", "depth", -1),
    ])
    def test_named_before_output(self, tmp_path, command, section, key,
                                 value, capsys):
        text = json.dumps({"schema": "vqlab-v1", section: {key: value}})
        assert run_command(tmp_path, command, text, "--seed", "1") == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section, key, value, named", [
        ("quanv", "quanv", "k", 100_000, "cap is 24 qubits"),
        ("quanv", "quanv", "depth", 10 ** 11, "depth"),
        ("train-qrl", "qrl", "depth", 10 ** 11, "depth"),
    ])
    def test_oversized_model_is_resource_error(self, tmp_path, command,
                                               section, key, value, named,
                                               capsys):
        # refused before the model's arrays or the output exist
        text = json.dumps({"schema": "vqlab-v1", section: {key: value}})
        assert run_command(tmp_path, command, text, "--seed", "1") == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train-qrl", "quanv", "grad-check"])
    def test_negative_seed_named(self, tmp_path, command, capsys):
        plain = '{"schema": "vqlab-v1"}'
        assert run_command(tmp_path, command, plain, "--seed", "-1") == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        in_config = '{"schema": "vqlab-v1", "seed": -1}'
        assert run_command(tmp_path, command, in_config) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| (top level|`\w+`) \| `(\w+)` \|",
                                section, re.MULTILINE))
    declared = {(f"`{name}`", key) for name, keys in SECTIONS.items()
                for key in keys}
    declared |= {("top level", key) for key in CONFIG_KEYS
                 if key not in SECTIONS}
    assert documented == declared

    # the checkpoint table: nested keys as encoding.scale
    def flat(table):
        keys = set()
        for key, value in table.items():
            keys |= ({f"{key}.{inner}" for inner in value}
                     if isinstance(value, dict) else {key})
        return keys

    documented = set(re.findall(r"^\| (model|agent) \| `([\w.]+)` \|",
                                section, re.MULTILINE))
    model_keys = flat(vqc.MODEL_KEYS)
    declared = {("model", key) for key in model_keys}
    declared |= {("agent", key) for key in flat(CHECKPOINT_KEYS) - model_keys}
    assert documented == declared


class TestGradCheck:
    def test_default_run_passes(self, tmp_path):
        config = write_config(tmp_path, {
            "schema": "vqlab-v1",
            "grad_check": {"trials": 20, "max_qubits": 3, "max_depth": 2}})
        assert main(["grad-check", "--config", config, "--seed", "0"]) == 0

    def test_broken_shift_hook_fails(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, {
            "schema": "vqlab-v1", "grad_check": {"trials": 10}})
        monkeypatch.setattr(vqc, "SHIFT", 1.0)
        assert main(["grad-check", "--config", config, "--seed", "0"]) == 1

    def test_oversized_qubit_request_is_resource_error(self, capsys):
        assert main(["grad-check", "--qubits", "24", "--seed", "0"]) == 2
        assert "max_qubits" in capsys.readouterr().err

    def test_oversized_depth_request_is_resource_error(self, capsys):
        # rejected before the parameter-shift batch of 6 * (3L)^2 angles
        assert main(["grad-check", "--qubits", "1", "--depth", "1000000",
                     "--seed", "0"]) == 2
        assert "max_depth" in capsys.readouterr().err

    def test_seed_generated_and_echoed(self, capsys):
        assert main(["grad-check", "--qubits", "1", "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert re.match(r"no seed given; generated seed \d+\n", out)

    def test_bad_config_is_validation_error(self, tmp_path):
        config = write_config(tmp_path, {"schema": "vqlab-v1", "oops": 1})
        assert main(["grad-check", "--config", config]) == 1

    @pytest.mark.parametrize("flags, key", [
        (["--qubits", "0"], "max_qubits"),
        (["--depth", "0"], "max_depth"),
    ])
    def test_zero_flag_is_rejected(self, flags, key, capsys):
        assert main(["grad-check", "--seed", "0"] + flags) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("trials", -5), ("max_qubits", -5), ("max_depth", -5),
        ("tolerance", -1), ("h", 0.5)],
        ids=["trials", "max_qubits", "max_depth", "tolerance", "h"])
    def test_non_positive_config_value_named(self, tmp_path, key, value,
                                             capsys):
        # out of range: rejected naming section and key before any trial
        config = write_config(tmp_path, {"schema": "vqlab-v1",
                                         "grad_check": {key: value}})
        assert main(["grad-check", "--config", config, "--seed", "0"]) == 1
        out, err = capsys.readouterr()
        assert f"grad_check {key}" in err and out == ""


class TestUsageErrors:
    """Usage errors exit 1 and name the offending flag or argument."""

    @pytest.mark.parametrize("argv, flag", [
        (["grad-check", "--shots", "3"], "--shots"),
        (["grad-check", "--analytic"], "--analytic"),
        (["grad-check", "--out", "x"], "--out"),
        (["grad-check", "--episodes", "5"], "--episodes"),
        (["quanv", "missing.csv", "--qubits", "9"], "--qubits"),
        (["quanv", "missing.csv", "--episodes", "5"], "--episodes"),
        (["quanv"], "map"),
        (["quanv", "missing.csv"], "missing.csv"),
        (["train-qrl", "--seed", "x"], "--seed"),
    ])
    def test_exits_1_naming_flag(self, argv, flag, capsys):
        assert main(argv) == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["grad-check", "--config", "{dir}"], "Is a directory: '{dir}'"),
        (["quanv", "{map}", "--out", "{map}"], "File exists: '{map}'"),
        (["quanv", "{map}", "--out", "{map}/sub"],
         "Not a directory: '{map}/sub'"),
    ], ids=["config-is-directory", "out-is-file", "out-under-file"])
    def test_path_of_wrong_kind_exits_1(self, tmp_path, argv, named, capsys):
        map_path = tmp_path / "map.csv"
        map_path.write_text("0,0\n0,0\n")
        paths = {"dir": tmp_path, "map": map_path}
        argv = [arg.format(**paths) for arg in argv] + ["--seed", "0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert named.format(**paths) in err and "Traceback" not in err


class TestTrainQrl:
    def config(self, tmp_path, **overrides):
        qrl = {"env": "frozenlake", "episodes": 4, "warmup": 10,
               "batch_size": 8, "eval_episodes": 3}
        qrl.update(overrides)
        return write_config(tmp_path, {"schema": "vqlab-v1", "qrl": qrl})

    def test_writes_metrics_and_checkpoint(self, tmp_path):
        config = self.config(tmp_path)
        out = tmp_path / "run"
        assert main(["train-qrl", "--config", config, "--seed", "7",
                     "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "episode,steps,return,mean_loss,epsilon,wall_ms"
        assert len(lines) == 5
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["schema"] == "vqc-v1"
        assert len(doc["action_scale"]) == 4
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["seed"] == 7

    def test_rerun_is_byte_identical(self, tmp_path):
        config = self.config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["train-qrl", "--config", config, "--seed", "7",
                         "--out", str(out)]) == 0
        for name in ("metrics.csv", "checkpoint.json", "run_config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unknown_env_names_field(self, tmp_path, capsys):
        config = self.config(tmp_path, env="cognitive-radio")
        assert main(["train-qrl", "--config", config, "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 1
        assert "env kind" in capsys.readouterr().err

    def test_invalid_batch_size_names_field(self, tmp_path, capsys):
        config = self.config(tmp_path, batch_size=0)
        assert main(["train-qrl", "--config", config, "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 1
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, -2])
    def test_bad_eval_episodes_rejected_before_training(self, tmp_path,
                                                        value, capsys):
        config = self.config(tmp_path, eval_episodes=value)
        out = tmp_path / "x"
        assert main(["train-qrl", "--config", config, "--seed", "1",
                     "--out", str(out)]) == 1
        assert "eval_episodes" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_divergence_stops_without_outputs(self, tmp_path, capsys):
        config = self.config(tmp_path, optimizer="sgd", lr=1e300,
                             episodes=3, eval_episodes=2)
        out = tmp_path / "x"
        with pytest.warns(RuntimeWarning):  # numpy overflow, then NaN
            code = main(["train-qrl", "--config", config, "--seed", "1",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"train step \d+ gave non-finite", err)
        assert "qrl lr" in err
        assert not (out / "metrics.csv").exists()
        assert not (out / "checkpoint.json").exists()

    def test_run_config_replays_the_run(self, tmp_path):
        config = self.config(tmp_path, loss="huber", huber_delta=0.5,
                             entangler="chain", lr=0.02)
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["train-qrl", "--config", config, "--seed", "7",
                     "--out", str(first)]) == 0
        resolved = json.loads((first / "run_config.json").read_text())
        assert set(resolved) == {"schema", "seed", "qrl"}
        assert resolved["qrl"]["loss"] == "huber"
        assert resolved["qrl"]["eval_episodes"] == 3
        assert main(["train-qrl", "--config", str(first / "run_config.json"),
                     "--out", str(replay)]) == 0
        for name in ("metrics.csv", "checkpoint.json", "run_config.json"):
            assert (first / name).read_bytes() == (replay / name).read_bytes()

    def test_every_key_at_default_matches_empty_config(self, tmp_path):
        stated = write_config(tmp_path, {
            "schema": "vqlab-v1", "qrl": SECTIONS["qrl"]}, "stated.json")
        empty = write_config(tmp_path, {"schema": "vqlab-v1"}, "empty.json")
        for config, out in ((stated, "a"), (empty, "b")):
            assert main(["train-qrl", "--config", config, "--seed", "2",
                         "--episodes", "2", "--out", str(tmp_path / out)]) == 0
        for name in ("metrics.csv", "checkpoint.json", "run_config.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_episode_flag_overrides_config(self, tmp_path):
        config = self.config(tmp_path)
        out = tmp_path / "o"
        assert main(["train-qrl", "--config", config, "--seed", "1",
                     "--out", str(out), "--episodes", "2"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3


class TestQuanv:
    def write_map(self, tmp_path, rows):
        path = tmp_path / "map.csv"
        path.write_text("\n".join(",".join(str(v) for v in row)
                                  for row in rows) + "\n")
        return str(path)

    def test_four_by_four_produces_2x2x4(self, tmp_path):
        rng = np.random.default_rng(0)
        map_path = self.write_map(tmp_path, rng.random((4, 4)).tolist())
        out = tmp_path / "q"
        assert main(["quanv", map_path, "--seed", "3",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "quanv_output.json").read_text())
        assert doc["shape"] == [2, 2, 4]

    def test_same_seed_identical_output(self, tmp_path):
        rng = np.random.default_rng(1)
        map_path = self.write_map(tmp_path, rng.random((4, 4)).tolist())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["quanv", map_path, "--seed", "9",
                         "--out", str(out)]) == 0
        assert (out_a / "quanv_output.json").read_bytes() == \
            (out_b / "quanv_output.json").read_bytes()

    def test_depth_flag_zero_is_used(self, tmp_path):
        # depth 0 leaves only the encoding: <Z> = cos(0) = 1 on a zero map
        map_path = self.write_map(tmp_path, np.zeros((3, 3)).tolist())
        out = tmp_path / "q"
        assert main(["quanv", map_path, "--seed", "3", "--depth", "0",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "quanv_output.json").read_text())
        assert np.allclose(doc["data"], 1.0, atol=1e-12)

    def test_zero_patch_size_names_key(self, tmp_path, capsys):
        map_path = self.write_map(tmp_path, np.zeros((3, 3)).tolist())
        config = write_config(tmp_path, {"schema": "vqlab-v1",
                                         "quanv": {"k": 0}})
        assert main(["quanv", map_path, "--config", config, "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "quanv k" in err and "num_qubits" not in err

    def test_patch_over_qubit_cap_is_resource_error(self, tmp_path, capsys):
        # k=5 needs 25 qubits; the engine refuses before allocating
        map_path = self.write_map(tmp_path, np.zeros((5, 5)).tolist())
        config = write_config(tmp_path, {"schema": "vqlab-v1",
                                         "quanv": {"k": 5}})
        assert main(["quanv", map_path, "--config", config, "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert "cap is 24 qubits" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_map_smaller_than_patch_leaves_no_output(self, tmp_path, capsys):
        map_path = self.write_map(tmp_path, np.zeros((3, 3)).tolist())
        config = write_config(tmp_path, {"schema": "vqlab-v1",
                                         "quanv": {"k": 4}})
        assert main(["quanv", map_path, "--config", config, "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 1
        assert "smaller than patch" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_key_at_default_matches_empty_config(self, tmp_path):
        rng = np.random.default_rng(2)
        map_path = self.write_map(tmp_path, rng.random((6, 6)).tolist())
        stated = write_config(tmp_path, {
            "schema": "vqlab-v1", "quanv": SECTIONS["quanv"]}, "stated.json")
        empty = write_config(tmp_path, {"schema": "vqlab-v1"}, "empty.json")
        for config, out in ((stated, "a"), (empty, "b")):
            assert main(["quanv", map_path, "--config", config, "--seed", "4",
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "a" / "quanv_output.json").read_bytes() == \
            (tmp_path / "b" / "quanv_output.json").read_bytes()

    def test_ragged_csv_cites_row(self, tmp_path, capsys):
        path = tmp_path / "map.csv"
        path.write_text("0.1,0.2\n0.3\n")
        assert main(["quanv", str(path), "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 1
        assert "row 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
