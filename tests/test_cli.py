import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from projctl.cli import main
from projctl.control_laws import ControllerGains
from projctl.errors import ConfigError, TaskInconsistencyError
from projctl.runner import (
    compare_controllers,
    contact_slip,
    load_config,
    load_scenario,
    output_paths,
    run_scenario,
)

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def short_config(tmp_path, base="arm_tracking.json", **overrides):
    cfg = json.loads((CONFIGS / base).read_text(encoding="utf-8"))
    cfg["duration"] = overrides.pop("duration", 0.2)
    cfg.setdefault("output", {})["dir"] = str(tmp_path / "out")
    for dotted, value in overrides.items():
        node = cfg
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


class TestConfigValidation:
    def test_negative_dt_exit_2(self, tmp_path, capsys):
        path, _ = short_config(tmp_path, **{"integrator.dt": -0.001})
        code = main(["run", str(path), "--quiet"])
        assert code == 2
        assert "integrator" in capsys.readouterr().err

    def test_missing_field_path_reported(self, tmp_path, capsys):
        path, cfg = short_config(tmp_path)
        cfg.pop("controller")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", str(path), "--quiet"]) == 2
        assert "controller" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path):
        path, _ = short_config(tmp_path, **{"model.type": "hexapod"})
        assert main(["run", str(path), "--quiet"]) == 2

    def test_bad_contact_index(self, tmp_path):
        path, cfg = short_config(tmp_path)
        cfg["initial_state"]["active_contacts"] = [5]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", str(path), "--quiet"]) == 2

    def test_repeated_scheduled_contact_index(self, tmp_path, capsys):
        # as for initial_state.active_contacts, a repeated index would split a contact's force
        schedule = [[1.0, [0]], [1.3, [1, 1]]]
        path, _ = short_config(tmp_path, base="biped_switch.json", **{"contacts.schedule": schedule})
        assert main(["run", str(path), "--quiet"]) == 2
        assert "config error: contacts.schedule[1][1]: contact indices must be distinct" in capsys.readouterr().err

    def test_integrator_method_must_be_rk4(self, tmp_path):
        path, cfg = short_config(tmp_path)
        assert load_scenario(cfg).dt == cfg["integrator"]["dt"]  # bundled "rk4" loads
        cfg["integrator"]["method"] = "euler"
        with pytest.raises(ConfigError) as err:
            load_scenario(cfg)
        assert err.value.path == "integrator.method"

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("duration", float("nan")),
            ("duration", float("inf")),
            ("integrator.dt", float("nan")),
            ("initial_state.q", [float("nan"), 0.0, 0.0]),
            ("initial_state.q", [0.0, 0.0]),
            ("initial_state.q_dot", [0.0, 0.0]),
            ("initial_state.active_contacts", [0.9]),
            ("initial_state.active_contacts", [True]),
            ("integrator.baumgarte", "false"),
            ("integrator.baumgarte", 1),
            ("integrator.baumgarte", True),
            ("integrator.baumgarte", False),
            ("task.reference.amplitude", [0.1, 0.2]),
            ("task.reference.frequency", [0.5, 0.5]),
            ("task.reference.phase", [0.0, 0.0]),
            # the barrier solver's constants are not config fields
            ("optimizer.eta0", 1.0),
            ("optimizer.kappa", 0.2),
            ("optimizer.eps", 1e-8),
            ("optimizer.newton_tol", 1e-10),
            # a misspelt key in each section
            ("durration", 0.2),
            ("model.parms", {}),
            ("initial_state.qdot", [0.0, 0.0, 0.0]),
            ("task.refrence", {"type": "constant", "value": [0.0]}),
            ("task.reference.amplitud", [0.1]),
            ("controller.gain", {"omega": 5.0}),
            ("controller.gains.omgea", 5.0),
            ("optimizer.kapa", 0.5),
            ("integrator.dtt", 0.001),
            ("contacts.schedul", []),
            ("model.params.mases", [1.0, 1.0, 1.0]),
            ("model.params.leg_mas", 1.0),  # on the biped, below
            # a repeated index would stack one contact twice, and the copies would split its force
            ("initial_state.active_contacts", [0, 0]),
        ],
    )
    def test_rejected_at_load_with_field_path(self, tmp_path, capsys, dotted, value):
        base = "biped_switch.json" if dotted == "model.params.leg_mas" else "arm_tracking.json"
        path, _ = short_config(tmp_path, base=base, **{dotted: value})
        with pytest.raises(ConfigError) as err:
            load_scenario(load_config(path))
        assert err.value.path == dotted
        assert main(["run", str(path), "--quiet"]) == 2
        assert dotted in capsys.readouterr().err

    @pytest.mark.parametrize(
        "gains, path",
        [
            ({"kp_task": float("nan"), "kd_task": 1.0}, "controller.gains.kp_task"),
            ({"kp_task": float("inf"), "kd_task": 1.0}, "controller.gains.kp_task"),
            ({"kp_task": [[float("inf")]], "kd_task": 1.0}, "controller.gains.kp_task"),
            ({"kp_task": [["a"]], "kd_task": 1.0}, "controller.gains.kp_task"),
            ({"kp_task": [[True]], "kd_task": 1.0}, "controller.gains.kp_task"),
            ({"kp_task": [1.0], "kd_task": 1.0}, "controller.gains.kp_task"),
            ({"kp_task": 1.0, "kd_task": [[float("nan")]]}, "controller.gains.kd_task"),
            ({"kp_task": 1.0, "kd_task": "1"}, "controller.gains.kd_task"),
        ],
    )
    def test_gains_must_be_finite_numbers(self, tmp_path, gains, path):
        _, cfg = short_config(tmp_path, **{"controller.gains": {"kp_task": 4.0, "kd_task": [[2.0]]}})
        assert np.array_equal(load_scenario(cfg).gains.K_D, [[2.0]])  # finite scalar and matrix gains load
        _, cfg = short_config(tmp_path, **{"controller.gains": gains})
        with pytest.raises(ConfigError) as err:
            load_scenario(cfg)
        assert err.value.path == path

    @pytest.mark.parametrize("base, kd_dim", [("arm_tracking.json", 1), ("arm_regulation.json", 3)])
    def test_omega_gains_are_the_explicit_matrices(self, tmp_path, base, kd_dim):
        # K_P = omega^2 I on the task, K_D = 2 omega I on the task (tracking) or the joints (regulation)
        omega = 0.7
        _, cfg = short_config(tmp_path, base=base, **{"controller.gains": {"omega": omega}})
        gains = load_scenario(cfg).gains
        assert np.array_equal(gains.K_P, omega**2 * np.eye(1))
        assert np.array_equal(gains.K_D, 2.0 * omega * np.eye(kd_dim))
        if kd_dim == 1:
            damped = ControllerGains.critically_damped(1, omega)
            assert np.array_equal(gains.K_P, damped.K_P) and np.array_equal(gains.K_D, damped.K_D)

    @pytest.mark.parametrize(
        "base, gains, path",
        [
            ("arm_tracking.json", {"kp_task": -1.0, "kd_task": 1.0}, "controller.gains.kp_task"),
            ("arm_tracking.json", {"kp_task": 1.0, "kd_task": [[0.0]]}, "controller.gains.kd_task"),
            ("arm_regulation.json", {"kp_task": 16.0, "kd_joint": -2.0}, "controller.gains.kd_joint"),
            (
                "arm_regulation.json",
                {"kp_task": 16.0, "kd_joint": [[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]},
                "controller.gains.kd_joint",
            ),
        ],
    )
    def test_gains_must_be_positive_definite(self, tmp_path, capsys, base, gains, path):
        config, cfg = short_config(tmp_path, base=base, **{"controller.gains": gains})
        with pytest.raises(ConfigError) as err:
            load_scenario(cfg)
        assert err.value.path == path
        assert main(["run", str(config), "--quiet"]) == 2
        assert path in capsys.readouterr().err

    SECTIONS = [
        "model",
        "model.params",
        "initial_state",
        "task",
        "task.reference",
        "controller",
        "controller.gains",
        "optimizer",
        "integrator",
        "contacts",
        "output",
    ]

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("value", [[], "type", None])
    def test_section_must_be_an_object(self, tmp_path, section, value):
        _, cfg = short_config(tmp_path, **{section: value})
        with pytest.raises(ConfigError) as err:
            if section == "output":
                output_paths(cfg, None, "scenario")
            else:
                load_scenario(cfg)
        assert err.value.path == section

    def test_non_object_section_exit_2(self, tmp_path, capsys):
        for section in self.SECTIONS:
            path, _ = short_config(tmp_path, **{section: []})
            assert main(["run", str(path), "--quiet"]) == 2
            assert f"{section}: expected an object" in capsys.readouterr().err

    def test_non_object_root_exit_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["run", str(path), "--quiet"]) == 2
        assert main(["compare", str(path), "--quiet"]) == 2

    def test_missing_file(self):
        assert main(["run", "/nonexistent/config.json", "--quiet"]) == 2

    @pytest.mark.parametrize("case", ["not_utf8", "directory"])
    def test_unreadable_file(self, tmp_path, capsys, case):
        path = tmp_path
        if case == "not_utf8":
            path = tmp_path / "latin1.json"
            path.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
        for command in ("run", "compare"):
            assert main([command, str(path), "--quiet"]) == 2
            assert f"config error: {path}: cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, params, key",
        [
            ("arm_tracking.json", {"motor_resistance": [float("nan"), 1.0, 0.8]}, "motor_resistance"),
            ("arm_tracking.json", {"torque_constant": [0.9, float("nan"), 1.1]}, "torque_constant"),
            ("arm_tracking.json", {"masses": [1.0, 1.0]}, "masses"),
            ("arm_tracking.json", {"masses": [float("nan"), 1.2, 0.8]}, "masses"),
            ("arm_tracking.json", {"lengths": [float("inf"), 0.4, 0.35]}, "lengths"),
            ("arm_tracking.json", {"inertias": [0.1, 0.1]}, "inertias"),
            ("arm_tracking.json", {"inertias": [0.02, -0.02, 0.01]}, "inertias"),
            ("arm_tracking.json", {"gravity": float("nan")}, "gravity"),
            # one gravity rule for both models
            ("arm_tracking.json", {"gravity": -9.81}, "gravity"),
            ("biped_switch.json", {"gravity": -9.81}, "gravity"),
            ("arm_tracking.json", {"friction": True}, "friction"),
            ("arm_tracking.json", {"torque_limit": "25"}, "torque_limit"),
            ("biped_switch.json", {"motor_resistance": [1.0]}, "motor_resistance"),
            ("biped_switch.json", {"leg_length": float("nan")}, "leg_length"),
            ("biped_switch.json", {"torso_mass": False}, "torso_mass"),
        ],
    )
    def test_model_params_must_be_finite_numbers(self, tmp_path, capsys, base, params, key):
        path, cfg = short_config(tmp_path, base=base, **{"model.params": params})
        with pytest.raises(ConfigError) as err:
            load_scenario(cfg)
        assert err.value.path == f"model.params.{key}"
        assert main(["run", str(path), "--quiet"]) == 2
        assert f"model.params.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("indices", [5, [0.7], [True], "0", [0, 0], [3], [-1], []])
    def test_task_indices_must_be_distinct_joint_indices(self, tmp_path, capsys, indices):
        task = {"type": "joint", "indices": indices, "reference": {"type": "constant", "value": [0.0]}}
        path, cfg = short_config(tmp_path, task=task)
        with pytest.raises(ConfigError) as err:
            load_scenario(cfg)
        assert err.value.path == "task.indices"
        assert main(["run", str(path), "--quiet"]) == 2
        assert "task.indices" in capsys.readouterr().err

    @pytest.mark.parametrize("base", ["arm_tracking.json", "biped_switch.json"])
    def test_task_indices_only_on_joint_tasks(self, tmp_path, capsys, base):
        path, cfg = short_config(tmp_path, base=base, **{"task.indices": [7]})
        with pytest.raises(ConfigError) as err:
            load_scenario(cfg)
        assert err.value.path == "task.indices"
        assert main(["run", str(path), "--quiet"]) == 2
        assert "task.indices" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, override, field",
        [
            ("arm_tracking.json", {"duration": 0.0015}, "duration"),
            ("biped_switch.json", {"contacts.schedule": [[1.3, [0, 1]], [1.0, [0]]]}, "contacts.schedule"),
        ],
    )
    def test_scenario_checks_name_their_field(self, tmp_path, capsys, base, override, field):
        path, cfg = short_config(tmp_path, base=base, **override)
        with pytest.raises(ConfigError) as err:
            load_scenario(cfg)
        assert err.value.path == field
        assert main(["run", str(path), "--quiet"]) == 2
        assert field in capsys.readouterr().err

    def test_joint_task_indices_load(self, tmp_path):
        task = {"type": "joint", "indices": [2, 0], "reference": {"type": "constant", "value": [0.0, 0.0]}}
        _, cfg = short_config(tmp_path, task=task)
        assert load_scenario(cfg).task.dim == 2

    @pytest.mark.parametrize(
        "base, dotted, value",
        [
            # a constant reference reads no amplitude, a regulation controller no kd_task,
            # and gains given by omega no matrices
            ("arm_regulation.json", "task.reference.amplitude", [0.1]),
            ("arm_regulation.json", "controller.gains.kd_task", 2.0),
            ("arm_tracking.json", "controller.gains.kp_task", 25.0),
            ("arm_tracking.json", "output.dirr", "out"),
        ],
    )
    def test_keys_not_read_are_rejected(self, tmp_path, capsys, base, dotted, value):
        path, cfg = short_config(tmp_path, base=base, **{dotted: value})
        with pytest.raises(ConfigError, match="not read here") as err:
            if dotted.startswith("output."):
                output_paths(cfg, None, "scenario")
            else:
                load_scenario(cfg)
        assert err.value.path == dotted
        assert main(["run", str(path), "--quiet"]) == 2
        assert dotted in capsys.readouterr().err

    def test_bundled_configs_load(self):
        for config in sorted(CONFIGS.glob("*.json")):
            cfg = load_config(config)
            output_paths(cfg, None, config.stem)
            load_scenario(cfg)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_workload_configs_load(self, monkeypatch, seed):
        monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
        workloads = importlib.import_module("workloads")
        for workload in workloads.WORKLOADS.values():
            cfg = workloads.make_config(REPO, workload, seed)
            output_paths(cfg, None, workload.config)
            load_scenario(cfg)

    def test_field_paths_in_exception(self, tmp_path):
        path, cfg = short_config(tmp_path)
        cfg["task"]["reference"] = {"type": "sinusoid", "center": [0.0]}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_scenario(load_config(path))
        assert "task.reference" in str(err.value)


class TestRun:
    def test_run_writes_trace_and_report(self, tmp_path):
        path, cfg = short_config(tmp_path)
        assert main(["run", str(path), "--quiet"]) == 0
        out = Path(cfg["output"]["dir"])
        trace_file = out / "arm_tracking_trace.csv"
        report_file = out / "arm_tracking_report.json"
        assert trace_file.exists() and report_file.exists()
        lines = trace_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 201  # header + duration/dt + 1 records
        header = lines[0].split(",")
        assert header[0] == "t" and header[-1] == "status"
        report = json.loads(report_file.read_text(encoding="utf-8"))
        assert report["exit_status"] == "ok"
        assert report["violation_count"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        path, cfg = short_config(tmp_path)
        run_scenario(path, quiet=True)
        out = Path(cfg["output"]["dir"])
        first = (out / "arm_tracking_trace.csv").read_bytes()
        run_scenario(path, quiet=True)
        second = (out / "arm_tracking_trace.csv").read_bytes()
        assert first == second

    def test_summary_line_reports_slip(self, tmp_path, capsys):
        path, _ = short_config(tmp_path, duration=0.01)
        assert main(["run", str(path)]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        for figure in ("final |e| = ", "energy = ", "violations = ", "max slip = "):
            assert figure in summary

    def test_out_flag_overrides_dir(self, tmp_path):
        path, _ = short_config(tmp_path)
        assert main(["run", str(path), "--out", str(tmp_path / "elsewhere"), "--quiet"]) == 0
        assert (tmp_path / "elsewhere" / "arm_tracking_trace.csv").exists()

    def test_csv_schema_columns(self, tmp_path):
        path, cfg = short_config(tmp_path)
        run_scenario(path, quiet=True)
        out = Path(cfg["output"]["dir"])
        header = (out / "arm_tracking_trace.csv").read_text(encoding="utf-8").splitlines()[0].split(",")
        # n = p = 3, l = 1, k = 1
        expected = (
            ["t"] + [f"q{i}" for i in range(3)] + [f"dq{i}" for i in range(3)]
            + ["x0", "xd0", "e_norm"] + [f"u{i}" for i in range(3)]
            + ["lam_x_0", "lam_y_0", "lam_z_0", "margin_0"]
            + ["p_loss", "lyapunov", "phi_norm", "d_norm", "newton_iters", "eta", "status"]
        )
        assert header == expected

    def test_solver_failure_exit_3(self, tmp_path):
        # pure qcqp in single support is equality-infeasible
        path, cfg = short_config(tmp_path, base="biped_single_relaxed.json", duration=0.05)
        cfg["optimizer"] = {"type": "qcqp"}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", str(path), "--quiet"]) == 3

    def test_task_inconsistency_exit_3(self, tmp_path, capsys, monkeypatch):
        def lost_rank(frame, task):
            raise TaskInconsistencyError("task map lost rank")

        monkeypatch.setattr(importlib.import_module("projctl.simulate"), "build_task", lost_rank)
        path, _ = short_config(tmp_path, duration=0.01)
        assert main(["run", str(path), "--quiet"]) == 3
        assert capsys.readouterr().err == "runtime error: step 0, t=0.0000, active [0]: task map lost rank\n"


class TestCompare:
    def test_compare_outputs(self, tmp_path):
        path, cfg = short_config(tmp_path, base="compare_hetero.json", duration=0.2)
        traces, report, report_path = compare_controllers(path, quiet=True)
        assert set(traces) == {"min_norm", "qcqp"}
        body = json.loads(Path(report_path).read_text(encoding="utf-8"))
        kinds = [row["optimizer"] for row in body["rows"]]
        assert kinds == ["min_norm", "qcqp"]
        assert body["power_dominance_ok"] is True

    def test_compare_summary_counts_centering(self, tmp_path):
        # the summary fields of a compare report come from its first optimizer's run
        path, _ = short_config(
            tmp_path, base="compare_cone.json", duration=0.02, **{"optimizer.types": ["qcqp", "min_norm"]}
        )
        traces, report, _ = compare_controllers(path, quiet=True)
        qcqp = traces["qcqp"]
        solved = qcqp.newton_iters > 0
        assert solved.any()
        assert report.mean_newton_iters == float(qcqp.newton_iters[solved].mean())
        assert report.mean_centering_steps == float(qcqp.centering[solved].mean())
        assert report.mean_centering_steps > 0
        assert report.max_drift == max(float(t.drift.max()) for t in traces.values())
        contacts = load_scenario(load_config(path)).model.contacts
        assert report.max_slip == max(contact_slip(t, contacts) for t in traces.values())

    def test_compare_requires_types(self, tmp_path):
        path, cfg = short_config(tmp_path)
        assert main(["compare", str(path), "--quiet"]) == 2

    @pytest.mark.parametrize(
        "second, message",
        [
            (5, "unknown optimizer '5'"),
            ("qcqp_x", "unknown optimizer 'qcqp_x'"),
            ("min_norm", "'min_norm' is listed twice"),
        ],
        ids=["number", "unknown", "repeat"],
    )
    def test_every_type_is_checked_before_any_run(self, tmp_path, capsys, second, message):
        path, _ = short_config(tmp_path, base="compare_cone.json", **{"optimizer.types": ["min_norm", second]})
        assert main(["compare", str(path), "--quiet"]) == 2
        assert f"config error: optimizer.types[1]: {message}" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_equal_weights_equal_energy(self, tmp_path):
        # W = I with inactive cones: both allocators solve the same program
        path, cfg = short_config(tmp_path, base="compare_hetero.json", duration=0.2)
        cfg["model"]["params"]["motor_resistance"] = [1.0, 1.0, 1.0]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        traces, report, _ = compare_controllers(path, quiet=True)
        by = {row.optimizer: row.dissipated_energy for row in report.rows}
        assert by["qcqp"] == pytest.approx(by["min_norm"], rel=1e-6)


class TestCheckCommand:
    def test_check_passes(self, capsys):
        assert main(["check", "--seed", "3", "--quiet"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [["run", "config.json", "--seed", "1"], ["compare", "config.json", "--seed", "1"], ["check", "--out", "out"]],
    )
    def test_flags_a_command_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--seed", "-1", "--quiet"])
        assert exc.value.code == 2
        assert "argument --seed: must be non-negative" in capsys.readouterr().err

    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "planar_arm" in out and "floating_biped" in out
