"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.dag import io as dio
from repro.dag.generators import random_dag


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(["--version"])
        assert e.value.code == 0


class TestList:
    def test_lists_experiments_and_schedulers(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E15" in out
        assert "HEFT" in out and "IMP" in out


class TestSchedule:
    def test_schedule_json_dag(self, tmp_path, capsys):
        dag = random_dag(20, seed=1)
        path = tmp_path / "g.json"
        dio.save_json(dag, path)
        rc = main(["schedule", "--dag", str(path), "--alg", "HEFT", "--procs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "SLR" in out

    def test_schedule_stg_dag(self, tmp_path, capsys):
        dag = random_dag(15, seed=2)
        path = tmp_path / "g.stg"
        dio.save_stg(dag, path)
        rc = main(["schedule", "--dag", str(path), "--alg", "IMP", "--gantt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "schedule" in out  # gantt header

    def test_unknown_algorithm_fails(self, tmp_path):
        dag = random_dag(10, seed=3)
        path = tmp_path / "g.json"
        dio.save_json(dag, path)
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["schedule", "--dag", str(path), "--alg", "NOPE"])


class TestSimulateRenderExplain:
    @pytest.fixture
    def dag_path(self, tmp_path):
        dag = random_dag(20, seed=9)
        path = tmp_path / "g.json"
        dio.save_json(dag, path)
        return str(path)

    def test_simulate_exact(self, dag_path, capsys):
        assert main(["simulate", "--dag", dag_path, "--alg", "HEFT"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "1.0000" in out

    def test_simulate_noise_and_contention(self, dag_path, capsys):
        rc = main(["simulate", "--dag", dag_path, "--alg", "HEFT",
                   "--noise", "0.3", "--contention"])
        assert rc == 0
        assert "simulated makespan" in capsys.readouterr().out

    def test_render(self, dag_path, tmp_path, capsys):
        out_path = tmp_path / "s.svg"
        assert main(["render", "--dag", dag_path, "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("<svg")

    def test_explain(self, dag_path, capsys):
        assert main(["explain", "--dag", dag_path, "--alg", "HEFT"]) == 0
        out = capsys.readouterr().out
        assert "dominant path" in out and "utilisation" in out

    def test_compare_unknown_suite(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["compare", "--suite", "nope"])

    def test_sensitivity(self, capsys):
        rc = main(["sensitivity", "--alg", "HEFT", "--tasks", "25",
                   "--procs", "3", "--reps", "1", "--step", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "elasticity" in out and "dominant parameter" in out

    def test_report_single(self, tmp_path, capsys):
        out_path = tmp_path / "r.md"
        assert main(["report", "--out", str(out_path), "--id", "E13"]) == 0
        assert "E13" in out_path.read_text()


class TestDemoAndExperiment:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "HEFT" in out and "IMP" in out

    def test_experiment_quick(self, capsys):
        assert main(["experiment", "E13"]) == 0
        out = capsys.readouterr().out
        assert "optimality gap" in out

    def test_unknown_experiment(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            main(["experiment", "E99"])


class TestTrace:
    @pytest.fixture
    def dag_path(self, tmp_path):
        dag = random_dag(12, seed=4)
        path = tmp_path / "g.json"
        dio.save_json(dag, path)
        return str(path)

    def test_trace_chrome_to_stdout(self, dag_path, capsys):
        import json

        assert main(["trace", "heft", dag_path, "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        # The compiled executor's phases and lowering; no per-task spans.
        assert {"sched.run", "sched.rank", "sched.place", "compiled.lower"} <= names
        assert "sched.insert" not in names

    def test_trace_writes_jsonl_file(self, dag_path, tmp_path, capsys):
        import json

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "HEFT", dag_path, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "wrote" in summary and "spans" in summary
        first = json.loads(out.read_text().splitlines()[0])
        assert first["type"] == "span" and first["name"] == "sched.run"

    def test_trace_accepts_instance_document(self, tmp_path, capsys):
        import json

        from repro.instance import make_instance
        from repro.instance_io import instance_to_json

        instance = make_instance(random_dag(8, seed=6), num_procs=3, seed=6)
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(instance))
        assert main(["trace", "cpop", str(path), "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e["name"] == "sched.run" for e in doc["traceEvents"])

    def test_schedule_trace_out_flag(self, dag_path, tmp_path, capsys):
        import json

        out = tmp_path / "sched.json"
        rc = main(["schedule", "--dag", dag_path, "--alg", "IMP",
                   "--trace-out", str(out)])
        assert rc == 0
        assert "trace" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert {"sched.run", "sched.rank", "sched.place", "imp.pass",
                "compiled.lower"} <= names
        assert "sched.insert" not in names

    @pytest.mark.parametrize("alg,command", [("HEFT", "trace"), ("IMP", "schedule")])
    @pytest.mark.parametrize("machine", ["uniform", "per-link"])
    def test_traced_runs_show_the_compiled_phases(self, tmp_path, capsys, alg,
                                                   command, machine):
        import json

        from repro.instance import Instance, make_instance
        from repro.instance_io import instance_to_json
        from repro.machine.etc import generate_etc
        from repro.machine.topology import ring_machine
        from repro.obs import Tracer, use_tracer, validate_trace
        from repro.schedulers.registry import get_scheduler

        dag = random_dag(14, seed=9)
        if machine == "uniform":
            instance = make_instance(dag, num_procs=4, latency=0.5, seed=9)
        else:
            ring = ring_machine(4, latency=0.3, bandwidth=2.0)
            instance = Instance(dag=dag, machine=ring,
                                etc=generate_etc(dag, ring, heterogeneity=0.5, seed=9))
        doc_path = tmp_path / "inst.json"
        doc_path.write_text(instance_to_json(instance))
        out = tmp_path / "trace.json"
        if command == "trace":
            argv = ["trace", alg, str(doc_path), "--out", str(out)]
        else:
            argv = ["schedule", "--dag", str(doc_path), "--alg", alg,
                    "--trace-out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        events = json.loads(out.read_text())["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "X"}
        expected = {"sched.run", "sched.rank", "sched.place", "compiled.lower"}
        if alg == "IMP":
            expected.add("imp.pass")
        assert expected <= names, names
        assert "sched.insert" not in names
        # The same run under a library tracer passes the tree checks.
        tracer = Tracer(name="t")
        with use_tracer(tracer):
            get_scheduler(alg).schedule(instance)
        assert validate_trace(tracer) == []

    def test_tracing_does_not_change_the_reported_makespan(self, dag_path,
                                                           tmp_path, capsys):
        assert main(["schedule", "--dag", dag_path, "--alg", "HEFT"]) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "t.json"
        assert main(["schedule", "--dag", dag_path, "--alg", "HEFT",
                     "--trace-out", str(out)]) == 0
        traced = capsys.readouterr().out
        line = [l for l in plain.splitlines() if l.startswith("makespan")]
        assert line and line[0] in traced
