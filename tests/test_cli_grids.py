"""The grid commands (``compare``, ``sweep``/``matrix``, ``sweep PARAM``,
``faults``) each compile their flags into one campaign document and run
it through the campaign executor.  A counting fake stands in for the
simulator (``-j 1`` keeps every point in this process), so these tests
pin run keys, the config each point simulates, the printed tables, the
``sweep_results.json`` schema and the exit codes — not simulation
numbers."""

import json

import pytest

import repro.sweep.runner as runner_mod
from repro.cli import main
from repro.faults.schedule import ResilienceStats
from tests.test_sweep import fake_result


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_NO_HISTORY", "1")


class FakeSimulator:
    """Records each simulated point; a faulted point runs 1.25x longer
    and reports recovery counters."""

    def __init__(self, lose_tasks=False, crash_faulted=False):
        self.points = []
        self.lose_tasks = lose_tasks
        self.crash_faulted = crash_faulted

    def __call__(self, design, workload, config, telemetry=None,
                 fault_schedule=None):
        self.points.append((design, config, fault_schedule))
        name = getattr(workload, "name", str(workload))
        if not fault_schedule:
            return fake_result(design=design, workload=name,
                               makespan=100.0)
        if self.crash_faulted:
            raise RuntimeError("injected faulted-point crash")
        result = fake_result(design=design, workload=name, makespan=125.0)
        result.resilience = ResilienceStats(
            unit_failures=3, tasks_reexecuted=2, recovery_cycles=50.0)
        if self.lose_tasks:
            result.tasks_executed -= 1
        return result


@pytest.fixture
def sim(monkeypatch):
    fake = FakeSimulator()
    monkeypatch.setattr(runner_mod, "_live_simulate", fake)
    return fake


def stored_keys(tmp_path):
    return sorted(p.stem for p in (tmp_path / "cache").glob("*/*.json")
                  if len(p.stem) == 64)


#: run keys the grid commands produced before they became campaigns;
#: the flag-to-campaign compilation must reproduce them exactly.
PINNED_KEYS = {
    ("compare", "-w", "pr"): [
        "142a99d4b56880b1481892ae97334f1a048bfd32091e9b84172d6f4cb13a2147",
        "4703a004727f47c86364ae7c1ffe18ad2e57b750f03284d58cd4457242816916",
        "62791d95e019a7c24664a44f7f3f8a566adcdb6e3b6709a3508e08c89bcb4f3d",
        "8140040de40b3cfc4c93598cfcec2073cced94a813639a6bc75f0d7226fcea70",
        "9e18844bc623a71c43f82a1104189c3fcd13f0e6d862fb4b55229495a8927275",
        "b6fb34b5eb42ac6ddcd96ebffe35501f5dfd775092577cd5c7fb7161d137c194",
    ],
    ("sweep", "alpha", "-w", "pr", "-d", "O"): [
        "346b37c0efce2dd1216ae4c1439babfd83a6153300f645ccb77b93806930bcad",
        "3a6c68ef77fd751dd4ba11b43ae7343f4923aa644d2bf679872242b5b6ede3a4",
        "ba99b0da1db48ef6c6fc3f3202ff60fd6679a639c9c58eb4700e75b79ec36123",
        "c33a3e786e79ff1050eb52fd6680d871e8ed8215d3fd347bdce6e8f5f996fea1",
        "d957137a6353b120950a1f4042779cc64fa020f07057ebe59c0dd7c4552a3d3c",
        "fa16cf7c58b5bd6b734528920ce6444a7a38691409e5cc3dff15eb3fe56dbc08",
    ],
    ("faults", "O", "pr", "--mesh", "2x2", "--units", "3", "--links", "1",
     "--vaults", "1"): [
        "1ebdbcf545ce7627dc84a3aa8fc2ba9b3a1ddeac8fc5d38976b676aac4d26256",
        "8f93d7336e4a77232657abaa2f0e7641ccb54e857e0ff2de0c6b9870bc6cd7bb",
    ],
}


@pytest.mark.parametrize("argv", list(PINNED_KEYS))
def test_grid_commands_keep_their_run_keys(argv, sim, tmp_path):
    assert main([*argv, "-j", "1"]) == 0
    assert stored_keys(tmp_path) == PINNED_KEYS[argv]


def test_compare_runs_every_design(sim, capsys):
    assert main(["compare", "-w", "pr", "--mesh", "2x2", "-j", "1"]) == 0
    assert [d for d, _, _ in sim.points] == ["B", "Sm", "Sl", "Sh", "C", "O"]
    out = capsys.readouterr().out
    assert "speedup over B (pr)" in out
    assert out.count("1.00") >= 6


def test_sweep_parameter_honours_every_config_flag(sim, capsys):
    """Each point keeps --mesh and the other overrides; only the swept
    field takes the axis values."""
    assert main(["sweep", "alpha", "-w", "pr", "-d", "O", "--mesh", "2x2",
                 "--bypass", "0.4", "-j", "1"]) == 0
    configs = [cfg for _, cfg, _ in sim.points]
    assert len(configs) == 6
    assert all((c.topology.mesh_rows, c.topology.mesh_cols) == (2, 2)
               for c in configs)
    assert all(c.cache.bypass_probability == 0.4 for c in configs)
    assert [c.scheduler.hybrid_alpha for c in configs] == \
        [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        f"alpha={v}" for v in (0.0, 1.0, 2.0, 3.0, 4.0, 6.0)]


def test_matrix_is_the_sweep_matrix(sim, tmp_path, capsys):
    out = tmp_path / "m.json"
    argv = ["--designs", "B,O", "--workloads", "pr,kmeans",
            "--mesh", "2x2", "--output", str(out), "-j", "1"]
    assert main(["matrix", *argv]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "points", "failures",
                            "geomean_over_B"}
    assert [(p["workload"], p["design"]) for p in payload["points"]] == [
        ("pr", "B"), ("pr", "O"), ("kmeans", "B"), ("kmeans", "O")]
    assert {p["source"] for p in payload["points"]} == {"run"}
    assert payload["meta"]["cache"]["misses"] == 4
    assert payload["failures"] == []
    assert "speedup over B" in capsys.readouterr().out

    # `sweep` with the same flags is the same grid: every key hits
    assert main(["sweep", *argv]) == 0
    again = json.loads(out.read_text())
    assert [p["key"] for p in again["points"]] == \
        [p["key"] for p in payload["points"]]
    assert {p["source"] for p in again["points"]} == {"cache"}
    assert len(sim.points) == 4

    assert main(["report", str(out)]) == 0


class TestFaults:
    ARGV = ["faults", "O", "pr", "--mesh", "2x2", "--units", "3", "-j", "1"]

    def test_table_slowdown_and_dump(self, sim, tmp_path, capsys):
        dump = tmp_path / "sched.json"
        assert main([*self.ARGV, "--dump-schedule", str(dump)]) == 0
        assert json.loads(dump.read_text())["events"]
        out = capsys.readouterr().out
        assert "O/pr healthy" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("O/pr u3"))
        assert row.split()[3] == "1.25"  # slowdown vs the healthy point
        assert "zero lost tasks across 1 faulted run(s)" in out

    def test_schedule_file_is_a_literal_payload(self, sim, tmp_path):
        dump = tmp_path / "sched.json"
        assert main([*self.ARGV, "--dump-schedule", str(dump)]) == 0
        keys = stored_keys(tmp_path)
        assert main(["faults", "O", "pr", "--mesh", "2x2", "-j", "1",
                     "--schedule", str(dump)]) == 0
        assert stored_keys(tmp_path) == keys  # same schedule, same key

    def test_lost_tasks_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            FakeSimulator(lose_tasks=True))
        assert main(self.ARGV) == 1
        assert "tasks were lost" in capsys.readouterr().err

    def test_failed_point_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            FakeSimulator(crash_faulted=True))
        assert main(self.ARGV) == 1
        assert "FAILED O/pr u3" in capsys.readouterr().err

    def test_no_schedule_is_a_usage_error(self, sim):
        assert main(["faults", "O", "pr"]) == 2
        assert sim.points == []
