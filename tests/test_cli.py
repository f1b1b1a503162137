import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsvcg.cli import RunManifest, _floats, _format, _write_outcome, main
from lsvcg.dynamic import DynamicScenario, TransitionKernel, save_dynamic_scenario
from lsvcg.generate import (
    dynamic_benchmark,
    incentive_benchmark,
    payment_gap_benchmark,
    random_scenario,
    rng_for,
    scale_capacity,
)
from lsvcg.mechanisms import large_scale_vcg, outcome_cell_rows
from lsvcg.model import Population, Profile, UtilityParams, load_scenario, save_scenario
from lsvcg.solver import price_sensitivity, solve_weighted

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def scenario_file(tmp_path):
    scenario = replace(
        scale_capacity(payment_gap_benchmark(), 8),
        population=Population(shares=[0.5, 0.5], num_agents=8),
    )
    path = tmp_path / "scenario.json"
    path.write_bytes(save_scenario(scenario))
    return path


@pytest.fixture
def incentive_file(tmp_path):
    path = tmp_path / "incentive.json"
    path.write_bytes(save_scenario(incentive_benchmark()))
    return path


@pytest.fixture
def dynamic_file(tmp_path):
    path = tmp_path / "dynamic.json"
    path.write_bytes(save_dynamic_scenario(dynamic_benchmark(kernel="mixing", discount=0.5)))
    return path


def _run(*argv):
    return main(list(argv))


def _strict_json(path: Path):
    """Parse ``path`` as standard JSON, which has no NaN or Infinity."""

    def reject(token):
        raise ValueError(f"{path.name}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def _read_all(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_solve_writes_solution_and_meta(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert _run("solve", "--scenario", str(scenario_file), "--out", str(out), "--seed", "7") == 0
    table = (out / "solution.csv").read_text()
    assert table.startswith("# subcommand: solve")
    assert "theta,zeta,share,z_0,p_0,kkt_residual" in table
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["kkt_residual"] <= 1e-8
    assert "wall" not in json.dumps(meta)  # timing never lands in outputs


def test_malformed_scenario_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a scenario"}')
    assert _run("solve", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("blob", [b'{"a":\xff}', b"[" * 100_000], ids=["non-utf8", "deep-nesting"])
@pytest.mark.parametrize("subcommand", ["solve", "dynamic"])
def test_undecodable_document_exits_2(subcommand, blob, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(blob)
    assert _run(subcommand, "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "not valid UTF-8 JSON" in capsys.readouterr().err


def _with_field(document: str, field: str, value, tmp_path: Path) -> Path:
    """Copy of a shipped document with the dotted ``field`` set to ``value``;
    numeric parts of the path index lists."""
    doc = json.loads((SCENARIOS / document).read_text())
    *parents, last = field.split(".")
    node = doc
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(last) if isinstance(node, list) else last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("kernel", 5, "kernel.probabilities"),
        ("horizon", 20.0, "horizon"),
        ("rho0", [math.nan, 1.0], "rho0"),
        ("kernel.probabilities.0.0.0", math.nan, "kernel.probabilities"),
        ("kernel.bin_edges.1", math.nan, "kernel.bin_edges"),
        ("truncation_tol", math.nan, "truncation_tol"),
        ("horizon", True, "horizon must be a positive integer"),
        ("type_space.num_resources", True, "num_resources must be a positive integer"),
        ("type_space.num_zeta", True, "num_zeta must be a positive integer"),
        ("truncation_tol", True, "truncation_tol must hold numbers only"),
        ("discount", True, "discount must hold numbers only"),
        ("rho0.0", False, "rho0 must hold numbers only"),
        ("kernel.bin_edges.0", False, "kernel.bin_edges must hold numbers only"),
        ("kernel.probabilities.0.0.0", True, "kernel.probabilities must hold numbers only"),
        ("capacities.0", True, "capacities must hold numbers only"),
    ],
)
def test_dynamic_document_with_a_malformed_field_exits_2(field, value, message, tmp_path, capsys):
    bad = _with_field("dynamic.json", field, value, tmp_path)
    assert _run("dynamic", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("type_space.num_theta", True, "num_theta must be a positive integer"),
        ("type_space.num_zeta", True, "num_zeta must be a positive integer"),
        ("type_space.num_resources", True, "num_resources must be a positive integer"),
        ("population.num_agents", True, "num_agents must be a positive integer"),
        ("beta", True, "beta must hold numbers only"),
        ("z_max", True, "z_max must hold numbers only"),
        ("capacities.0", True, "capacities must hold numbers only"),
        ("utility.weights.0.0", False, "utility.weights must hold numbers only"),
        ("influence.linear.0.0", True, "influence.linear must hold numbers only"),
        ("influence.quadratic.0.0", False, "influence.quadratic must hold numbers only"),
        ("population.shares.0", True, "population.shares must hold numbers only"),
        ("capacities.0", "1.0", "capacities must hold numbers only"),
        ("beta", None, "beta must hold numbers only"),
    ],
)
def test_static_document_with_a_malformed_field_exits_2(field, value, message, tmp_path, capsys):
    bad = _with_field("two_type.json", field, value, tmp_path)
    assert _run("solve", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["solve", "vcg", "lsvcg", "incentive-sweep", "sensitivity", "superimpose"])
def test_static_subcommands_run_on_the_quadratic_document(subcommand, tmp_path):
    # two resources with quadratic influence, capacities as totals over ten agents
    doc = SCENARIOS / "quadratic.json"
    assert _run(subcommand, "--scenario", str(doc), "--out", str(tmp_path / "o")) == 0


@pytest.mark.parametrize("subcommand", ["solve", "vcg", "lsvcg", "incentive-sweep", "sensitivity", "superimpose"])
def test_static_subcommands_reject_a_dynamic_document(subcommand, tmp_path, capsys):
    doc = SCENARIOS / "dynamic.json"
    assert _run(subcommand, "--scenario", str(doc), "--out", str(tmp_path / "o")) == 2
    assert "unknown fields" in capsys.readouterr().err


def test_missing_scenario_exits_2(tmp_path):
    assert _run("solve", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")) == 2


def test_unreadable_scenario_exits_2(tmp_path, capsys):
    # a directory passed as the scenario
    assert _run("solve", "--scenario", str(tmp_path), "--out", str(tmp_path / "o")) == 2
    assert "cannot read the scenario" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["1.5", "nan"])
def test_out_of_range_beta_exits_2(scenario_file, tmp_path, capsys, beta):
    assert _run("lsvcg", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"), "--beta", beta) == 2
    assert "beta must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--workers", "0"], "--workers must be positive"),
        (["--i-list", "0"], "head counts must be positive"),
        (["--i-list", "10,-5"], "head counts must be positive"),
    ],
    ids=["no-workers", "zero-head-count", "negative-head-count"],
)
def test_incentive_sweep_rejects_nonpositive_counts(incentive_file, tmp_path, capsys, flags, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        code = _run("incentive-sweep", "--scenario", str(incentive_file), "--out", str(tmp_path / "o"), *flags)
    assert code == 2
    assert message in capsys.readouterr().err


def test_incentive_sweep_names_a_non_integral_head_count(tmp_path, capsys):
    argv = ["--scenario", str(SCENARIOS / "incentive.json"), "--out", str(tmp_path / "o"), "--i-list", "10,15"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        assert _run("incentive-sweep", *argv) == 2
    assert "integral (replicated population), got 15" in capsys.readouterr().err


def test_incentive_sweep_workers_has_no_effect(incentive_file, tmp_path):
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        argv = ["--scenario", str(incentive_file), "--out", str(out), "--i-list", "10,20,40", "--workers", workers]
        assert _run("incentive-sweep", *argv) == 0
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0] == tables[1]


def test_solver_failure_exits_3(scenario_file, tmp_path, monkeypatch):
    import lsvcg.cli as cli
    from lsvcg.solver import SolverError

    def boom(*args, **kwargs):
        raise SolverError("no clearing price")

    monkeypatch.setattr(cli, "solve_weighted", boom)
    assert _run("solve", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")) == 3


def test_degenerate_sensitivity_exits_3(tmp_path, capsys):
    # the incentive document has an allocation at a corner, where the
    # price sensitivity is undefined
    doc = SCENARIOS / "incentive.json"
    assert _run("sensitivity", "--scenario", str(doc), "--out", str(tmp_path / "o")) == 3
    assert "degenerate point" in capsys.readouterr().err


def test_head_count_document_loads_and_runs(tmp_path, capsys):
    # capacities are totals over 1000 agents; the z_max headroom check reads
    # them per capita
    scenario = scale_capacity(random_scenario(rng_for(1), num_agents=1000), 1000)
    path = tmp_path / "head_count.json"
    path.write_bytes(save_scenario(scenario))
    loaded = load_scenario(path.read_bytes())
    assert list(loaded.per_capita_capacities()) == list(scenario.capacities / 1000)
    for subcommand in ("solve", "lsvcg"):
        assert _run(subcommand, "--scenario", str(path), "--out", str(tmp_path / subcommand)) == 0
    path.write_bytes(save_scenario(replace(scenario, z_max=1e-3)))
    assert _run("solve", "--scenario", str(path), "--out", str(tmp_path / "small")) == 2
    assert "z_max too small" in capsys.readouterr().err


def test_reruns_are_byte_identical(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert _run("lsvcg", "--scenario", str(scenario_file), "--out", str(out), "--seed", "3") == 0
    assert _read_all(out1) == _read_all(out2)


def test_lsvcg_budget_line_strong_balance(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert _run("lsvcg", "--scenario", str(scenario_file), "--out", str(out), "--beta", "1.0") == 0
    budget_line = (out / "budget.csv").read_text().strip().splitlines()[-1]
    total = float(budget_line.split(",")[0])
    assert abs(total) <= 1e-8


def test_vcg_outcome_table(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert _run("vcg", "--scenario", str(scenario_file), "--out", str(out)) == 0
    lines = (out / "outcome.csv").read_text().strip().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.split(",")[:5] == ["id", "true_theta", "true_zeta", "report_theta", "report_zeta"]
    assert len([l for l in lines if not l.startswith("#")]) == 9  # header + 8 agents


def test_incentive_sweep_all_rows_hold(incentive_file, tmp_path):
    out = tmp_path / "run"
    assert _run(
        "incentive-sweep", "--scenario", str(incentive_file), "--out", str(out), "--i-list", "10,20,40"
    ) == 0
    rows = [l for l in (out / "sweep.csv").read_text().strip().splitlines() if not l.startswith("#")]
    header = rows[0].split(",")
    holds_col = header.index("holds")
    assert all(r.split(",")[holds_col] == "true" for r in rows[1:])
    meta = _strict_json(out / "meta.json")
    assert meta["slope"] == pytest.approx(-1.0, abs=0.1)


def test_incentive_sweep_undefined_slope_is_null(tmp_path):
    # the two-type document has no profitable misreport, so no gain is
    # positive; a repeated head count is one point, not a line
    for document, i_list in (("two_type.json", "10,20,40"), ("incentive.json", "10,10")):
        out = tmp_path / document
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fit is attempted
            argv = ["--scenario", str(SCENARIOS / document), "--out", str(out), "--i-list", i_list]
            code = _run("incentive-sweep", *argv)
        assert code == 0
        meta = _strict_json(out / "meta.json")
        assert meta["slope"] is None
        rows = [l for l in (out / "sweep.csv").read_text().strip().splitlines() if not l.startswith("#")]
        slope_col = rows[0].split(",").index("slope")
        assert {r.split(",")[slope_col] for r in rows[1:]} == {"nan"}


def test_sensitivity_outputs(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert _run("sensitivity", "--scenario", str(scenario_file), "--out", str(out)) == 0
    assert (out / "sensitivity.csv").exists() and (out / "bound.csv").exists()
    bound = (out / "bound.csv").read_text().strip().splitlines()[-1]
    assert bound.endswith("true")


def test_superimpose_trace_and_outcome(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert _run("superimpose", "--scenario", str(scenario_file), "--out", str(out)) == 0
    trace = [l for l in (out / "trace.csv").read_text().strip().splitlines() if not l.startswith("#")]
    assert trace[0] == "round,p_0,demand_0"
    assert (out / "outcome.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["converged"] is True


def test_superimpose_unconverged_exits_3(scenario_file, tmp_path, monkeypatch, capsys):
    import lsvcg.cli as cli
    from lsvcg.superimpose import AlgorithmConfig

    real = cli.run_algorithm
    monkeypatch.setattr(
        cli, "run_algorithm", lambda profile, scenario: real(profile, scenario, AlgorithmConfig(gamma0=0.0, max_rounds=5))
    )
    out = tmp_path / "run"
    assert _run("superimpose", "--scenario", str(scenario_file), "--out", str(out)) == 3
    assert "did not converge in 5 rounds" in capsys.readouterr().err
    trace = [l for l in (out / "trace.csv").read_text().strip().splitlines() if not l.startswith("#")]
    assert len(trace) == 1 + 5
    meta = json.loads((out / "meta.json").read_text())
    assert meta["converged"] is False and meta["rounds"] == 5
    assert not (out / "outcome.csv").exists()


def test_flags_belong_to_their_subcommands(scenario_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run("solve", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"), "--workers", "2")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run("lsvcg", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"), "--mode", "myopic")
    assert exc.value.code == 2


def test_dynamic_subcommand(dynamic_file, tmp_path):
    out = tmp_path / "run"
    assert _run("dynamic", "--scenario", str(dynamic_file), "--out", str(out), "--mode", "myopic") == 0
    rows = [l for l in (out / "slots.csv").read_text().strip().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("t,rho_0,rho_1,z_0,z_1,p_0")
    meta = json.loads((out / "meta.json").read_text())
    assert meta["horizon"] == 20


@pytest.mark.parametrize("mode", ["myopic", "fixed-point"])
def test_dynamic_meta_records_the_mode(mode, tmp_path):
    path = tmp_path / "dyn.json"
    path.write_bytes(save_dynamic_scenario(dynamic_benchmark(kernel="switching", discount=0.5)))
    out = tmp_path / "run"
    assert _run("dynamic", "--scenario", str(path), "--out", str(out), "--mode", mode) == 0
    assert json.loads((out / "meta.json").read_text())["mode"] == mode


def test_dynamic_fixed_point_on_a_slot_that_cannot_clear_exits_3(tmp_path, capsys):
    # bin edges under which type 0's best bin switches at the clearing price
    # of slot 0, so its demand jumps over the capacity
    dyn = dynamic_benchmark(kernel="allocation", discount=0.5, num_bins=4)
    kernel = TransitionKernel(probabilities=dyn.kernel.probabilities, bin_edges=[0.0, 0.5, 1.0, 1.5, 40.0])
    dyn = DynamicScenario(static=dyn.static, kernel=kernel, discount=0.5, horizon=dyn.horizon, rho0=dyn.rho0)
    path = tmp_path / "dyn.json"
    path.write_bytes(save_dynamic_scenario(dyn))
    out = tmp_path / "run"
    assert _run("dynamic", "--scenario", str(path), "--out", str(out), "--mode", "fixed-point") == 3
    assert "slot 0 market" in capsys.readouterr().err


def test_dynamic_allocation_kernel(tmp_path):
    dyn = dynamic_benchmark(kernel="allocation", discount=0.5, num_bins=4)
    path = tmp_path / "dyn.json"
    path.write_bytes(save_dynamic_scenario(dyn))
    out = tmp_path / "run"
    assert _run("dynamic", "--scenario", str(path), "--out", str(out)) == 0
    rows = [l for l in (out / "slots.csv").read_text().strip().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == dyn.horizon


@pytest.mark.parametrize("mode", ["myopic", "fixed-point"])
def test_dynamic_runs_with_a_type_too_weak_to_buy_anything(mode, tmp_path):
    # at the prices the binned gap tries, the weak type's unclamped response
    # rounds to exactly -1, where math.log1p raises; no bin allocates that
    dyn = dynamic_benchmark(kernel="allocation", discount=0.5)
    static = replace(dyn.static, utility=UtilityParams([[1.0], [1e-17]]))
    dyn = DynamicScenario(static=static, kernel=dyn.kernel, discount=0.5, horizon=dyn.horizon, rho0=dyn.rho0)
    path = tmp_path / "dyn.json"
    path.write_bytes(save_dynamic_scenario(dyn))
    assert _run("dynamic", "--scenario", str(path), "--out", str(tmp_path / "run"), "--mode", mode) == 0


def test_dynamic_identity_kernel_constant_shares(tmp_path):
    path = tmp_path / "dyn.json"
    path.write_bytes(save_dynamic_scenario(dynamic_benchmark(kernel="identity", discount=0.5)))
    out = tmp_path / "run"
    assert _run("dynamic", "--scenario", str(path), "--out", str(out)) == 0
    rows = [l for l in (out / "slots.csv").read_text().strip().splitlines() if not l.startswith("#")][1:]
    rho_columns = {tuple(r.split(",")[1:3]) for r in rows}
    assert len(rho_columns) == 1


def test_seed_recorded_in_headers(scenario_file, tmp_path):
    out = tmp_path / "run"
    assert _run("solve", "--scenario", str(scenario_file), "--out", str(out), "--seed", "42") == 0
    for path in out.iterdir():
        if path.suffix == ".csv":
            assert "# seed: 42" in path.read_text()


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan, 1e16, 0.1]
_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), st.sampled_from(_EDGE_FLOATS))


@given(st.lists(st.tuples(_FLOATS, st.booleans()), max_size=12))
def test_float_block_text_is_format_of_each_value(cells):
    values = [np.float64(x) if as_numpy else x for x, as_numpy in cells]
    expected = ",".join(_format(x) for x in values)
    assert _floats(values) == expected
    assert _floats(np.array(values, dtype=float)) == expected


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _bits(cells: list[str]) -> bytes:
    return np.array([float(c) for c in cells]).tobytes()


def test_numeric_tables_parse_back_bit_for_bit(tmp_path):
    scenario = random_scenario(
        rng_for(5, 4), num_theta=3, num_zeta=2, num_resources=8, num_agents=None, quadratic=True
    )
    path = tmp_path / "wide.json"
    path.write_bytes(save_scenario(scenario))
    scenario = load_scenario(path.read_bytes())
    solution = solve_weighted(scenario, scenario.population.shares, scenario.per_capita_capacities())
    dp_drho = price_sensitivity(scenario, scenario.population, solution).dp_drho
    for sub in ("solve", "sensitivity"):
        assert _run(sub, "--scenario", str(path), "--out", str(tmp_path / "run")) == 0

    header, rows = _table(tmp_path / "run" / "solution.csv")
    resources = range(8)
    assert header == ["theta", "zeta", "share", *(f"z_{n}" for n in resources),
                      *(f"p_{n}" for n in resources), "kkt_residual"]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(theta, zeta) for theta in range(3) for zeta in range(2)]
    assert _bits([r[2] for r in rows]) == solution.weights.tobytes()
    assert _bits([c for r in rows for c in r[3:11]]) == solution.z.tobytes()
    for r in rows:
        assert _bits(r[11:19]) == solution.p.tobytes()
        assert _bits(r[19:]) == np.float64(solution.kkt_residual).tobytes()

    header, rows = _table(tmp_path / "run" / "sensitivity.csv")
    assert header == ["resource", *(f"dp_drho_{theta}_{zeta}" for theta in range(3) for zeta in range(2))]
    assert [int(r[0]) for r in rows] == list(resources)
    assert _bits([c for r in rows for c in r[1:]]) == dp_drho.tobytes()


@pytest.mark.parametrize(
    "counts",
    [[[3, 0, 1, 0], [0, 0, 0, 0], [0, 2, 5, 0], [1, 0, 0, 7]], [[0, 0, 0, 0], [0, 0, 1, 0], [0] * 4, [0] * 4]],
    ids=["several-cells", "one-agent"],
)
def test_outcome_numbers_agents_cell_by_cell(counts, tmp_path):
    scenario = random_scenario(rng_for(3, 9), num_theta=2, num_zeta=2, num_resources=3, num_agents=None)
    profile = Profile(scenario.type_space, np.array(counts))
    outcome = large_scale_vcg(profile, scenario, report_distribution=scenario.population)
    path = tmp_path / "outcome.csv"
    _write_outcome(path, outcome, RunManifest("lsvcg", "doc.json", 0))
    lines = [line for line in path.read_text().split("\n") if not line.startswith("#")]
    assert lines[-1] == ""  # the file ends in one newline, with no blank line before it
    header, body = lines[0], lines[1:-1]
    cell_rows = outcome_cell_rows(outcome)
    assert header.split(",") == ["id", *cell_rows[0]]
    agent_cells = [c for c, count in enumerate(profile.cells.counts.tolist()) for _ in range(count)]
    assert len(body) == profile.num_agents
    for i, (line, c) in enumerate(zip(body, agent_cells)):
        assert line == ",".join([str(i), *(_format(value) for value in cell_rows[c].values())])
