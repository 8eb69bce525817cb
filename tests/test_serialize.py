import json
from pathlib import Path

import numpy as np
import pytest

from fraceig import (
    DirichletProblem,
    FracParams,
    GridFunction,
    PairFunction,
    build_domain,
    first_eigenpair,
    s_sweep,
)
from fraceig.serialize import (
    load_domain_spec,
    load_grid_function,
    load_problem,
    save_domain_spec,
    save_eigenpair,
    save_grid_function,
    save_problem,
    save_sweep_report,
    save_trace_csv,
)

from conftest import interval_spec, random_function

P2 = FracParams(s=0.5, p=2.0)


def test_domain_spec_roundtrip(tmp_path):
    spec = interval_spec(1 / 8)
    path = tmp_path / "dom.json"
    save_domain_spec(spec, path)
    loaded = load_domain_spec(path)
    assert loaded == spec
    dom = build_domain(loaded, t=4.0)
    assert dom.n_omega == 8


def test_grid_function_json_roundtrip(tmp_path, interval16):
    rng = np.random.default_rng(60)
    u = random_function(interval16, rng)
    path = tmp_path / "u.json"
    save_grid_function(u, path)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1  # one line
    back = load_grid_function(path, interval16)
    assert back.values.tobytes() == u.values.tobytes()


def test_grid_function_binary_roundtrip(tmp_path, interval16):
    rng = np.random.default_rng(61)
    u = random_function(interval16, rng)
    path = tmp_path / "u.bin"
    save_grid_function(u, path, binary=True)
    back = load_grid_function(path, interval16)
    np.testing.assert_array_equal(back.values, u.values)
    raw = path.read_bytes()
    head = json.loads(raw.split(b"\n", 1)[0])
    assert set(head) == {"dim", "h", "counts", "t"}


def test_grid_function_header_mismatch(tmp_path, interval16, interval8):
    u = GridFunction.indicator(interval16)
    path = tmp_path / "u.json"
    save_grid_function(u, path)
    with pytest.raises(ValueError, match="host"):
        load_grid_function(path, interval8)


def test_grid_function_nan_h_rejected(tmp_path, interval16):
    u = GridFunction.indicator(interval16)
    path = tmp_path / "u.json"
    save_grid_function(u, path)
    data = json.loads(path.read_text())
    data["h"] = float("nan")
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="geometry"):
        load_grid_function(path, interval16)

    path = tmp_path / "u.bin"
    save_grid_function(u, path, binary=True)
    head, values = path.read_bytes().split(b"\n", 1)
    head = json.loads(head)
    head["h"] = float("nan")
    path.write_bytes(json.dumps(head).encode() + b"\n" + values)
    with pytest.raises(ValueError, match="geometry"):
        load_grid_function(path, interval16)


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize(
    "field, value", [("dim", 1.9), ("dim", True), ("dim", "1"), ("counts", [40.5]), ("counts", "40")]
)
def test_grid_function_non_integer_header_refused(tmp_path, interval8, binary, field, value):
    path = tmp_path / "u.bin"
    save_grid_function(GridFunction.indicator(interval8), path, binary=binary)
    if binary:
        head, values = path.read_bytes().split(b"\n", 1)
        head = json.loads(head)
    else:
        head = json.loads(path.read_text())
    head[field] = value
    if binary:
        path.write_bytes(json.dumps(head).encode() + b"\n" + values)
    else:
        path.write_text(json.dumps(head))
    with pytest.raises(ValueError, match=f"field '{field}'"):
        load_grid_function(path, interval8)


def test_grid_function_string_h_refused(tmp_path, interval16):
    path = tmp_path / "u.json"
    save_grid_function(GridFunction.indicator(interval16), path)
    data = json.loads(path.read_text())
    data["h"] = str(data["h"])
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="field 'h'"):
        load_grid_function(path, interval16)


@pytest.mark.parametrize("field", ["dim", "counts", "h", "t", "values"])
def test_grid_function_missing_field_named(tmp_path, interval16, field):
    path = tmp_path / "u.json"
    save_grid_function(GridFunction.indicator(interval16), path)
    data = json.loads(path.read_text())
    del data[field]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"missing required field '{field}'"):
        load_grid_function(path, interval16)


def test_one_line_header_without_values_refused(tmp_path, interval16):
    # a one-line JSON object without values and nothing after it is a JSON
    # text that lacks its values, not the header of empty binary values
    path = tmp_path / "u.json"
    save_grid_function(GridFunction.indicator(interval16), path)
    data = json.loads(path.read_text())
    del data["values"]
    path.write_text(json.dumps(data) + "\n")
    with pytest.raises(ValueError, match="missing required field 'values'"):
        load_grid_function(path, interval16)


def test_one_line_json_with_data_after_it_refused(tmp_path, interval16):
    path = tmp_path / "u.json"
    save_grid_function(GridFunction.indicator(interval16), path)
    path.write_text(path.read_text() + "[1.0]\n")
    with pytest.raises(ValueError, match="data after its JSON object"):
        load_grid_function(path, interval16)


def test_multiline_json_still_loads(tmp_path, interval16):
    # files written before JSON went to one line spread one value per line
    u = random_function(interval16, np.random.default_rng(62))
    path = tmp_path / "u.json"
    save_grid_function(u, path)
    path.write_text(json.dumps(json.loads(path.read_text()), indent=2) + "\n")
    back = load_grid_function(path, interval16)
    assert back.values.tobytes() == u.values.tobytes()


def test_eigenpair_and_trace(tmp_path, interval16):
    pair = first_eigenpair(interval16, P2)
    path = tmp_path / "pair.json"
    save_eigenpair(pair, P2, path)
    data = json.loads(path.read_text())
    assert data["lambda"] == pair.lam
    assert data["s"] == 0.5 and data["p"] == 2.0 and data["t"] == 4.0
    assert data["h"] == interval16.h
    assert len(data["u"]) == interval16.n_cells
    assert data["converged"] is True
    assert data["stop_reason"] == pair.stop_reason

    trace_path = tmp_path / "trace.csv"
    save_trace_csv(pair, trace_path)
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "iter,lambda,residual"
    assert len(lines) == len(pair.trace) + 1


class TestProblemFiles:
    def test_constant_datum(self, tmp_path, interval16):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps({"f": 1.0, "F": "none", "s": 0.5, "p": 2.0, "t": 4.0}))
        prob, params = load_problem(path, interval16)
        assert params == P2
        np.testing.assert_array_equal(prob.f, np.ones(interval16.n_omega))
        assert prob.F is None

    def test_array_datum_roundtrip(self, tmp_path, interval16):
        rng = np.random.default_rng(62)
        f = rng.standard_normal(interval16.n_omega)
        pair_values = rng.standard_normal((interval16.n_cells,) * 2)
        prob = DirichletProblem(interval16, P2, f, F=PairFunction(pair_values, interval16))
        path = tmp_path / "prob.json"
        save_problem(prob, path)
        back, params = load_problem(path, interval16)
        np.testing.assert_array_equal(back.f, prob.f)
        np.testing.assert_array_equal(back.F.values, prob.F.values)

    def test_wrong_length_rejected(self, tmp_path, interval16):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps({"f": [1.0, 2.0], "s": 0.5, "p": 2.0, "t": 4.0}))
        with pytest.raises(ValueError):
            load_problem(path, interval16)


def test_sweep_report_files(tmp_path, interval16):
    report = s_sweep(interval16, 2.0, [0.3, 0.4, 0.5], 0.3)
    paths = save_sweep_report(report, tmp_path / "sweep")
    csv_lines = Path(paths["csv"]).read_text().strip().splitlines()
    assert csv_lines[0] == "s,lambda,weighted_lambda,dist_to_base,iters,residual"
    assert len(csv_lines) == 4
    data = json.loads(Path(paths["json"]).read_text())
    assert data["s_base"] == 0.3
    assert len(data["rows"]) == 3
    assert data["weighted_violation"] == 0.0
    plot_lines = Path(paths["plot"]).read_text().strip().splitlines()
    assert len(plot_lines) == 3
    s0, lam0 = plot_lines[0].split()
    assert float(s0) == 0.3 and float(lam0) == report.rows[0].lam


def test_sweep_report_names_keep_a_dotted_prefix(tmp_path, interval16):
    # with_suffix once wrote prefix run.v2 to run.csv and run.json, which
    # prefix run.v3 then overwrote
    report = s_sweep(interval16, 2.0, [0.3, 0.4], 0.3)
    paths = [save_sweep_report(report, tmp_path / prefix) for prefix in ("run.v2", "run.v3")]
    names = [Path(p).name for d in paths for p in d.values()]
    assert names[:3] == ["run.v2.csv", "run.v2.json", "run.v2_lambda.dat"]
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(names)
    assert save_sweep_report(report, tmp_path / "sweep")["json"] == str(tmp_path / "sweep.json")
