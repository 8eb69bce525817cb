import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraceig.serialize
from fraceig import (
    DirichletProblem,
    FracParams,
    GridFunction,
    PairFunction,
    build_domain,
    first_eigenpair,
    p2_oracle,
    s_sweep,
    solve_dirichlet,
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
    values_text,
)

from conftest import box_spec, interval_spec, random_function

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


def _encoder_text(payload: dict) -> str:
    # what the writers wrote before values_text: json's C encoder over the whole payload
    return json.dumps(payload) + "\n"


def _pair_payload(pair, params) -> dict:
    host = pair.eigenfunction.host
    return {
        "lambda": pair.lam,
        "s": params.s,
        "p": params.p,
        "t": host.t,
        "h": host.h,
        "iterations": pair.iterations,
        "residual": pair.residual,
        "converged": pair.converged,
        "stop_reason": pair.stop_reason,
        "group_order": pair.group_order,
        "u": pair.eigenfunction.values.tolist(),
    }


def _grid_payload(u: GridFunction) -> dict:
    host = u.host
    return {"dim": host.dim, "h": host.h, "counts": list(host.counts), "t": host.t, "values": u.values.tolist()}


@pytest.fixture(scope="module")
def box24():
    return build_domain(box_spec(1 / 24), t=4.0)


class TestWriterBytes:
    """Every eigenfunction and grid-function file is byte for byte the text
    json.dumps gives for its whole payload, values last."""

    @pytest.mark.parametrize("grid, group_order", [("box24", 8), ("interval16", 2)])
    def test_eig(self, tmp_path, request, grid, group_order):
        params = FracParams(s=0.5, p=1.5)
        pair = first_eigenpair(request.getfixturevalue(grid), params)
        assert pair.group_order == group_order  # box24 solves folded
        path = tmp_path / "pair.json"
        save_eigenpair(pair, params, path)
        assert path.read_text() == _encoder_text(_pair_payload(pair, params))
        path = tmp_path / "u.json"
        u = pair.eigenfunction
        save_grid_function(u, path)
        assert load_grid_function(path, u.host).values.tobytes() == u.values.tobytes()

    def test_oracle(self, tmp_path, box8):
        pair = p2_oracle(box8, P2)
        path = tmp_path / "oracle.json"
        save_eigenpair(pair, P2, path)
        assert path.read_text() == _encoder_text(_pair_payload(pair, P2))

    def test_solve(self, tmp_path, interval16):
        w = solve_dirichlet(DirichletProblem(interval16, FracParams(s=0.5, p=1.5), np.ones(interval16.n_omega)))
        path = tmp_path / "solution.json"
        save_grid_function(w, path)
        assert path.read_text() == _encoder_text(_grid_payload(w))

    def test_signed_zeros(self, tmp_path, box8):
        omega = np.random.default_rng(63).standard_normal(box8.n_omega)
        omega[:3] = [0.0, -0.0, 5e-324]
        u = -GridFunction.from_omega(box8, omega)  # -0.0 at every exterior cell
        assert np.signbit(u.values[~box8.omega_mask]).all()
        assert values_text(u) == json.dumps(u.values.tolist())
        path = tmp_path / "u.json"
        save_grid_function(u, path)
        assert path.read_text() == _encoder_text(_grid_payload(u))
        assert load_grid_function(path, box8).values.tobytes() == u.values.tobytes()

    def test_only_omega_cells_take_a_repr(self, box24, monkeypatch):
        calls = []
        monkeypatch.setattr(fraceig.serialize, "repr", lambda x: calls.append(x) or repr(x), raising=False)
        text = values_text(GridFunction.indicator(box24))
        assert calls == [1.0] * box24.n_omega
        assert text == json.dumps(GridFunction.indicator(box24).values.tolist())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("format_fuzz")


def _load_or_value_error(path, host):
    """load_grid_function's grid function, or None where it raised ValueError."""
    try:
        return load_grid_function(path, host)
    except ValueError:
        return None


class TestGridFunctionFuzz:
    """Whatever a grid-function file holds, load_grid_function returns the
    grid function it encodes or raises ValueError."""

    @settings(max_examples=150, deadline=None)
    @given(
        omega=st.lists(st.floats(allow_subnormal=True), min_size=8, max_size=8),
        exterior=st.sampled_from([0.0, -0.0, 1e-300]),
        cut=st.integers(0, 16),
        extra=st.binary(max_size=16),
    )
    @example(omega=[1.0] * 8, exterior=0.0, cut=0, extra=b"")
    @example(omega=[1.0] * 8, exterior=-0.0, cut=3, extra=b"")  # not a whole float64
    @example(omega=[float("nan")] + [1.0] * 7, exterior=0.0, cut=0, extra=b"")
    @example(omega=[1.0] * 7 + [float("inf")], exterior=0.0, cut=0, extra=b"")
    def test_binary_payloads(self, fuzz_dir, interval8, omega, exterior, cut, extra):
        values = np.zeros(interval8.n_cells)
        values[interval8.omega_indices] = omega
        values[interval8.other_indices[0]] = exterior
        payload = values.tobytes()
        payload = payload[: len(payload) - cut] + extra
        head = {"dim": 1, "h": interval8.h, "counts": list(interval8.counts), "t": interval8.t}
        path = fuzz_dir / "u.bin"
        path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        whole = payload == values.tobytes()
        valid = whole and np.isfinite(omega).all() and exterior == 0.0
        got = _load_or_value_error(path, interval8)
        assert (got is not None) == valid
        if valid:
            assert got.values.tobytes() == payload

    @settings(max_examples=150, deadline=None)
    @given(
        binary=st.booleans(),
        field=st.sampled_from(["dim", "h", "counts", "t"]),
        value=st.one_of(
            st.integers(-3, 40), st.floats(), st.lists(st.floats(0, 64), max_size=2), st.none(),
            st.booleans(), st.text(max_size=3),
        ),
    )
    @example(binary=False, field="counts", value=[32.0])  # the same header
    @example(binary=True, field="h", value=float("nan"))
    def test_header_mismatch(self, fuzz_dir, interval8, binary, field, value):
        path = fuzz_dir / "u"
        u = GridFunction.indicator(interval8)
        save_grid_function(u, path, binary=binary)
        head, _, rest = path.read_bytes().partition(b"\n")
        data = json.loads(head)
        original = data[field]
        data[field] = value
        path.write_bytes(json.dumps(data).encode() + b"\n" + rest)
        got = _load_or_value_error(path, interval8)
        if got is not None:
            assert got.values.tobytes() == u.values.tobytes()
            assert value == original or (field == "h" and abs(value - original) <= 1e-12 * original)

    @settings(max_examples=150, deadline=None)
    @given(lines=st.booleans(), suffix=st.text(st.characters(max_codepoint=127), max_size=8))
    @example(lines=False, suffix="[1.0]\n")
    @example(lines=True, suffix="\n \n")
    @example(lines=False, suffix="\x0c")  # whitespace to bytes.strip, not to JSON
    def test_data_after_a_json_object(self, fuzz_dir, interval8, lines, suffix):
        u = GridFunction.from_omega(interval8, np.arange(1.0, 9.0))
        path = fuzz_dir / "u.json"
        save_grid_function(u, path)
        text = path.read_text()
        if lines:  # the multi-line layout of older files
            text = json.dumps(json.loads(text), indent=2) + "\n"
        path.write_text(text + suffix)
        got = _load_or_value_error(path, interval8)
        if suffix.strip(" \t\r\n"):
            assert got is None
        if got is not None:
            assert got.values.tobytes() == u.values.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(raw=st.binary(max_size=64))
    @example(raw=b"[" * 100_000)  # deeper than json's decoder recurses
    @example(raw=b"\xff\n" + bytes(8))
    @example(raw=b"5\n" + bytes(256))
    @example(raw=b"")
    def test_arbitrary_bytes(self, fuzz_dir, interval8, raw):
        path = fuzz_dir / "u"
        path.write_bytes(raw)
        assert _load_or_value_error(path, interval8) is None
