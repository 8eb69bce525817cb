import argparse
import contextlib
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraceig.asymptotics
import fraceig.cli
from fraceig import (
    Eigenpair,
    FracParams,
    GridFunction,
    build_domain,
    first_eigenpair,
    p2_oracle,
    poincare_constant,
)
from fraceig.cli import _parse_s_values, main
from fraceig.serialize import load_domain_spec, save_domain_spec

from conftest import box_spec, interval_spec


@pytest.fixture()
def domain_file(tmp_path):
    path = tmp_path / "interval.json"
    save_domain_spec(interval_spec(1 / 16), path)
    return path


def run(args):
    return main([str(a) for a in args])


class TestEig:
    def test_prints_lambda_and_writes_json(self, domain_file, tmp_path, capsys):
        out = tmp_path / "pair.json"
        code = run(["eig", "--domain", domain_file, "--s", 0.5, "--p", 2, "--out", out])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        dom = build_domain(load_domain_spec(domain_file), t=4.0)
        oracle = p2_oracle(dom, FracParams(s=0.5, p=2.0))
        assert printed == pytest.approx(oracle.lam, rel=1e-6)
        data = json.loads(out.read_text())
        assert data["lambda"] == printed

    def test_json_holds_the_solved_pair_bit_for_bit(self, domain_file, tmp_path):
        out = tmp_path / "pair.json"
        assert run(["eig", "--domain", domain_file, "--s", 0.5, "--p", 1.5, "--out", out]) == 0
        text = out.read_text()
        assert text.count("\n") == 1  # one line
        data = json.loads(text)
        dom = build_domain(load_domain_spec(domain_file), t=4.0)
        pair = first_eigenpair(dom, FracParams(s=0.5, p=1.5))
        assert len(data["u"]) == dom.n_cells
        assert np.float64(data["lambda"]).tobytes() == np.float64(pair.lam).tobytes()
        assert np.array(data["u"]).tobytes() == pair.eigenfunction.values.tobytes()

    def test_box96_solves_on_orbits(self, tmp_path):
        # 9,216 free cells: the unfolded 9,216 x 9,216 table is over the dense
        # budget, the 1,176 x 9,216 representative rows are not
        path = tmp_path / "box96.json"
        save_domain_spec(box_spec(1 / 96), path)
        out = tmp_path / "pair.json"
        assert run(["eig", "--domain", path, "--s", 0.5, "--p", 2, "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["stop_reason"] == "tol" and data["group_order"] == 8
        # h-convergence from below: box64 gives 40.57024653718541, and an
        # independent box128 solve 41.0710335666259
        assert 40.57024653718541 < data["lambda"] < 41.0710335666259

    def test_trace_file(self, domain_file, tmp_path):
        out = tmp_path / "pair.json"
        trace = tmp_path / "trace.csv"
        code = run(["eig", "--domain", domain_file, "--s", 0.5, "--p", 2,
                    "--out", out, "--trace", trace])
        assert code == 0
        assert trace.read_text().startswith("iter,lambda,residual")

    def test_missing_s_exits_2(self, domain_file):
        with pytest.raises(SystemExit) as exc:
            run(["eig", "--domain", domain_file, "--p", 2])
        assert exc.value.code == 2

    def test_s_out_of_range_exits_2(self, domain_file, tmp_path, capsys):
        code = run(["eig", "--domain", domain_file, "--s", 1.2, "--p", 2,
                    "--out", tmp_path / "x.json"])
        assert code == 2
        assert "s must lie in (0,1)" in capsys.readouterr().err

    def test_nonconvergence_exits_3_with_partial(self, domain_file, tmp_path, capsys):
        out = tmp_path / "pair.json"
        code = run(["eig", "--domain", domain_file, "--s", 0.5, "--p", 3,
                    "--tol", 1e-30, "--max-iter", 2, "--out", out])
        assert code == 3
        data = json.loads(out.read_text())
        assert data["converged"] is False
        assert data["stop_reason"] == "budget"
        assert "budget spent" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exits_2(self, domain_file, tmp_path, capsys, tol):
        # --tol inf once stopped after one outer iteration, flagged converged
        # at residual 0.077
        out = tmp_path / "pair.json"
        code = run(["eig", "--domain", domain_file, "--s", 0.5, "--p", 1.5,
                    "--tol", tol, "--out", out])
        assert code == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", [1.01, 1.2])
    def test_omega_filling_the_ball_exits_2(self, tmp_path, capsys, t):
        path = tmp_path / "interval4.json"
        save_domain_spec(interval_spec(1 / 4), path)
        out = tmp_path / "pair.json"
        code = run(["eig", "--domain", path, "--s", 0.5, "--p", 2, "--t", t, "--out", out])
        assert code == 2
        assert "Omega fills the whole ball" in capsys.readouterr().err
        assert not out.exists()

    def test_narrowest_ball_with_an_exterior_cell_solves(self, tmp_path, capsys):
        path = tmp_path / "interval4.json"
        save_domain_spec(interval_spec(1 / 4), path)
        code = run(["eig", "--domain", path, "--s", 0.5, "--p", 2, "--t", 1.6,
                    "--out", tmp_path / "pair.json"])
        assert code == 0
        assert float(capsys.readouterr().out) == 5.308341133995976


class TestSolve:
    def test_zero_problem_gives_zero_file(self, domain_file, tmp_path):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"f": 0.0, "F": "none", "s": 0.5, "p": 2.0, "t": 4.0}))
        out = tmp_path / "sol.json"
        code = run(["solve", "--domain", domain_file, "--problem", prob, "--out", out])
        assert code == 0
        values = json.loads(out.read_text())["values"]
        assert all(v == 0.0 for v in values)

    def test_p2_matches_dense(self, domain_file, tmp_path):
        import scipy.linalg

        from fraceig.core import energy_kernel

        dom = build_domain(load_domain_spec(domain_file), t=4.0)
        rng = np.random.default_rng(70)
        f = rng.standard_normal(dom.n_omega)
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"f": f.tolist(), "F": "none", "s": 0.5, "p": 2.0, "t": 4.0}))
        out = tmp_path / "sol.json"
        assert run(["solve", "--domain", domain_file, "--problem", prob, "--out", out]) == 0
        got = np.asarray(json.loads(out.read_text())["values"])[dom.omega_mask]
        kern = energy_kernel(dom, FracParams(s=0.5, p=2.0))
        dense = scipy.linalg.solve(kern.quad_matrix / kern.hn, f, assume_a="pos")
        assert np.linalg.norm(got - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_malformed_problem_exits_2(self, domain_file, tmp_path, capsys):
        prob = tmp_path / "prob.json"
        prob.write_text("{not json")
        code = run(["solve", "--domain", domain_file, "--problem", prob,
                    "--out", tmp_path / "x.json"])
        assert code == 2

    @pytest.mark.parametrize("text", ["[1, 2]", "[1]"])
    def test_problem_not_an_object_exits_2(self, domain_file, tmp_path, capsys, text):
        prob = tmp_path / "prob.json"
        prob.write_text(text)
        code = run(["solve", "--domain", domain_file, "--problem", prob,
                    "--out", tmp_path / "x.json"])
        assert code == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [{"s": None}, {"t": None}, {"s": "0.5"}])
    def test_problem_field_of_wrong_type_exits_2(self, domain_file, tmp_path, capsys, field):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"f": 1.0, "s": 0.5, "p": 2.0, **field}))
        code = run(["solve", "--domain", domain_file, "--problem", prob,
                    "--out", tmp_path / "x.json"])
        assert code == 2
        assert f"field {next(iter(field))!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_t, file_t", [(4.0, 3.0), (3.0, 4.0)])
    def test_problem_t_mismatch_exits_2(self, domain_file, tmp_path, capsys, grid_t, file_t):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"f": 1.0, "s": 0.5, "p": 2.0, "t": file_t}))
        code = run(["solve", "--domain", domain_file, "--t", grid_t, "--problem", prob,
                    "--out", tmp_path / "x.json"])
        assert code == 2
        assert "does not match the domain's t" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("field", ["f", "s", "p"])
    def test_missing_problem_field_exits_2(self, domain_file, tmp_path, capsys, field):
        prob = tmp_path / "prob.json"
        good = {"f": 1.0, "s": 0.5, "p": 2.0}
        del good[field]
        prob.write_text(json.dumps(good))
        code = run(["solve", "--domain", domain_file, "--problem", prob,
                    "--out", tmp_path / "x.json"])
        assert code == 2
        assert f"missing required field {field!r}" in capsys.readouterr().err

    def test_pair_datum_beyond_dense_budget_exits_2(self, tmp_path, capsys):
        # the 2D box at h=1/32 has 25,276 ball cells, over the 8,192 that one
        # dense pair array allows; the guard fires before the list converts
        path = tmp_path / "box.json"
        save_domain_spec(box_spec(1 / 32), path)
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"f": 1.0, "F": [[0.0]], "s": 0.5, "p": 2.0, "t": 4.0}))
        code = run(["solve", "--domain", path, "--problem", prob,
                    "--out", tmp_path / "x.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "the problem file's pair datum F" in err and "dense pair" in err


class TestSweep:
    def test_three_point_csv(self, domain_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run(["sweep", "--domain", domain_file, "--p", 2,
                    "--s-list", "0.3,0.4,0.5", "--s-base", 0.3, "--out", out])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0] == "s,lambda,weighted_lambda,dist_to_base,iters,residual"
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert all(r["stop_reason"] in ("tol", "float floor") for r in rows)

    def test_s_range_seven_rows(self, domain_file, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--domain", domain_file, "--p", 2,
                    "--s-range", "0.3:0.6:0.05", "--s-base", 0.45, "--out", out])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 8  # header + 7 rows

    def test_injected_corruption_exits_4(self, domain_file, tmp_path, capsys, monkeypatch):
        import fraceig.cli

        real_sweep = fraceig.cli.s_sweep

        def corrupted_sweep(dom, p, *args):
            report = real_sweep(dom, p, *args)
            row = report.rows[2]
            row.lam = 0.001
            row.weighted_lam = (2.5 * dom.diameter_R) ** (row.s * p) * row.lam
            return report

        monkeypatch.setattr(fraceig.cli, "s_sweep", corrupted_sweep)
        out = tmp_path / "sweep"
        code = run(["sweep", "--domain", domain_file, "--p", 2,
                    "--s-list", "0.3,0.4,0.5", "--s-base", 0.3, "--out", out])
        assert code == 4
        assert "violated" in capsys.readouterr().err

    @pytest.mark.parametrize("s_range", ["0.1:inf:0.1", "-inf:0.5:0.1"])
    def test_non_finite_s_range_exits_2(self, domain_file, tmp_path, capsys, s_range):
        code = run(["sweep", "--domain", domain_file, "--p", 2, f"--s-range={s_range}",
                    "--s-base", 0.1, "--out", tmp_path / "s"])
        assert code == 2
        assert "bad s range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, base, message",
        [
            ("--s-list=0.5,0.5", 0.5, "s value 0.5 is repeated"),
            ("--s-list=0.5,0.50,0.3", 0.5, "s value 0.5 is repeated"),
            # 11 steps of 1e-14 round to 12 digits, all to 0.1
            ("--s-range=0.1:0.1000000000001:1e-14", 0.1, "s value 0.1 is repeated"),
            ("--s-range=0.1:0.9", 0.1, "bad s range '0.1:0.9': needs start:stop:step"),
            ("--s-range=0.1:0.5:0.1:0.1", 0.1, "needs start:stop:step"),
        ],
    )
    def test_bad_s_values_exit_2(self, domain_file, tmp_path, capsys, source, base, message):
        code = run(["sweep", "--domain", domain_file, "--p", 2, source,
                    "--s-base", base, "--out", tmp_path / "s"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_huge_s_range_refused_before_it_is_built(self):
        # 0.1:0.9:8e-7 holds 1,000,001 values, one eigen solve each
        with pytest.raises(ValueError, match="1000001 values"):
            _parse_s_values(argparse.Namespace(s_list=None, s_range="0.1:0.9:8e-7"))
        assert len(_parse_s_values(argparse.Namespace(s_list=None, s_range="0.1:0.9:8.0008e-5"))) == 10000

    def test_huge_s_range_exits_2(self, domain_file, tmp_path, capsys):
        code = run(["sweep", "--domain", domain_file, "--p", 2, "--s-range=0.1:0.9:1e-12",
                    "--s-base", 0.1, "--out", tmp_path / "s"])
        assert code == 2
        assert "800000000001 values" in capsys.readouterr().err

    def test_needs_exactly_one_s_source(self, domain_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--domain", domain_file, "--p", 2, "--s-base", 0.3])
        assert exc.value.code == 2
        assert "one of the arguments --s-list --s-range is required" in capsys.readouterr().err

    def test_both_s_sources_exit_2(self, domain_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--domain", domain_file, "--p", 2, "--s-list", "0.3,0.4",
                 "--s-range", "0.3:0.4:0.1", "--s-base", 0.3, "--out", tmp_path / "s"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_empty_s_list_exits_2(self, domain_file, tmp_path, capsys):
        # an empty --s-list once fell through to the --s-range parse and raised
        code = run(["sweep", "--domain", domain_file, "--p", 2, "--s-list=",
                    "--s-base", 0.3, "--out", tmp_path / "s"])
        assert code == 2
        assert "no s values given" in capsys.readouterr().err

    def test_base_not_in_list_exits_2(self, domain_file, tmp_path):
        code = run(["sweep", "--domain", domain_file, "--p", 2,
                    "--s-list", "0.3,0.4", "--s-base", 0.7, "--out", tmp_path / "s"])
        assert code == 2

    def test_nan_base_exits_2(self, domain_file, tmp_path, capsys):
        # abs(base - nan) > 1e-9 is False: a NaN base once ran with the first s
        code = run(["sweep", "--domain", domain_file, "--p", 2,
                    "--s-list", "0.4,0.5", "--s-base", "nan", "--out", tmp_path / "s"])
        assert code == 2
        assert "not among the sweep values" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_nonconverged_rows_exit_3(self, domain_file, tmp_path):
        code = run(["sweep", "--domain", domain_file, "--p", 3,
                    "--s-list", "0.3,0.5", "--s-base", 0.3,
                    "--tol", 1e-30, "--max-iter", 1, "--out", tmp_path / "sw"])
        assert code == 3
        assert (tmp_path / "sw.csv").exists()  # partial report still written


_S_FIELD = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "0", "1", "0.5", "0.50", "1e-12", "x", "0.5.5"]),
    st.text(max_size=4),
)


@pytest.fixture(scope="module")
def interval8_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep_fuzz") / "interval8.json"
    save_domain_spec(interval_spec(1 / 8), path)
    return path


class TestSweepFuzz:
    """Arbitrary --s-list, --s-range and --s-base text exits 0 or 2, never a traceback.

    s_sweep runs its own checks on what the CLI parsed, but its eigensolves,
    distances and file writes are stubbed, so no solve runs.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        flag=st.sampled_from(["--s-list", "--s-range"]),
        fields=st.lists(_S_FIELD, max_size=5),
        base=_S_FIELD,
    )
    @example(flag="--s-list", fields=["0.5", "0.5"], base="0.5")
    @example(flag="--s-range", fields=["0.1", "0.9"], base="0.1")
    @example(flag="--s-range", fields=["0.1", "0.9", "1e-12"], base="0.1")
    @example(flag="--s-range", fields=["0.1", "0.5", "0.1"], base="0.3")
    def test_s_parsing_exits_0_or_2(self, interval8_file, flag, fields, base):
        solved = []

        def fake_solve(dom, params, cfg, start=None):
            # a converged pair with no solve behind it
            solved.append(params.s)
            u = GridFunction.from_omega(dom, np.ones(dom.n_omega))
            return Eigenpair(lam=1.0, eigenfunction=u, iterations=1, residual=0.0)

        text = (":" if flag == "--s-range" else ",").join(fields)
        argv = ["sweep", "--domain", str(interval8_file), "--p", "2", f"{flag}={text}",
                f"--s-base={base}", "--out", "unused"]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            mp.setattr(fraceig.asymptotics, "first_eigenpair", fake_solve)
            mp.setattr(fraceig.asymptotics, "seminorm_distance", lambda u, v, params: 0.0)
            mp.setattr(fraceig.cli, "save_sweep_report", lambda report, out: dict.fromkeys(
                ("csv", "json", "plot"), out))
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses --s-base text that is no float
                code = exc.code
        assert code in (0, 2), err.getvalue()
        if code == 0:
            assert solved and len(set(solved)) == len(solved)
            assert all(0.0 < s < 1.0 for s in solved)
        else:
            assert not solved and err.getvalue().strip()


class TestPoincare:
    def test_prints_constant(self, domain_file, capsys):
        code = run(["poincare", "--domain", domain_file, "--s", 0.5, "--p", 2])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        dom = build_domain(load_domain_spec(domain_file), t=4.0)
        assert printed == poincare_constant(dom, FracParams(s=0.5, p=2.0))

    @pytest.mark.parametrize(
        "extra, domain_text, field",
        [
            (["--p", "inf"], None, "p"),
            (["--p", 2, "--t", "inf"], None, "t"),
            (["--p", 2], '{"dim": 1, "h": 1e999, "shape": {"type": "interval", "a": 0, "b": 1}}', "h"),
        ],
    )
    def test_non_finite_input_exits_2(self, domain_file, tmp_path, capsys, extra, domain_text, field):
        if domain_text is not None:
            domain_file = tmp_path / "domain.json"
            domain_file.write_text(domain_text)
        code = run(["poincare", "--domain", domain_file, "--s", 0.5] + extra)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must" in captured.err and "finite" in captured.err

    @pytest.mark.parametrize("text", ["[1, 2]", "[1]"])
    def test_domain_not_an_object_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "domain.json"
        path.write_text(text)
        code = run(["poincare", "--domain", path, "--s", 0.5, "--p", 2])
        assert code == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, spec",
        [
            ("h", {"h": None}),
            ("h", {"h": [0.1]}),
            ("shape", {"shape": 5}),
            ("b", {"shape": {"type": "interval", "a": 0.0, "b": None}}),
            ("h", {"h": "0.125"}),
            ("a", {"shape": {"type": "interval", "a": "0", "b": "1"}}),
        ],
    )
    def test_domain_field_of_wrong_type_exits_2(self, tmp_path, capsys, field, spec):
        path = tmp_path / "domain.json"
        good = {"dim": 1, "h": 1 / 16, "shape": {"type": "interval", "a": 0.0, "b": 1.0}}
        path.write_text(json.dumps({**good, **spec}))
        code = run(["poincare", "--domain", path, "--s", 0.5, "--p", 2])
        assert code == 2
        assert f"field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, spec",
        [
            ("a", {"dim": 1, "shape": {"type": "interval", "a": -np.inf, "b": 1.0}}),
            ("b", {"dim": 1, "shape": {"type": "interval", "a": 0.0, "b": np.nan}}),
            ("max", {"dim": 2, "shape": {"type": "box", "min": [0.0, 0.0], "max": [1.0, np.inf]}}),
            ("center", {"dim": 2, "shape": {"type": "ball", "center": [np.nan, 0.0], "radius": 1.0}}),
            ("radius", {"dim": 2, "shape": {"type": "ball", "center": [0.0, 0.0], "radius": np.inf}}),
            ("origin", {"dim": 1, "shape": {"type": "mask", "origin": [-np.inf],
                                            "counts": [4], "cells": [1, 1, 1, 1]}}),
        ],
    )
    def test_non_finite_shape_bound_exits_2(self, tmp_path, capsys, field, spec):
        # json writes the bounds as Infinity/NaN, which json also reads back
        path = tmp_path / "domain.json"
        path.write_text(json.dumps({"h": 1 / 16, **spec}))
        code = run(["poincare", "--domain", path, "--s", 0.5, "--p", 2])
        assert code == 2
        err = capsys.readouterr().err
        assert f"shape field {field!r} must be finite" in err and "coarse" not in err

    @pytest.mark.parametrize(
        "spec, t, message",
        [
            ({"dim": 2, "shape": {"type": "box", "min": [0, 0], "max": [2.0**31, 2.0**31]}}, 4,
             "bounding lattice would be a dense"),
            ({"dim": 2, "shape": {"type": "ball", "center": [0, 0], "radius": 2.0**40}}, 4,
             "bounding lattice would be a dense"),
            ({"dim": 1, "shape": {"type": "interval", "a": 0, "b": 3e8}}, 4,
             "bounding lattice would be a dense"),
            ({"dim": 2, "shape": {"type": "ball", "center": [0, 0], "radius": 1e308}}, 4,
             "bounding lattice has a non-finite extent"),
            # the shape's lattice fits; the truncation ball's does not
            ({"dim": 1, "shape": {"type": "interval", "a": 0, "b": 1}}, 1e9,
             "bounding lattice would be a dense"),
            # radius**2 once overflowed in the ball test, with a traceback
            ({"dim": 2, "h": 1e158, "shape": {"type": "ball", "center": [0, 0], "radius": 1e160}}, 4,
             "overflow float64"),
            # every center once rounded to one x, and the grid solved
            ({"dim": 2, "h": 0.1, "shape": {"type": "ball", "center": [1e300, 0], "radius": 1}}, 4,
             "float64 cannot resolve"),
        ],
    )
    def test_oversized_grid_exits_2(self, tmp_path, capsys, spec, t, message):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps({"h": 0.125, **spec}))
        code = run(["poincare", "--domain", path, "--s", 0.5, "--p", 2, "--t", t])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [1.9, True])
    def test_non_integer_dim_exits_2(self, tmp_path, capsys, dim):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(
            {"dim": dim, "h": 1 / 16, "shape": {"type": "interval", "a": 0.0, "b": 1.0}}
        ))
        code = run(["poincare", "--domain", path, "--s", 0.5, "--p", 2])
        assert code == 2
        assert "field 'dim'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["dim", "h", "shape"])
    def test_missing_domain_field_exits_2(self, tmp_path, capsys, field):
        path = tmp_path / "domain.json"
        good = {"dim": 1, "h": 1 / 16, "shape": {"type": "interval", "a": 0.0, "b": 1.0}}
        del good[field]
        path.write_text(json.dumps(good))
        code = run(["poincare", "--domain", path, "--s", 0.5, "--p", 2])
        assert code == 2
        assert f"missing required field {field!r}" in capsys.readouterr().err


class TestSolverFlags:
    @pytest.mark.parametrize(
        "args, flag",
        [
            (["poincare", "--s", 0.5, "--p", 2], "--tol"),
            (["oracle", "--s", 0.5, "--p", 2], "--max-iter-inner"),
            (["eig", "--s", 0.5, "--p", 2], "--seed"),
            (["sweep", "--p", 2, "--s-list", 0.5, "--s-base", 0.5], "--seed"),
            (["solve", "--problem", "problem.json"], "--max-iter"),
            (["eig", "--s", 0.5, "--p", 2], "--inner-tol"),
            (["sweep", "--p", 2, "--s-list", 0.5, "--s-base", 0.5], "--max-iter-inner"),
            (["verify", "--s", 0.5, "--p", 2, "--suite", "equivalence"], "--threads"),
            (["sweep", "--p", 2, "--s-list", 0.5, "--s-base", 0.5], "--threads"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, domain_file, capsys, args, flag):
        with pytest.raises(SystemExit) as exc:
            run(args + ["--domain", domain_file, flag, 1])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_read_flags_reach_the_config(self, domain_file, tmp_path):
        code = run(["verify", "--domain", domain_file, "--s", 0.5, "--p", 2,
                    "--suite", "poincare", "--seed", 7, "--tol", 1e-6,
                    "--out", tmp_path / "v.json"])
        assert code == 0
        assert json.loads((tmp_path / "v.json").read_text())["seed"] == 7

    @pytest.mark.parametrize(
        "args", [["solve", "--problem"], ["verify", "--s", 0.5, "--p", 1.5, "--suite", "comparison"]]
    )
    def test_inner_flags_reach_the_dirichlet_solve(self, domain_file, tmp_path, capsys, args):
        # one objective evaluation cannot solve a nonzero datum
        if args[0] == "solve":
            prob = tmp_path / "prob.json"
            prob.write_text(json.dumps({"f": 1.0, "s": 0.5, "p": 1.5}))
            args = args + [prob]
        code = run(args + ["--domain", domain_file, "--inner-tol", 1e-9,
                           "--max-iter-inner", 1, "--out", tmp_path / "x.json"])
        assert code == 3
        assert "Dirichlet solve stalled" in capsys.readouterr().err

    def test_infinite_inner_tol_exits_2(self, domain_file, tmp_path, capsys):
        # --inner-tol inf once returned the start, 7.7% from the solution, with exit 0
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"f": 1.0, "s": 0.5, "p": 1.5}))
        out = tmp_path / "sol.json"
        code = run(["solve", "--domain", domain_file, "--problem", prob,
                    "--inner-tol", "inf", "--out", out])
        assert code == 2
        assert "inner_tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["eig", "--s", 0.5, "--p", 2],
        ["oracle", "--s", 0.5, "--p", 2],
        ["poincare", "--s", 0.5, "--p", 2],
        ["verify", "--s", 0.5, "--p", 2, "--suite", "adjoint"],
    ],
)
def test_output_t_is_the_grid_t(domain_file, tmp_path, args):
    out = tmp_path / "out.json"
    assert run(args + ["--domain", domain_file, "--t", 3, "--out", out]) == 0
    assert json.loads(out.read_text())["t"] == 3.0


class TestVerify:
    def test_adjoint_suite_passes(self, domain_file, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = run(["verify", "--domain", domain_file, "--s", 0.5, "--p", 2,
                    "--suite", "adjoint", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        # well inside the roundoff bound; a divergence off by a relative
        # 1e-14 reads about 3 here
        ratio = re.search(r"worst gap/bound (\S+)", report["checks"][0]["detail"]).group(1)
        assert float(ratio) <= 0.25

    def test_adjoint_suite_fails_a_divergence_off_by_1e_13(self, tmp_path, capsys, monkeypatch):
        # each draw's roundoff bound is tighter than a fixed 1e-12: on this
        # grid the worst gap stays under 1e-12, yet some draw's gap is far
        # over its bound
        import fraceig.verify as verify_mod

        domain_file = tmp_path / "interval32.json"
        save_domain_spec(interval_spec(1 / 32), domain_file)
        div = verify_mod.nonlocal_divergence
        monkeypatch.setattr(verify_mod, "nonlocal_divergence", lambda phi, params: div(phi, params) * (1 + 1e-13))
        out = tmp_path / "verify.json"
        code = run(["verify", "--domain", domain_file, "--s", 0.5, "--p", 2,
                    "--suite", "adjoint", "--out", out])
        assert code == 4
        assert "FAIL adjoint" in capsys.readouterr().out
        assert json.loads(out.read_text())["checks"][0]["margin"] <= 1e-12

    def test_poincare_suite_passes(self, domain_file, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--domain", domain_file, "--s", 0.5, "--p", 2,
                    "--suite", "poincare", "--out", out])
        assert code == 0

    @pytest.mark.parametrize(
        "s, p, names",
        [
            (0.75, 1.5, {"monotone-nonnegative", "monotone-pairwise", "holder"}),
            (0.5, 2.0, {"monotone-bound", "monotone-equality"}),
            (0.6, 3.0, {"monotone-bound", "holder"}),
        ],
    )
    def test_all_suites_pass(self, domain_file, tmp_path, capsys, s, p, names):
        out = tmp_path / "verify.json"
        code = run(["verify", "--domain", domain_file, "--s", s, "--p", p,
                    "--suite", "all", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        checks = {c["name"] for c in report["checks"]}
        assert names | {
            "poincare-random", "poincare-eigen-bound", "clarkson", "adjoint", "comparison",
            "scaling", "equivalence", "translation-finite", "holder",
        } <= checks
        assert "FAIL" not in capsys.readouterr().out

    def test_violation_reports_fail_and_exits_4(self, domain_file, tmp_path, capsys, monkeypatch):
        from fraceig.core import EnergyKernel

        monkeypatch.setattr(EnergyKernel, "monotone_pairing", lambda self, u, v: -1.0)
        out = tmp_path / "verify.json"
        code = run(["verify", "--domain", domain_file, "--s", 0.5, "--p", 1.5,
                    "--suite", "monotone", "--out", out])
        assert code == 4
        assert "FAIL monotone-nonnegative margin=-1.0" in capsys.readouterr().out
        assert json.loads(out.read_text())["all_passed"] is False

    def test_unknown_suite_exits_2(self, domain_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--domain", domain_file, "--s", 0.5, "--p", 2,
                 "--suite", "bogus", "--out", tmp_path / "x.json"])
        assert exc.value.code == 2

    def test_holder_wrong_regime_exits_2(self, domain_file, tmp_path, capsys):
        code = run(["verify", "--domain", domain_file, "--s", 0.3, "--p", 2,
                    "--suite", "holder", "--out", tmp_path / "x.json"])
        assert code == 2

    def test_adjoint_beyond_dense_budget_exits_2(self, tmp_path, capsys):
        # the 2D box at h=1/32 has 25,276 ball cells: 5.1 GB per pair array
        path = tmp_path / "box.json"
        save_domain_spec(box_spec(1 / 32), path)
        tracemalloc.start()
        try:
            code = run(["verify", "--domain", path, "--s", 0.5, "--p", 2,
                        "--suite", "adjoint", "--out", tmp_path / "x.json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "adjoint suite's random pair field" in err and "dense pair" in err
        assert peak < 1 << 28


class TestOracle:
    def test_oracle_runs(self, domain_file, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code = run(["oracle", "--domain", domain_file, "--s", 0.5, "--p", 2, "--out", out])
        assert code == 0
        assert json.loads(out.read_text())["lambda"] > 0

    def test_oracle_rejects_p3(self, domain_file, tmp_path, capsys):
        code = run(["oracle", "--domain", domain_file, "--s", 0.5, "--p", 3,
                    "--out", tmp_path / "x.json"])
        assert code == 2
