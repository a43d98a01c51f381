import copy
import csv
import dataclasses
import filecmp
import functools
import inspect
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ammlab import artifacts, cli, config as config_mod, envsim, neural, qvi, regime, strategies, synthpath
from ammlab.agent import Q_NET_DIMS


def csv_column(path, name):
    with open(path, newline="") as fh:
        return np.array([float(row[name]) for row in csv.DictReader(fh)])


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**overrides):
    doc = {
        "seed": 3,
        "data": {
            "synth": {
                "initial_price": 100.0,
                "segments": [
                    {"duration": 400, "theta": 0.02, "mu": 100.0, "sigma": 0.05},
                    {"duration": 400, "theta": 0.0005, "mu": 100.0, "sigma": 0.03},
                ],
                "volume": {"base_notional": 15000.0, "volatility_coupling": 1.0},
            }
        },
    }
    doc.update(overrides)
    return doc


# the subcommands that read each optional flag; every other one rejects it
FLAG_READERS = {
    ("--strategy", "bedivere"): ("backtest",),
    ("--checkpoint", "policy.json"): ("backtest", "sweep-gas", "heatmap"),
    ("--profile", "smoke"): ("train",),
}


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "bogus": True})
        rc = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        rc = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "out"), "--frobnicate"])
        assert rc == 1

    def test_unknown_subcommand_exits_one(self):
        assert cli.main(["transmogrify", "--config", "x", "--out", "y"]) == 1

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_runtime_error_exits_two(self, tmp_path):
        doc = {"seed": 1, "data": {"bars_csv": str(tmp_path / "missing_bars.csv")}}
        cfg = write_config(tmp_path, doc)
        rc = cli.main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_bad_splits_rejected(self, tmp_path):
        doc = base_config()
        doc["data"]["splits"] = [0.5, 0.5, 0.1]
        cfg = write_config(tmp_path, doc)
        rc = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1

    @pytest.mark.parametrize(
        "flag, value, command",
        [(f, v, c) for (f, v), readers in FLAG_READERS.items() for c in cli._COMMANDS if c not in readers],
    )
    def test_stray_flag_exits_one(self, tmp_path, capsys, flag, value, command):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out), flag, value]) == 1
        assert not out.exists()
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, command", [(f, v, c) for (f, v), readers in FLAG_READERS.items() for c in readers]
    )
    def test_flag_parses_where_read(self, flag, value, command):
        args = cli._build_parser().parse_args([command, "--config", "c.json", "--out", "o", flag, value])
        assert getattr(args, flag[2:]) == value

    def test_unknown_strategy_flag_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "bt"
        assert cli.main(["backtest", "--config", cfg, "--out", str(out), "--strategy", "gawain"]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["backtest", "qvi"])
    @pytest.mark.parametrize("key, value", [("width", 1.5), ("fee_tier", 1.0), ("dex_cex_ratio", 2.0)])
    def test_pool_out_of_bounds_exits_one(self, tmp_path, command, key, value):
        cfg = write_config(tmp_path, base_config(pool={key: value}))
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_qvi_grid_at_non_positive_prices_exits_one(self, tmp_path, capsys):
        # at theta 1e-4 the default grids span mu +/- 176.8, down to S = c = -76.8
        doc = json.loads((Path(__file__).parent.parent / "configs" / "stationary.json").read_text())
        doc["qvi"].update(theta=0.0001, n_s=60, n_c=12)
        out = tmp_path / "qvi"
        assert cli.main(["qvi", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert not out.exists()
        assert "positive prices" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [{"theta_min": 0.1, "theta_max": 0.0}, {"theta_min": 0.2}])
    def test_heatmap_theta_min_above_max_exits_one(self, tmp_path, bounds):
        ckpt = tmp_path / "checkpoint.json"
        neural.save_checkpoint(ckpt, neural.Mlp(Q_NET_DIMS, seed=0))
        cfg = write_config(tmp_path, base_config(heatmap={**bounds, "theta_points": 3, "d_edge_points": 3}))
        out = tmp_path / "hm"
        assert cli.main(["heatmap", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_exits_one(self, tmp_path, token):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(pool={"gas_cost": "GAS"})).replace('"GAS"', token))
        out = tmp_path / "bt"
        assert cli.main(["backtest", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400], ids=["1e400", "-1e400", "401-digit-int"])
    def test_overflowing_number_exits_one(self, tmp_path, capsys, literal):
        # 1e400 parses to inf, which passes gas_cost's bounds and would write Infinity into qvi_meta.json
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(pool={"gas_cost": "GAS"})).replace('"GAS"', literal))
        out = tmp_path / "qvi"
        assert cli.main(["qvi", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", [b"\xff\xfe", b'{"seed": 1, "data": {"bars_csv": "\xff.csv"}}'], ids=["bom", "in-string"]
    )
    def test_non_utf8_config_exits_one(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(text)
        out = tmp_path / "synth"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"seed": 1, "seed": 2}', "seed"),
            ('{"pool": {"gas_cost": 1.0, "width": 0.01, "gas_cost": 2.0}}', "gas_cost"),
        ],
        ids=["top", "nested"],
    )
    def test_duplicate_key_exits_one(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        out = tmp_path / "synth"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert f"key {key!r} appears more than once" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "opening, inner, closing", [("[", "", "]"), ('{"a":', "1", "}")], ids=["arrays", "objects"]
    )
    def test_deeply_nested_config_exits_one(self, tmp_path, capsys, opening, inner, closing):
        # nesting deeper than the recursion limit makes json raise RecursionError
        cfg = tmp_path / "config.json"
        cfg.write_text(opening * 100_000 + inner + closing * 100_000)
        out = tmp_path / "synth"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "nests arrays or objects too deeply to parse" in capsys.readouterr().err

    def test_pool_bounds_match_pool_config(self):
        doc = config_mod.validate(base_config(pool={"dex_cex_ratio": 1.0, "width": 0.999, "fee_tier": 0.999}))
        assert config_mod.pool_config(doc).dex_cex_ratio == 1.0

    def test_strategy_params_match_builders(self):
        assert list(strategies._BUILDERS) == config_mod.STRATEGY_NAMES
        for name, builder in strategies._BUILDERS.items():
            keywords = {
                p.name
                for p in inspect.signature(builder).parameters.values()
                if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
            }
            assert set(config_mod._STRATEGY_PARAMS[name]) == keywords, name

    def test_qvi_keys_match_problem_and_solve(self):
        keywords = {field.name for field in dataclasses.fields(synthpath.OuParams)}
        for fn in (qvi.QviProblem.default, qvi.QviProblem, qvi.solve):
            keywords |= {
                p.name
                for p in inspect.signature(fn).parameters.values()
                if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
            }
        assert set(config_mod.SCHEMA["properties"]["qvi"]["properties"]) <= keywords

    @pytest.mark.parametrize("segment", ["train", "val", "test"])
    def test_segment_without_splits_exits_one(self, tmp_path, segment):
        cfg = write_config(tmp_path, base_config(backtest={"segment": segment}))
        out = tmp_path / "bt"
        assert cli.main(["backtest", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["backtest", "sweep-gas"])
    def test_empty_segment_exits_one(self, tmp_path, capsys, command):
        doc = base_config(backtest={"segment": "val"})
        doc["data"]["synth"]["segments"] = [{"duration": 10, "theta": 0.02, "mu": 100.0, "sigma": 0.05}]
        doc["data"]["splits"] = [0.9, 0.05, 0.05]
        out = tmp_path / "bt"
        assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert not out.exists()
        assert "segment 'val' is empty: data.splits [0.9, 0.05, 0.05] of a 10-bar series" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "backtest, splits, bars",
        [(None, None, 800), ({"segment": "all"}, None, 800), ({"segment": "val"}, [0.5, 0.25, 0.25], 200)],
    )
    def test_segment_bars(self, tmp_path, backtest, splits, bars):
        doc = base_config(**({"backtest": backtest} if backtest else {}))
        if splits:
            doc["data"]["splits"] = splits
        out = tmp_path / "bt"
        assert cli.main(["backtest", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 1 + bars


class TestPipeline:
    def test_synth_then_estimate_row_counts(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1 = tmp_path / "synth"
        assert cli.main(["synth", "--config", cfg, "--out", str(out1)]) == 0
        bars = (out1 / "bars.csv").read_text().splitlines()
        assert len(bars) == 801  # header + 800 bars

        doc2 = {"seed": 3, "data": {"bars_csv": str(out1 / "bars.csv")}}
        cfg2 = write_config(tmp_path, doc2, "config2.json")
        out2 = tmp_path / "est"
        assert cli.main(["estimate", "--config", cfg2, "--out", str(out2)]) == 0
        rows = (out2 / "regime.csv").read_text().splitlines()
        assert len(rows) == 801
        assert rows[0] == "t,theta,mu,sigma,half_life,valid"

    def test_estimate_writes_plain_numbers(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "est"
        assert cli.main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "regime.csv", newline="") as fh:
            cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
        assert not [cell for cell in cells if "np." in cell]
        for cell in cells:
            float(cell)

    def test_estimate_half_life_matches_per_entry(self, tmp_path, monkeypatch):
        # theta exactly 0, subnormal, and invalid entries with any theta
        edge = np.array([0.0, 5e-324, 1e-300, 1.0, 0.05, 0.0, 0.3])
        edge_valid = np.array([True, True, True, True, False, False, True])
        rolling = regime.rolling_estimates

        def with_edges(closes, dt, window):
            theta, mu, sigma, valid = rolling(closes, dt, window)
            theta[-len(edge) :], valid[-len(edge) :] = edge, edge_valid
            return theta, mu, sigma, valid

        monkeypatch.setattr(regime, "rolling_estimates", with_edges)
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "est"
        assert cli.main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        header = ["t", "theta", "mu", "sigma", "half_life", "valid"]
        types = [np.int64] + [np.float64] * 4 + [np.int64]
        _, theta, _, _, half_life, valid = artifacts.read_columns(out / "regime.csv", header, types)
        expected = [regime.half_life(th) if ok else math.inf for th, ok in zip(theta.tolist(), valid.tolist())]
        assert not valid[0] and theta[-len(edge) :].tolist() == edge.tolist()
        assert half_life.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()

    def test_ingest(self, tmp_path):
        trades = tmp_path / "trades.csv"
        trades.write_text(
            "timestamp_ms,price,size\n1000,100.0,1.0\n1500,101.0,2.0\n3000,100.5,1.0\n"
        )
        doc = {"seed": 0, "data": {"trades_csv": str(trades)}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["ingest", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bars.csv").read_text().splitlines()
        assert len(lines) == 4  # header + seconds 1..3

    def test_ingest_and_synth_list_the_bar_copy(self, tmp_path):
        trades = tmp_path / "trades.csv"
        trades.write_text("timestamp_ms,price,size\n1000,100.0,1.0\n3000,100.5,1.0\n")
        for command, doc in [("ingest", {"seed": 0, "data": {"trades_csv": str(trades)}}), ("synth", base_config())]:
            out = tmp_path / command
            assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["outputs"] == [str(out / "bars.csv"), str(out / "bars.csv.npz")]
            assert sorted(p.name for p in out.iterdir()) == ["bars.csv", "bars.csv.npz", "manifest.json"]

    @pytest.mark.parametrize("row", ["1500,nan,2.0", "1500,-5.0,2.0", "1500,101.0,-3.0"])
    def test_impossible_trade_exits_two_without_bars(self, tmp_path, capsys, row):
        trades = tmp_path / "trades.csv"
        trades.write_text(f"timestamp_ms,price,size\n1000,100.0,1.0\n{row}\n3000,100.5,1.0\n")
        cfg = write_config(tmp_path, {"seed": 0, "data": {"trades_csv": str(trades)}})
        out = tmp_path / "out"
        assert cli.main(["ingest", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "bars.csv").exists()
        assert "DomainError: trade row 1 " in capsys.readouterr().err

    def test_nan_close_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "synth")]) == 0
        bars = tmp_path / "synth" / "bars.csv"
        lines = bars.read_text().splitlines()
        cells = lines[400].split(",")
        cells[4] = "nan"  # close
        lines[400] = ",".join(cells)
        bars.write_text("\n".join(lines) + "\n")
        cfg2 = write_config(tmp_path, {"seed": 3, "data": {"bars_csv": str(bars)}}, "config2.json")
        out = tmp_path / "bt"
        assert cli.main(["backtest", "--config", cfg2, "--strategy", "lancelot", "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "DomainError: bar row 399 " in capsys.readouterr().err

    def test_backtest_lancelot_fully_active(self, tmp_path):
        cfg = write_config(tmp_path, base_config(strategy={"name": "lancelot"}))
        out = tmp_path / "bt"
        assert cli.main(["backtest", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["strategy"] == "lancelot"
        assert report["metrics"]["active_frac"] == 1.0
        assert (out / "trace.csv").exists()

    def test_estimate_window_reaches_backtest(self, tmp_path):
        cfg = write_config(tmp_path, base_config(estimate={"window": 600}))
        assert cli.main(["estimate", "--config", cfg, "--out", str(tmp_path / "est")]) == 0
        assert cli.main(["backtest", "--config", cfg, "--out", str(tmp_path / "bt")]) == 0
        regime_csv = tmp_path / "est" / "regime.csv"
        valid = csv_column(regime_csv, "valid") == 1.0
        expected = np.where(valid, csv_column(regime_csv, "theta"), 0.0)
        assert csv_column(tmp_path / "bt" / "trace.csv", "theta").tolist() == expected.tolist()

    def test_strategy_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, base_config(strategy={"name": "lancelot"}))
        out = tmp_path / "bt2"
        assert cli.main(["backtest", "--config", cfg, "--out", str(out), "--strategy", "bedivere"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["strategy"] == "bedivere"

    def test_sweep_gas(self, tmp_path):
        doc = base_config(
            sweep={
                "strategies": [{"name": "lancelot"}, {"name": "bedivere"}],
                "gas_levels": [1.0, 2.0, 5.0],
            }
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        assert cli.main(["sweep-gas", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "gas_sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 3
        doc = json.loads((out / "break_even.json").read_text())
        assert set(doc["break_even_gas"]) == {"lancelot", "bedivere"}

    def test_sweep_gas_unknown_strategy_is_config_error(self, tmp_path):
        doc = base_config(sweep={"strategies": [{"name": "galadriel"}], "gas_levels": [1.0, 5.0]})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        assert cli.main(["sweep-gas", "--config", cfg, "--out", str(out)]) == 1
        assert not (out / "gas_sweep.csv").exists()

    def test_qvi_exports(self, tmp_path):
        doc = base_config(
            qvi={"theta": 0.05, "mu": 100.0, "sigma": 0.5, "n_s": 80, "n_c": 10, "tol": 1e-6}
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "qvi"
        assert cli.main(["qvi", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "qvi_solution.csv").exists()
        meta = json.loads((out / "qvi_meta.json").read_text())
        assert meta["converged"] is True
        assert len(meta["sup_change_history"]) == len(meta["policy_iterations"]) == meta["iterations"]
        assert meta["sup_change_history"][-1] == meta["sup_change"]
        with open(out / "qvi_boundary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        devs = [float(r[col]) for r in rows for col in ("lower_dev", "upper_dev")]
        assert any(math.isfinite(d) for d in devs)

    def test_qvi_meta_reports_solution_checks(self, tmp_path, capsys):
        q = {"theta": 0.05, "mu": 100.0, "sigma": 0.5, "n_s": 80, "n_c": 10, "tol": 1e-6}
        cfg = write_config(tmp_path, base_config(qvi=q))
        out = tmp_path / "qvi"
        assert cli.main(["qvi", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        meta = json.loads((out / "qvi_meta.json").read_text())
        ou = synthpath.OuParams(q["theta"], q["mu"], q["sigma"])
        sol = qvi.solve(qvi.QviProblem.default(ou, config_mod.pool_config({}), n_s=80, n_c=10))
        assert meta["obstacle_violation"] == qvi.obstacle_violation(sol) <= 1e-6
        assert meta["max_complementarity_residual"] == float(qvi.complementarity_residual(sol).max())
        assert meta["max_complementarity_residual"] <= 1e-6
        assert (meta["eliminated_rows"], meta["substituted_rows"]) == (sol.eliminated_rows, sol.substituted_rows)

    @pytest.mark.parametrize("capped_inner", [False, True])
    def test_qvi_not_converged_warns_and_exits_zero(self, tmp_path, capsys, monkeypatch, capped_inner):
        q = {"theta": 0.05, "mu": 100.0, "sigma": 0.5, "n_s": 80, "n_c": 10}
        if capped_inner:
            # one active-set pass cannot settle the first obstacle solve
            monkeypatch.setattr(qvi, "_solve_obstacle", functools.partial(qvi._solve_obstacle, max_policy_iters=1))
            q["max_iters"] = 3
        else:
            q["max_iters"] = 1
        cfg = write_config(tmp_path, base_config(qvi=q))
        out = tmp_path / "qvi"
        assert cli.main(["qvi", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "qvi_meta.json").read_text())
        assert meta["converged"] is False
        inner = "an" if capped_inner else "no"
        assert capsys.readouterr().err == (
            f"warning: qvi did not converge in {meta['iterations']} outer iterations "
            f"(last sup change {meta['sup_change']:.3g}, tol 1e-06); "
            f"{inner} inner active-set solve was cut short\n"
        )
        assert {p.name for p in out.iterdir()} == {
            "qvi_solution.csv", "qvi_boundary.csv", "qvi_meta.json", "manifest.json"
        }

    def test_train_then_heatmap(self, tmp_path):
        doc = base_config(
            train={
                "episodes": 2,
                "episode_length": 120,
                "batch_size": 16,
                "buffer_capacity": 1000,
            },
            heatmap={"theta_points": 3, "d_edge_points": 3},
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "train"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        ckpt = out / "checkpoint.json"
        assert ckpt.exists()
        log = (out / "training_log.csv").read_text().splitlines()
        assert log[0] == "episode,return,epsilon,mean_loss,rebalances,active_frac"
        assert len(log) == 3

        out2 = tmp_path / "hm"
        rc = cli.main(["heatmap", "--config", cfg, "--out", str(out2), "--checkpoint", str(ckpt)])
        assert rc == 0
        rows = (out2 / "heatmap.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 3

    def test_heatmap_reference_values(self, tmp_path, monkeypatch):
        """sigma_norm and recent_vol are the clipped run medians, sigma over valid bars only."""
        smoke = Path(__file__).parent.parent / "configs" / "smoke.json"
        ckpt = tmp_path / "policy.json"
        neural.save_checkpoint(ckpt, neural.Mlp(Q_NET_DIMS, seed=0))
        passed = {}
        heatmap = cli.backtest_mod.heatmap

        def recorded(*args, **kwargs):
            passed.update(kwargs)
            return heatmap(*args, **kwargs)

        monkeypatch.setattr(cli.backtest_mod, "heatmap", recorded)
        out = tmp_path / "hm"
        assert cli.main(["heatmap", "--config", str(smoke), "--out", str(out), "--checkpoint", str(ckpt)]) == 0
        doc = config_mod.load(smoke)
        series = synthpath.simulate_schedule(config_mod.schedule(doc), doc["seed"])
        features = envsim.FeatureTrack(series, config_mod.estimate_window(doc))
        ok = features.valid
        sigma_ref = min(float(np.median(features.sigma[ok] / series.close[ok])), envsim.SIGMA_NORM_CLIP)
        vol_ref = min(float(np.median(features.recent_vol)), envsim.RECENT_VOL_CLIP)
        assert passed["sigma_norm"].hex() == sigma_ref.hex()
        assert passed["recent_vol"].hex() == vol_ref.hex()


BAD_STRATEGY_SPECS = [
    {"name": "galahad", "params": {"horizn": 5}},
    {"name": "lancelot", "params": {"bogus": 1}},
    {"name": "galahad", "params": {"horizon": 0}},
    {"name": "rammstein"},  # no checkpoint, and no --checkpoint
]


class TestStrategySpecs:
    """Bad strategy specs are config errors (exit 1) before any work."""

    @pytest.mark.parametrize("spec", BAD_STRATEGY_SPECS, ids=lambda s: json.dumps(s))
    def test_backtest_spec_exits_one(self, tmp_path, spec):
        cfg = write_config(tmp_path, base_config(strategy=spec))
        out = tmp_path / "bt"
        assert cli.main(["backtest", "--config", cfg, "--out", str(out)]) == 1
        assert not any(out.glob("*"))

    @pytest.mark.parametrize("spec", BAD_STRATEGY_SPECS, ids=lambda s: json.dumps(s))
    def test_sweep_spec_exits_one(self, tmp_path, spec):
        doc = base_config(sweep={"strategies": [{"name": "lancelot"}, spec], "gas_levels": [1.0, 5.0]})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        assert cli.main(["sweep-gas", "--config", cfg, "--out", str(out)]) == 1
        assert not any(out.glob("*"))

    def test_sweep_repeated_strategy_exits_one(self, tmp_path, capsys):
        # break_even.json keys curves by name, so a second galahad would overwrite the first
        specs = [{"name": "galahad"}, {"name": "lancelot"}, {"name": "galahad", "params": {"horizon": 600}}]
        cfg = write_config(tmp_path, base_config(sweep={"strategies": specs, "gas_levels": [1.0, 5.0]}))
        out = tmp_path / "sweep"
        assert cli.main(["sweep-gas", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert "sweep.strategies names galahad more than once" in capsys.readouterr().err

    def test_sweep_repeated_gas_level_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, base_config(sweep={"gas_levels": [2.0, 2.0]}))
        out = tmp_path / "sweep"
        assert cli.main(["sweep-gas", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_rammstein_flag_without_checkpoint_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, base_config(strategy={"name": "lancelot"}))
        out = tmp_path / "bt"
        assert cli.main(["backtest", "--config", cfg, "--out", str(out), "--strategy", "rammstein"]) == 1
        assert not out.exists()

    def test_failed_command_keeps_an_out_it_did_not_make(self, tmp_path):
        cfg = write_config(tmp_path, base_config(strategy={"name": "lancelot"}))
        out = tmp_path / "bt"
        out.mkdir()
        assert cli.main(["backtest", "--config", cfg, "--out", str(out), "--strategy", "rammstein"]) == 1
        assert out.is_dir()

    def test_strategy_flag_drops_other_strategys_params(self, tmp_path):
        cfg = write_config(tmp_path, base_config(strategy={"name": "galahad", "params": {"horizon": 5}}))
        out = tmp_path / "bt"
        argv = ["backtest", "--config", cfg, "--out", str(out), "--strategy", "lancelot", "--checkpoint", "unused"]
        assert cli.main(argv) == 0
        assert json.loads((out / "report.json").read_text())["strategy"] == "lancelot"


class TestTrainingBounds:
    @pytest.mark.parametrize(
        "splits, profile, episode_length, bars",
        [(None, "full", 36_000, 800), (None, None, 800, 800), ([0.5, 0.25, 0.25], None, 400, 400)],
    )
    def test_segment_shorter_than_episode_exits_one(
        self, tmp_path, capsys, splits, profile, episode_length, bars
    ):
        doc = base_config(train={"episode_length": episode_length})
        if splits:
            doc["data"]["splits"] = splits
        argv = ["train", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "train")]
        assert cli.main(argv + (["--profile", profile] if profile else [])) == 1
        assert not (tmp_path / "train").exists()
        err = capsys.readouterr().err
        assert f"train.episode_length {episode_length}" in err and f"{bars}-bar training segment" in err

    @settings(max_examples=25, deadline=None)
    @given(
        hst.one_of(
            hst.tuples(hst.just("gamma"), hst.floats(1.0, 1e6)),
            hst.tuples(hst.just("gamma"), hst.floats(-1e6, 0.0)),
            hst.tuples(hst.sampled_from(["epsilon_start", "epsilon_end"]), hst.floats(-1e6, -1e-9)),
            hst.tuples(
                hst.sampled_from(["epsilon_start", "epsilon_end", "epsilon_decay"]),
                hst.floats(1.0, 1e6, exclude_min=True),
            ),
        )
    )
    def test_out_of_range_exits_one(self, tmp_path_factory, bad):
        key, value = bad
        tmp = tmp_path_factory.mktemp("bounds")
        cfg = write_config(tmp, base_config(train={key: value}))
        out = tmp / "train"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()


def _schema_at(path):
    node = config_mod.SCHEMA
    for key in path:
        node = node["items"] if isinstance(key, int) else node["properties"][key]
    return node


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, parents first."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


SMOKE = json.loads((Path(__file__).parent.parent / "configs" / "smoke.json").read_text())
_LEAVES = [path for path, value in _nodes(SMOKE) if not isinstance(value, (dict, list))]
_OBJECTS = [path for path, value in _nodes(SMOKE) if isinstance(value, dict)]
# NaN and +-inf are written as bare JSON tokens; NaN passes every schema bound
_ALWAYS_BAD = hst.sampled_from(["text", None, True, [1.0], {"k": 1}, math.nan, math.inf, -math.inf])


def _out_of_schema(path):
    """Values that break the schema of the leaf at ``path``."""
    node = _schema_at(path)
    bad = [_ALWAYS_BAD]
    finite = {"allow_nan": False, "allow_infinity": False}
    if "enum" in node:
        bad.append(hst.text(min_size=1).filter(lambda v: v not in node["enum"]))
    if "minimum" in node:
        bad.append(hst.floats(max_value=node["minimum"], exclude_max=True, **finite))
    if "exclusiveMinimum" in node:
        bad.append(hst.floats(max_value=node["exclusiveMinimum"], **finite))
    if "maximum" in node:
        bad.append(hst.floats(min_value=node["maximum"], exclude_min=True, **finite))
    if "exclusiveMaximum" in node:
        bad.append(hst.floats(min_value=node["exclusiveMaximum"], **finite))
    return hst.tuples(hst.just(path), hst.one_of(bad))


_BAD_LEAF = hst.one_of(
    hst.sampled_from(_LEAVES).flatmap(_out_of_schema),
    hst.tuples(hst.sampled_from(_OBJECTS).map(lambda path: path + ("bogus_key",)), hst.just(1)),
)


class TestConfigFuzz:
    """One leaf of configs/smoke.json broken against the schema: exit 1, nothing written."""

    @settings(max_examples=25, deadline=None)
    @given(_BAD_LEAF)
    def test_out_of_schema_leaf_exits_one(self, tmp_path_factory, bad):
        path, value = bad
        doc = copy.deepcopy(SMOKE)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        tmp = tmp_path_factory.mktemp("fuzz")
        cfg = write_config(tmp, doc)
        for command in ("backtest", "qvi"):
            out = tmp / command
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1, (command, path, value)
            assert not out.exists()

    def test_smoke_config_is_valid(self):
        config_mod.validate(copy.deepcopy(SMOKE))


def _schema_leaves(node, path=()):
    """(path, schema) of each leaf reached through properties and items; items are entered at index 0."""
    if "properties" not in node and "items" not in node:
        yield path, node
    for key, sub in node.get("properties", {}).items():
        yield from _schema_leaves(sub, path + (key,))
    if "items" in node:
        yield from _schema_leaves(node["items"], path + (0,))


_DROP = object()


def _set(doc, path, value):
    """Set ``doc`` at ``path``, adding missing sections; ``_DROP`` deletes the key instead."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key] if isinstance(key, int) else parent.setdefault(key, {})
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


_INTEGER_LEAVES = {path: node for path, node in _schema_leaves(config_mod.SCHEMA) if node.get("type") == "integer"}


def _least_integer(node):
    return node.get("minimum", node.get("exclusiveMinimum", -1) + 1)


class TestIntegerFields:
    """An integer field takes an integer literal only: 2.0 is a config error, not a run-time TypeError."""

    @pytest.mark.parametrize("path", list(_INTEGER_LEAVES), ids=lambda path: "/".join(map(str, path)))
    def test_integral_float_exits_one(self, tmp_path, capsys, path):
        value = _least_integer(_INTEGER_LEAVES[path]) + 1
        config_mod.validate(_set(copy.deepcopy(SMOKE), path, value))
        cfg = write_config(tmp_path, _set(copy.deepcopy(SMOKE), path, float(value)))
        out = tmp_path / "synth"
        assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert f"{float(value)!r} is not of type 'integer' (at {'/'.join(map(str, path))})" in capsys.readouterr().err

    def test_walk_finds_integer_leaves(self):
        expected = {("seed",), ("data", "synth", "segments", 0, "duration"), ("train", "episodes"), ("qvi", "n_s")}
        assert expected <= set(_INTEGER_LEAVES)


CONFIGS = {p.name: json.loads(p.read_text()) for p in (Path(__file__).parent.parent / "configs").glob("*.json")}
# jsonschema with "integer" read as config.validate reads it: an int literal, never 1.0
_STRICT_INTEGER = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)


def _in_schema(path):
    """Values that meet the schema of the numeric leaf at ``path``."""
    node = _schema_at(path)
    if node.get("type") == "integer":
        return hst.integers(min_value=_least_integer(node), max_value=10**6)
    low = node.get("minimum", node.get("exclusiveMinimum", -1e6))
    high = node.get("maximum", node.get("exclusiveMaximum", 1e6))
    return hst.floats(low, high, exclude_min="exclusiveMinimum" in node, exclude_max="exclusiveMaximum" in node)


def _mutation(doc):
    """One edit of ``doc`` as (path, value): in or out of the schema, with the value ``_DROP`` deleting."""
    nodes = dict(_nodes(doc))
    leaves = [p for p, v in nodes.items() if not isinstance(v, (dict, list))]
    numbers = [p for p in leaves if isinstance(nodes[p], (int, float))]
    integers = [p for p in leaves if type(nodes[p]) is int]
    containers = [p for p, v in nodes.items() if p and isinstance(v, (dict, list))]
    arrays = [p for p in containers if isinstance(nodes[p], list)]
    objects = [p for p in containers if p not in arrays]
    required = [p + (key,) for p in objects for key in _schema_at(p).get("required", ())]
    specs = [p for p in containers if p == ("strategy",) or p[-2:-1] == ("strategies",)]
    params = sorted({key for keys in config_mod._STRATEGY_PARAMS.values() for key in keys})
    return hst.one_of(
        hst.sampled_from(leaves).flatmap(_out_of_schema),
        hst.tuples(hst.sampled_from(objects).map(lambda path: path + ("bogus_key",)), hst.just(1)),
        hst.tuples(hst.sampled_from(containers), _ALWAYS_BAD),
        hst.tuples(hst.sampled_from(required), hst.just(_DROP)),
        hst.sampled_from(arrays).flatmap(
            lambda path: hst.tuples(
                hst.just(path), hst.integers(0, 8).map(lambda n, items=nodes[path]: (items * 8)[:n])
            )
        ),
        hst.sampled_from(numbers).flatmap(lambda path: hst.tuples(hst.just(path), _in_schema(path))),
        hst.sampled_from(integers).map(lambda path: (path, float(nodes[path]))),
        hst.tuples(
            hst.sampled_from(specs),
            hst.fixed_dictionaries(
                {"name": hst.sampled_from(config_mod.STRATEGY_NAMES)},
                optional={"params": hst.dictionaries(hst.sampled_from(params), hst.floats(-1.0, 1e3), max_size=2)},
            ),
        ),
    )


_LEVELS = SMOKE["sweep"]["gas_levels"]
_MUTATED = hst.one_of(
    hst.sampled_from(sorted(CONFIGS)).flatmap(lambda name: hst.tuples(hst.just(name), _mutation(CONFIGS[name]))),
    hst.sampled_from(_LEVELS).map(lambda level: ("smoke.json", (("sweep", "gas_levels"), _LEVELS + [level]))),
)


class TestValidatorMatchesJsonschema:
    """config.validate against jsonschema's Draft202012Validator, the reference for SCHEMA."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_shipped_configs_pass_both(self, name):
        assert not list(jsonschema.Draft202012Validator(config_mod.SCHEMA).iter_errors(CONFIGS[name]))
        config_mod.validate(copy.deepcopy(CONFIGS[name]))

    @settings(max_examples=300, deadline=None)
    @given(_MUTATED)
    def test_raises_iff_reference_finds_an_error(self, case):
        name, (path, value) = case
        doc = _set(copy.deepcopy(CONFIGS[name]), path, value)
        try:
            config_mod.validate(copy.deepcopy(doc))
            ours = False
        except config_mod.ConfigError as exc:
            # the checks after the schema (splits sum, repeated names, ...) are not schema errors
            ours = str(exc).startswith("invalid config: ")
        stock = list(jsonschema.Draft202012Validator(config_mod.SCHEMA).iter_errors(doc))
        strict = list(_STRICT_INTEGER(config_mod.SCHEMA).iter_errors(doc))
        assert ours == bool(strict), (path, value, [e.message for e in strict])
        if bool(stock) != bool(strict):
            # the one allowed difference: an integral float where the schema says integer
            assert not stock
            assert all(
                e.validator == "type" and e.validator_value == "integer" and float(e.instance).is_integer()
                for e in strict
            )

    def test_schema_uses_only_supported_keywords(self):
        def keywords(node):
            yield from node
            for sub in node.get("properties", {}).values():
                yield from keywords(sub)
            for sub in node.get("allOf", ()):
                yield from keywords(sub)
            for key in ("items", "if", "then"):
                if key in node:
                    yield from keywords(node[key])

        used = set(keywords(config_mod.SCHEMA))
        assert used <= config_mod._KEYWORDS, used - config_mod._KEYWORDS
        # every keyword the validator reads is in use, so none of them is dead code
        assert used == config_mod._KEYWORDS

    @pytest.mark.parametrize(
        "schema, text",
        [
            ({"properties": {"x": {"pattern": "^a"}}}, "SCHEMA/properties/x uses unsupported keywords"),
            ({"items": {"additionalProperties": {}}}, "SCHEMA/items: additionalProperties may only be false"),
            ({"allOf": [{"then": {"type": "null"}}]}, "SCHEMA/allOf/0/then: unsupported type 'null'"),
        ],
        ids=["pattern", "additional-schema", "null-type"],
    )
    def test_unsupported_keyword_raises(self, schema, text):
        with pytest.raises(ValueError, match=re.escape(text)):
            config_mod._check_keywords(schema)


def test_cli_import_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, ammlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_jsonschema():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    banned = "{'jsonschema', 'referencing', 'rpds', 'attrs'}"
    probe = f"import sys, ammlab.cli; print(sorted({{m.split('.')[0] for m in sys.modules}} & {banned}))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_pins_blas_threads():
    """Importing ammlab sets each unset thread variable to 1 and keeps a set one."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_ENV}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), OMP_NUM_THREADS="3")
    probe = "import os, ammlab; print([os.environ[var] for var in ammlab.THREAD_ENV])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(["3" if var == "OMP_NUM_THREADS" else "1" for var in cli._THREAD_ENV])


class TestDeterminism:
    def test_train_twice_byte_identical(self, tmp_path):
        doc = base_config(
            train={"episodes": 2, "episode_length": 200, "batch_size": 32, "buffer_capacity": 2000}
        )
        cfg = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", cfg, "--out", str(out_a), "--seed", "7"]) == 0
        assert cli.main(["train", "--config", cfg, "--out", str(out_b), "--seed", "7"]) == 0
        assert filecmp.cmp(out_a / "checkpoint.json", out_b / "checkpoint.json", shallow=False)
        assert filecmp.cmp(out_a / "training_log.csv", out_b / "training_log.csv", shallow=False)

    def test_seed_changes_checkpoint(self, tmp_path):
        doc = base_config(
            train={"episodes": 1, "episode_length": 150, "batch_size": 32, "buffer_capacity": 2000}
        )
        cfg = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", cfg, "--out", str(out_a), "--seed", "1"]) == 0
        assert cli.main(["train", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == 0
        assert not filecmp.cmp(out_a / "checkpoint.json", out_b / "checkpoint.json", shallow=False)

    def test_manifest_records_config_hash(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        doc = base_config()
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "m"
        assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_mod.config_hash(doc)
        assert manifest["command"] == "synth"
        assert 0.0 < manifest["wall_s"] < 60.0
        assert manifest["peak_rss_mb"] > 1.0
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        threads = manifest["thread_env"]
        assert set(threads) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert threads["OMP_NUM_THREADS"] == "3"
        assert threads["MKL_NUM_THREADS"] == "unset"
        assert threads["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS", "unset")

    def test_profile_overrides_train_section(self, tmp_path):
        doc = config_mod.apply_profile(base_config(), "smoke")
        assert doc["train"]["episodes"] == 20
        assert doc["train"]["episode_length"] == 3600
        full = config_mod.apply_profile(base_config(), "full")
        assert full["train"]["episodes"] == 300
        assert full["train"]["episode_length"] == 36_000


class TestSchema:
    def test_schema_is_valid(self):
        jsonschema.Draft202012Validator.check_schema(config_mod.SCHEMA)

    def test_valid_document_passes(self):
        config_mod.validate(base_config())

    def test_strategy_enum_enforced(self):
        with pytest.raises(config_mod.ConfigError):
            config_mod.validate(base_config(strategy={"name": "galadriel"}))

    def test_nested_unknown_key_rejected(self):
        doc = base_config()
        doc["data"]["synth"]["segments"][0]["color"] = "red"
        with pytest.raises(config_mod.ConfigError):
            config_mod.validate(doc)

    def test_hash_is_order_insensitive(self):
        a = {"seed": 1, "data": {"bars_csv": "x"}}
        b = {"data": {"bars_csv": "x"}, "seed": 1}
        assert config_mod.config_hash(a) == config_mod.config_hash(b)
