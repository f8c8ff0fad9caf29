import csv
import json
import random

import pytest

from mindist import oracle
from mindist.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_CONSISTENCY, EXIT_OK, _parse_row, main
from mindist.oracle import BUDGET_ENV_VAR
from mindist.results import validate_result


class TestConstruct:
    def test_dcc_writes_10x20(self, c20_file):
        lines = c20_file.read_text().splitlines()
        assert lines[0] == "20 10"
        assert len(lines) == 11
        assert all(len(row) == 20 for row in lines[1:])

    def test_qdc_writes_12x24(self, tmp_path):
        out = tmp_path / "g24.gm"
        assert main(["construct", "--qdc", "11", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "24 12"
        assert len(lines) == 13

    def test_bch_flags(self, tmp_path):
        out = tmp_path / "bch.gm"
        assert main(["construct", "--bch", "4", "1", "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[0] == "15 11"

    def test_qr_not_prime_exits_2(self, tmp_path, capsys):
        rc = main(["construct", "--qr", "8", "--out", str(tmp_path / "x.gm")])
        assert rc == EXIT_CONFIG
        assert "prime" in capsys.readouterr().err

    def test_load_round_trip(self, tmp_path, c20_file):
        out = tmp_path / "copy.gm"
        assert main(["construct", "--load", str(c20_file), "--out", str(out)]) == EXIT_OK
        assert out.read_text() == c20_file.read_text()


class TestEstimate:
    def test_exact_c20(self, c20_file, capsys):
        assert main(["estimate", "--code", str(c20_file), "--method", "exact"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "d = 6" in out

    def test_exact_with_enumerator_json(self, c20_file, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        rc = main(["estimate", "--code", str(c20_file), "--method", "exact",
                   "--enumerator", "--json", str(out_json)])
        assert rc == EXIT_OK
        doc = json.loads(out_json.read_text())
        validate_result(doc)
        counts = doc["events"][0]["counts"]
        assert sum(counts.values()) == 1 << 10

    def test_budget_refusal_exits_3(self, tmp_path, capsys):
        rng = random.Random(0)
        k = 40
        path = tmp_path / "big.gm"
        rows = ["".join("1" if (i == j or (j >= k and rng.random() < 0.5)) else "0"
                        for j in range(2 * k)) for i in range(k)]
        path.write_text(f"{2 * k} {k}\n" + "\n".join(rows) + "\n")
        rc = main(["estimate", "--code", str(path), "--method", "exact"])
        assert rc == EXIT_BUDGET
        assert "2^40" in capsys.readouterr().err

    def test_mim_deterministic_json(self, c20_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            rc = main(["estimate", "--code", str(c20_file), "--method", "mim",
                       "--seed", "1", "--nb-test", "5", "--json", str(out)])
            assert rc == EXIT_OK
        strip = lambda p: [
            line for line in p.read_text().splitlines()
            if "wall_time_seconds" not in line and '"time"' not in line
        ]
        assert strip(out1) == strip(out2)

    def test_ga_a_with_flags(self, c20_file, capsys):
        rc = main(["estimate", "--code", str(c20_file), "--method", "ga-a",
                   "--population", "60", "--generations", "8", "--seed", "3"])
        assert rc == EXIT_OK
        assert "ga_a" in capsys.readouterr().out

    def test_ga_config_file_key_value(self, c20_file, tmp_path, capsys):
        cfgfile = tmp_path / "ga.cfg"
        cfgfile.write_text(
            "population_size = 40\nmax_generations = 6\ncrossover_kind = uniform\n"
        )
        rc = main(["estimate", "--code", str(c20_file), "--method", "ga-b",
                   "--config", str(cfgfile), "--json", str(tmp_path / "r.json")])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["config"]["population_size"] == 40
        assert doc["config"]["crossover_kind"] == "uniform"

    def test_ga_config_file_json(self, c20_file, tmp_path):
        cfgfile = tmp_path / "ga.json"
        cfgfile.write_text(json.dumps({"population_size": 40, "max_generations": 6}))
        out = tmp_path / "r.json"
        rc = main(["estimate", "--code", str(c20_file), "--method", "ga-b",
                   "--config", str(cfgfile), "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["config"]["population_size"] == 40

    def test_bad_ga_flag_value_exits_2(self, c20_file):
        rc = main(["estimate", "--code", str(c20_file), "--method", "ga-b",
                   "--population", "7"])
        assert rc == EXIT_CONFIG

    def test_exact_records_env_budget(self, c20_file, tmp_path, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "12")
        out = tmp_path / "r.json"
        rc = main(["estimate", "--code", str(c20_file), "--method", "exact",
                   "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["config"]["budget"] == 12

    def test_missing_code_file_exits_2(self, tmp_path):
        rc = main(["estimate", "--code", str(tmp_path / "nope.gm"), "--method", "exact"])
        assert rc == EXIT_CONFIG


class TestTable:
    def test_batch_csv(self, c20_file, tmp_path):
        spec = tmp_path / "runs.spec"
        spec.write_text(
            f"# comment line\n"
            f"{c20_file} exact\n"
            f"{c20_file} ga-b seed=1 population=40 generations=6\n"
            f"{c20_file} mim seed=1 nb_test=3\n"
        )
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        assert [r["method"] for r in rows] == ["exact", "ga-b", "mim"]
        assert all(r["d"] == "6" for r in rows[:1])
        assert all(r["error"] == "" for r in rows)
        assert rows[1]["seed"] == "1"

    def test_empty_spec_header_only(self, tmp_path, capsys):
        spec = tmp_path / "empty.spec"
        spec.write_text("\n# nothing\n")
        assert main(["table", "--spec", str(spec)]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["code,method,d,runtime,seed,error"]

    def test_invalid_row_recorded_not_fatal(self, c20_file, tmp_path):
        spec = tmp_path / "runs.spec"
        spec.write_text(f"{tmp_path}/missing.gm exact\n{c20_file} exact\n")
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["error"] != ""
        assert rows[1]["d"] == "6" and rows[1]["error"] == ""

    def test_row_parse_errors_recorded_not_fatal(self, c20_file, tmp_path):
        spec = tmp_path / "runs.spec"
        spec.write_text(
            f"{c20_file} exact colour=red\n"
            f"{c20_file} ga-b population=many\n"
            f"{c20_file} exact seed\n"
            f"{c20_file} exact\n"
        )
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert "--colour" in rows[0]["error"]
        assert "population" in rows[1]["error"]
        assert "key=value" in rows[2]["error"]
        assert rows[3]["d"] == "6" and rows[3]["error"] == ""

    def test_bool_flag_rows(self, c20_file, tmp_path):
        spec = tmp_path / "runs.spec"
        spec.write_text(
            f"{c20_file} exact enumerator=1\n"
            f"{c20_file} ga-b seed=1 population=40 generations=6 no_elitism=1\n"
            f"{c20_file} ga-b seed=1 population=40 generations=6 no_elitism=0\n"
        )
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["d"] == "6"
        assert all(r["error"] == "" for r in rows)
        assert _parse_row(f"{c20_file} exact enumerator=1").enumerator is True
        args = _parse_row(f"{c20_file} ga-b no_elitism=1 crossover_prob=0.5")
        assert args.no_elitism is True and args.crossover_prob == 0.5
        assert _parse_row(f"{c20_file} ga-b no_elitism=0").no_elitism is False

    def test_consistency_failure_exits_4(self, c20_file, tmp_path, monkeypatch):
        real = oracle.exact_min_distance

        def forged(code, **kwargs):
            res = real(code, **kwargs)
            return oracle.ExactResult(res.d_exact - 1, res.witness, None, res.enumerated)

        monkeypatch.setattr(oracle, "exact_min_distance", forged)
        spec = tmp_path / "runs.spec"
        spec.write_text(f"{c20_file} exact\n{c20_file} mim seed=1 nb_test=2\n")
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == EXIT_CONSISTENCY
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert "witness" in rows[0]["error"]
        assert rows[1]["d"] == "6" and rows[1]["error"] == ""

    def test_parallel_matches_sequential(self, c20_file, tmp_path):
        spec = tmp_path / "runs.spec"
        spec.write_text(
            f"{c20_file} exact\n"
            f"{c20_file} mim seed=2 nb_test=3\n"
            f"{c20_file} ga-a seed=2 population=40 generations=6\n"
        )
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        assert main(["table", "--spec", str(spec), "--out", str(seq)]) == EXIT_OK
        assert main(["table", "--spec", str(spec), "--out", str(par), "--parallel", "2"]) == EXIT_OK
        strip_rt = lambda p: [
            {k: v for k, v in row.items() if k != "runtime"}
            for row in csv.DictReader(p.open())
        ]
        assert strip_rt(seq) == strip_rt(par)


class TestDecode:
    def test_all_zero_channel(self, c20_file, capsys):
        y = ",".join(["-1"] * 20)
        assert main(["decode", "--code", str(c20_file), f"--y={y}"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "weight:        0" in out

    def test_strong_noise_decodes_to_codeword(self, c20_file, capsys):
        rng = random.Random(5)
        y = ",".join(f"{rng.uniform(-2, 2):.3f}" for _ in range(20))
        assert main(["decode", "--code", str(c20_file), f"--y={y}", "--order", "2"]) == EXIT_OK
        assert "decoded:" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_is_a_config_error(self, c20_file, capsys, bad):
        y = ",".join(["-1"] * 3 + [bad] + ["-1"] * 16)
        assert main(["decode", "--code", str(c20_file), f"--y={y}"]) == EXIT_CONFIG
        assert "received sample 3 is not finite" in capsys.readouterr().err
