import csv
import json
import random

import pytest

from mindist import cli, oracle
from mindist.cli import (
    EXIT_BUDGET, EXIT_CONFIG, EXIT_CONSISTENCY, EXIT_OK, _parse_row, _RowParser, main,
)
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

    def test_load_exits_2(self, tmp_path, c20_file):
        # a code file is read where it is used; construct only builds
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--load", str(c20_file), "--out", str(tmp_path / "copy.gm")])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "copy.gm").exists()


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
        # k = 40 > 32 refuses only the enumerator's 2^40 sweep; the search
        # proves d
        rng = random.Random(0)
        k = 40
        path = tmp_path / "big.gm"
        rows = ["".join("1" if (i == j or (j >= k and rng.random() < 0.5)) else "0"
                        for j in range(2 * k)) for i in range(k)]
        path.write_text(f"{2 * k} {k}\n" + "\n".join(rows) + "\n")
        rc = main(["estimate", "--code", str(path), "--method", "exact", "--enumerator"])
        assert rc == EXIT_BUDGET
        assert "2^40" in capsys.readouterr().err
        assert main(["estimate", "--code", str(path), "--method", "exact"]) == EXIT_OK
        assert "d = 10" in capsys.readouterr().out
        # a BCH(127,64) file without its generator polynomial line has no
        # BCH bound to stop at, and 2^23 combinations prove only 9
        bare = tmp_path / "bare127.gm"
        assert main(["construct", "--bch", "7", "10", "--out", str(bare)]) == EXIT_OK
        bare.write_text("".join(bare.read_text().splitlines(keepends=True)[:-1]))
        rc = main(["estimate", "--code", str(bare), "--method", "exact", "--budget", "23"])
        assert rc == EXIT_BUDGET
        assert "it proved d in [9, 21]" in capsys.readouterr().err

    def test_exact_above_k_32(self, tmp_path, capsys):
        # a construct-written BCH(63,36) keeps its generator polynomial: the
        # search stops at its BCH bound, while the sweep is refused
        path = tmp_path / "b63.gm"
        assert main(["construct", "--bch", "6", "5", "--out", str(path)]) == EXIT_OK
        out = tmp_path / "r.json"
        rc = main(["estimate", "--code", str(path), "--method", "exact", "--json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        validate_result(doc)
        assert doc["d"] == 11
        capsys.readouterr()
        rc = main(["estimate", "--code", str(path), "--method", "exact", "--enumerator"])
        assert rc == EXIT_BUDGET
        assert "2^36" in capsys.readouterr().err

    def test_negative_budget_exits_2(self, c20_file, capsys):
        rc = main(["estimate", "--code", str(c20_file), "--method", "exact", "--budget", "-1"])
        assert rc == EXIT_CONFIG
        assert "budget must be an int >= 0, got -1" in capsys.readouterr().err

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

    def test_mim_on_a_loaded_bch_code_stops_at_its_bch_bound(self, tmp_path):
        # construct keeps g in the file, so the loaded BCH(63,36) is proven
        # BCH again: it gets its family, its d1 and its BCH bound, 11 = d,
        # and the run stops after its first trial
        code, out = tmp_path / "b63.gm", tmp_path / "m.json"
        assert main(["construct", "--bch", "6", "5", "--out", str(code)]) == EXIT_OK
        assert main(["estimate", "--code", str(code), "--method", "mim",
                     "--seed", "1", "--nb-test", "20", "--json", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        validate_result(doc)
        assert doc["d"] == 11 and doc["code"]["family"] == "BCH" and doc["config"]["d1"] == 11
        assert [e["kind"] for e in doc["events"]][-2:] == ["trial", "certified"]

    def test_ga_a_with_flags(self, c20_file, capsys):
        rc = main(["estimate", "--code", str(c20_file), "--method", "ga-a",
                   "--population", "60", "--generations", "8", "--seed", "3"])
        assert rc == EXIT_OK
        assert "ga_a" in capsys.readouterr().out

    def test_ga_estimate_above_singleton_warns(self, c20_file, tmp_path):
        # a tiny GA run keeps a weight-12 codeword against a Singleton bound
        # of 11: a valid, if weak, upper bound, so a warning and exit 0
        out = tmp_path / "w.json"
        rc = main(["estimate", "--code", str(c20_file), "--method", "ga-a", "--seed", "0",
                   "--population", "2", "--generations", "1", "--json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        validate_result(doc)
        assert doc["bounds"]["warnings"] == ["singleton"] and doc["bounds"]["violated"] == []
        assert doc["d"] == doc["witness"].count("1") > doc["bounds"]["singleton_upper"]

    @pytest.mark.parametrize("flags", [
        ["--selection", "roulette"], ["--mutation", "greedy"], ["--crossover", "uniform"],
        ["--config", "ga.cfg"],
    ])
    def test_removed_ga_operators_exit_2(self, c20_file, flags):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--code", str(c20_file), "--method", "ga-a", *flags])
        assert exc.value.code == EXIT_CONFIG

    def test_bad_ga_flag_value_exits_2(self, c20_file):
        rc = main(["estimate", "--code", str(c20_file), "--method", "ga-b",
                   "--population", "7"])
        assert rc == EXIT_CONFIG

    def test_row_after_k_rows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "extra.gm"
        path.write_text("4 2\n1100\n0011\n1111\n")
        assert main(["estimate", "--code", str(path), "--method", "exact"]) == EXIT_CONFIG
        assert "line 4: unexpected text after the 2 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("method, flags, config", [
        ("exact", ["--budget", "12", "--enumerator"], {"budget": 12, "enumerator": True}),
        ("ga-a",
         ["--seed", "5", "--population", "40", "--generations", "4", "--crossover-prob", "0.5",
          "--mutation-prob", "0.05", "--crossover", "two_point", "--tournament-size", "3"],
         {"rng_seed": 5, "population_size": 40, "max_generations": 4, "crossover_prob": 0.5,
          "mutation_prob": 0.05, "crossover_kind": "two_point", "tournament_size": 3}),
        ("ga-b",
         ["--seed", "5", "--population", "40", "--generations", "4", "--elite-count", "3",
          "--crossover-prob", "0.5", "--mutation-prob", "0.05", "--crossover", "one_point",
          "--tournament-size", "3"],
         {"rng_seed": 5, "population_size": 40, "max_generations": 4, "elite_count": 3,
          "crossover_prob": 0.5, "mutation_prob": 0.05, "crossover_kind": "one_point",
          "tournament_size": 3}),
        ("mim",
         ["--seed", "5", "--d0", "2", "--d1", "7", "--nb-test", "2", "--error-max", "4",
          "--osd-order", "2"],
         {"rng_seed": 5, "d0": 2, "d1": 7, "nb_test": 2, "error_max": 4, "osd_order": 2}),
    ])
    def test_every_flag_reaches_the_record(self, c20_file, tmp_path, method, flags, config):
        # every value differs from the method's default, so a flag whose
        # dest misses its config field leaves the default and fails here
        out = tmp_path / "r.json"
        rc = main(["estimate", "--code", str(c20_file), "--method", method, *flags,
                   "--json", str(out)])
        assert rc == EXIT_OK
        recorded = json.loads(out.read_text())["config"]
        assert {key: recorded[key] for key in config} == config

    @pytest.mark.parametrize("method, flags", [
        ("mim", ["--population", "40"]),
        ("mim", ["--elite-count", "0"]),
        ("exact", ["--d0", "3"]),
        ("exact", ["--seed", "1"]),
        ("ga-b", ["--budget", "12"]),
        ("ga-a", ["--nb-test", "3"]),
    ])
    def test_flag_the_method_does_not_read_exits_2(self, c20_file, capsys, method, flags):
        rc = main(["estimate", "--code", str(c20_file), "--method", method, *flags])
        assert rc == EXIT_CONFIG
        assert f"{flags[0]} is not read by --method {method}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--elite-count", "3"], ["--elite-count", "0"]])
    def test_ga_a_elite_settings_exit_2(self, c20_file, capsys, flags):
        rc = main(["estimate", "--code", str(c20_file), "--method", "ga-a",
                   "--population", "40", "--generations", "4", *flags])
        assert rc == EXIT_CONFIG
        assert "variant A always copies the best half" in capsys.readouterr().err

    def test_no_elitism_flag_exits_2(self, c20_file, capsys):
        # --elite-count 0 is the one way to turn variant B's elite copy off
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--code", str(c20_file), "--method", "ga-b", "--no-elitism"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --no-elitism" in capsys.readouterr().err

    def test_exact_records_budget(self, c20_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["estimate", "--code", str(c20_file), "--method", "exact",
                   "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["config"]["budget"] == oracle.DEFAULT_BUDGET
        # C(20,10) proves d = 6 in 110 combinations, within 2^9
        rc = main(["estimate", "--code", str(c20_file), "--method", "exact", "--budget", "9",
                   "--json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert (doc["config"]["budget"], doc["d"]) == (9, 6)

    def test_mim_order_above_k_exits_2(self, c20_file, capsys):
        rc = main(["estimate", "--code", str(c20_file), "--method", "mim",
                   "--nb-test", "1", "--osd-order", "11"])
        assert rc == EXIT_CONFIG
        assert "order 11 outside 0..k = 10" in capsys.readouterr().err

    def test_abbreviated_flags_exit_2(self, c20_file, capsys):
        # --pop and --gen are prefixes of --population and --generations
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--code", str(c20_file), "--method", "ga-b",
                  "--pop", "40", "--gen", "4"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --pop 40 --gen 4" in capsys.readouterr().err

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
            f"{c20_file} mim population=40\n"
            f"{c20_file} ga-b config=ga.cfg\n"
            f"{c20_file} exact\n"
        )
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert "--colour" in rows[0]["error"]
        assert "population" in rows[1]["error"]
        assert "key=value" in rows[2]["error"]
        assert rows[3]["error"] == "--population is not read by --method mim"
        assert "unrecognized arguments: --config ga.cfg" in rows[4]["error"]
        assert rows[5]["d"] == "6" and rows[5]["error"] == ""

    def test_abbreviated_and_json_keys_are_row_errors(self, c20_file, tmp_path):
        spec = tmp_path / "runs.spec"
        spec.write_text(
            f"{c20_file} ga-b pop=40 gen=4\n"
            f"{c20_file} exact json={tmp_path / 'out.json'}\n"
        )
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert "unrecognized arguments: --pop 40 --gen 4" in rows[0]["error"]
        assert rows[0]["d"] == ""
        assert "--json" in rows[1]["error"] and rows[1]["d"] == ""
        assert not (tmp_path / "out.json").exists()

    def test_failed_row_keeps_code_and_method(self, c20_file, tmp_path):
        spec = tmp_path / "runs.spec"
        spec.write_text(f"{c20_file} exact enumerator=yes\n")
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert (row["code"], row["method"]) == (str(c20_file), "exact")
        assert "enumerator must be true or false" in row["error"]

    def test_bool_flag_rows(self, c20_file, tmp_path):
        spec = tmp_path / "runs.spec"
        spec.write_text(
            f"{c20_file} exact enumerator=1\n"
            f"{c20_file} exact enumerator=0\n"
            f"{c20_file} ga-b seed=1 population=40 generations=6 elite_count=0\n"
            f"{c20_file} exact enumerator=yes\n"
            f"{c20_file} ga-b seed=1 population=40 generations=6 no_elitism=1\n"
        )
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["d"] == rows[1]["d"] == "6"
        assert all(r["error"] == "" for r in rows[:3])
        assert "enumerator must be true or false" in rows[3]["error"]
        assert "unrecognized arguments: --no-elitism 1" in rows[4]["error"]
        assert rows[4]["d"] == ""
        row = lambda text: _parse_row(_RowParser(), f"{c20_file} {text}")
        for text in ("1", "true", "TRUE", "True"):
            assert row(f"exact enumerator={text}").collect_enumerator is True
        for text in ("0", "false", "FALSE"):
            assert row(f"exact enumerator={text}").collect_enumerator is False
        args = row("exact enumerator=1 budget=12")
        assert args.collect_enumerator is True and args.budget == 12

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_parallel_below_1_exits_2(self, c20_file, tmp_path, capsys, workers):
        spec = tmp_path / "runs.spec"
        spec.write_text(f"{c20_file} exact\n")
        out = tmp_path / "runs.csv"
        rc = main(["table", "--spec", str(spec), "--out", str(out), "--parallel", workers])
        assert rc == EXIT_CONFIG
        assert f"--parallel must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_parallel_starts_no_more_workers_than_rows(self, c20_file, tmp_path, monkeypatch):
        # under fork a pool starts all max_workers processes at its first
        # submit, so the cap must be in the argument; the fake starts none
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        spec = tmp_path / "runs.spec"
        spec.write_text(f"{c20_file} exact\n{c20_file} mim seed=1 nb_test=2\n")
        out = tmp_path / "runs.csv"
        assert main(["table", "--spec", str(spec), "--out", str(out), "--parallel", "64"]) == EXIT_OK
        assert started == [2]
        assert [row["d"] for row in csv.DictReader(out.open())] == ["6", "6"]


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

    def test_default_order_capped_at_k(self, tmp_path, capsys):
        path = tmp_path / "c5.gm"
        path.write_text("5 2\n11100\n00111\n")
        args = ["decode", "--code", str(path), "--y=-1,-1,2,2,2"]
        assert main(args) == EXIT_OK
        assert "decoded:       00111" in capsys.readouterr().out
        assert main([*args, "--order", "3"]) == EXIT_CONFIG
        assert "order 3 outside 0..k = 2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_is_a_config_error(self, c20_file, capsys, bad):
        y = ",".join(["-1"] * 3 + [bad] + ["-1"] * 16)
        assert main(["decode", "--code", str(c20_file), f"--y={y}"]) == EXIT_CONFIG
        assert "received sample 3 is not finite" in capsys.readouterr().err
