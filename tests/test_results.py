import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mindist
from mindist import oracle
from mindist.codes import LinearCode, build_qr
from mindist.errors import ConsistencyError
from mindist.gf2 import BitMatrix, BitWord, xor_rows
from mindist.genetic import GaConfig, run_variant_b
from mindist.mim import MimConfig, run
from mindist.results import SCHEMA_VERSION, DistanceEstimate, validate_result
from test_osd import permuted_dcc


@pytest.fixture(scope="module")
def sample_ga_doc(hamming7):
    cfg = GaConfig.variant_b(population_size=20, max_generations=4, rng_seed=0)
    return run_variant_b(hamming7, cfg).to_dict()


@pytest.fixture(scope="module")
def sample_mim_doc(hamming7):
    return run(hamming7, MimConfig.for_code(hamming7, nb_test=2, rng_seed=0)).to_dict()


class TestValidateResult:
    def test_ga_document_passes(self, sample_ga_doc):
        validate_result(sample_ga_doc)

    def test_mim_document_passes(self, sample_mim_doc):
        validate_result(sample_mim_doc)

    def test_json_round_trip_stays_valid(self, sample_ga_doc):
        validate_result(json.loads(json.dumps(sample_ga_doc)))

    def test_version_pinned(self, sample_ga_doc):
        assert sample_ga_doc["schema_version"] == SCHEMA_VERSION == 1

    def test_missing_field_rejected(self, sample_ga_doc):
        doc = dict(sample_ga_doc)
        del doc["bounds"]
        with pytest.raises(ValueError, match="missing"):
            validate_result(doc)

    def test_extra_field_rejected(self, sample_ga_doc):
        doc = dict(sample_ga_doc)
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unexpected"):
            validate_result(doc)

    def test_wrong_version_rejected(self, sample_ga_doc):
        doc = dict(sample_ga_doc)
        doc["schema_version"] = 2
        with pytest.raises(ValueError, match="schema_version"):
            validate_result(doc)

    def test_witness_weight_mismatch_rejected(self, sample_ga_doc):
        doc = json.loads(json.dumps(sample_ga_doc))
        doc["witness_weight"] = doc["witness_weight"] + 1
        with pytest.raises(ValueError, match="witness_weight"):
            validate_result(doc)

    @pytest.mark.parametrize("edit, match", [
        ({"d": 3}, "!= d"),
        ({"witness": None}, "only one is null"),
        ({"witness": None, "witness_weight": None}, "null for method 'exact'"),
    ], ids=["d_below_witness_weight", "witness_without_weight", "exact_without_witness"])
    def test_witness_must_certify_d(self, c20, edit, match):
        doc = oracle.run(c20).to_dict()
        validate_result(doc)
        with pytest.raises(ValueError, match=match):
            validate_result({**doc, **edit})

    def test_bad_witness_symbols_rejected(self, sample_ga_doc):
        doc = json.loads(json.dumps(sample_ga_doc))
        doc["witness"] = "10a1" + doc["witness"][4:]
        with pytest.raises(ValueError):
            validate_result(doc)

    @pytest.mark.parametrize("path, value", [
        (("code", "family"), "TURBO"),
        (("d",), 0),
        (("wall_time_seconds",), True),
        (("events",), [1]),
        (("bounds", "violated"), [3]),
        (("rng_seed",), 1.5),
    ])
    def test_schema_keywords_enforced(self, sample_ga_doc, path, value):
        doc = json.loads(json.dumps(sample_ga_doc))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=path[-1]):
            validate_result(doc)

    def test_qr_bounds_serialized(self):
        code = build_qr(17)
        est = run(code, MimConfig.for_code(code, nb_test=2, rng_seed=0))
        doc = est.to_dict()
        validate_result(doc)
        assert doc["bounds"]["sqrt_lower"] is not None

    def test_shipped_schema_agrees_on_required_fields(self, sample_ga_doc):
        schema_path = (
            Path(__file__).resolve().parents[1]
            / "src" / "mindist" / "schemas" / "result-v1.json"
        )
        schema = json.loads(schema_path.read_text())
        assert sorted(schema["required"]) == sorted(sample_ga_doc.keys())
        assert sorted(schema["properties"]["bounds"]["required"]) == sorted(
            sample_ga_doc["bounds"].keys()
        )
        assert sorted(schema["properties"]["code"]["required"]) == sorted(
            sample_ga_doc["code"].keys()
        )

    def test_sorted_stable_json(self, sample_ga_doc, hamming7):
        cfg = GaConfig.variant_b(population_size=20, max_generations=4, rng_seed=0)
        a = run_variant_b(hamming7, cfg).to_json()
        b = run_variant_b(hamming7, cfg).to_json()
        strip = lambda s: [l for l in s.splitlines() if "wall_time" not in l and '"time"' not in l]
        assert strip(a) == strip(b)


FORGED = """
import time
from mindist.codes import build_dcc
from mindist.errors import ConsistencyError
from mindist.gf2 import BitWord
from mindist.results import DistanceEstimate

c20 = build_dcc(BitWord.parse("1001111110"))
word = BitWord.parse("{word}")
try:
    DistanceEstimate.of(c20, "exact", {d}, word, {{}}, None, time.perf_counter(), [])
except ConsistencyError:
    raise SystemExit(0)
raise SystemExit("forged witness accepted")
"""

CHECKED = """
import time
from mindist.codes import LinearCode
from mindist.errors import ConsistencyError
from mindist.gf2 import BitMatrix, BitWord
from mindist.results import DistanceEstimate

code = LinearCode({n}, {k}, BitMatrix({n}, {rows}))
for bits, codeword in {cases}:
    word = BitWord({n}, bits)
    try:
        DistanceEstimate.of(code, "exact", word.weight, word, {{}}, None, time.perf_counter(), [])
        accepted = True
    except ConsistencyError:
        accepted = False
    if accepted != codeword:
        raise SystemExit(f"{{bits:#x}}: accepted {{accepted}}, a codeword {{codeword}}")
"""


def run_optimized(source: str) -> subprocess.CompletedProcess:
    """``source`` run by ``python -O``, which strips assert statements."""
    src = Path(mindist.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-O", "-c", source],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120,
    )


def permuted_witnesses() -> tuple[LinearCode, list[int], list[int]]:
    """C(20,10) with permuted columns, the codewords of 50 seeded information
    words, and each of them with each one of its bits flipped."""
    code = permuted_dcc()
    rng = random.Random(32)
    words = [xor_rows(code.generator.rows, rng.randrange(1, 1 << code.k)) for _ in range(50)]
    return code, words, [bits ^ 1 << j for bits in words for j in range(code.n)]


def is_codeword(code: LinearCode, bits: int) -> bool:
    return BitMatrix(code.n, code.generator.rows + (bits,)).rank() == code.k


class TestCertification:
    # weight 6 but not a codeword; a real weight-6 codeword of C(20,10)
    NON_CODEWORD = "11111100000000000000"
    CODEWORD = "11000000001101000001"

    def test_real_witness_accepted(self, c20):
        est = DistanceEstimate.of(c20, "exact", 6, BitWord.parse(self.CODEWORD), {}, None,
                                  time.perf_counter(), [])
        assert est.d == 6 and est.witness.weight == 6

    @pytest.mark.parametrize("word, d", [(CODEWORD, 5), (NON_CODEWORD, 6), ("0" * 20, 6)])
    def test_forged_witness_rejected(self, c20, word, d):
        with pytest.raises(ConsistencyError, match="witness"):
            DistanceEstimate.of(c20, "exact", d, BitWord.parse(word), {}, None,
                                time.perf_counter(), [])

    def test_missing_witness_only_for_mim(self, c20):
        with pytest.raises(ConsistencyError, match="no witness"):
            DistanceEstimate.of(c20, "ga_b", 6, None, {}, 0, time.perf_counter(), [])

    @pytest.mark.parametrize("word, d", [(CODEWORD, 5), (NON_CODEWORD, 6)])
    def test_forged_witness_rejected_under_optimize(self, word, d):
        proc = run_optimized(FORGED.format(word=word, d=d))
        assert proc.returncode == 0, proc.stderr

    # a code whose basis pivots are not 0..k-1, with BitMatrix.rank as the
    # reference for which words are codewords

    def test_permuted_codewords_accepted(self):
        code, words, _ = permuted_witnesses()
        for bits in words:
            assert is_codeword(code, bits)
            word = BitWord(code.n, bits)
            est = DistanceEstimate.of(code, "exact", word.weight, word, {}, None,
                                      time.perf_counter(), [])
            assert est.witness == word

    def test_permuted_non_codewords_rejected(self):
        code, _, flipped = permuted_witnesses()
        for bits in flipped:
            assert not is_codeword(code, bits)
            word = BitWord(code.n, bits)
            with pytest.raises(ConsistencyError, match="not a codeword"):
                DistanceEstimate.of(code, "exact", word.weight, word, {}, None,
                                    time.perf_counter(), [])

    def test_permuted_witnesses_under_optimize(self):
        code, words, flipped = permuted_witnesses()
        cases = [(bits, True) for bits in words] + [(bits, False) for bits in flipped]
        proc = run_optimized(CHECKED.format(n=code.n, k=code.k, rows=code.generator.rows,
                                            cases=cases))
        assert proc.returncode == 0, proc.stderr
