import pytest

from mindist import BitWord, LinearCode, build_dcc, build_qdc, build_qr
from mindist.cli import EXIT_OK, main
from mindist.gf2 import BitMatrix


def naive_min_distance(code: LinearCode) -> int:
    """Independent reference: the least weight of the codewords of every
    nonzero information word, each re-encoded from scratch."""
    best_w = code.n + 1
    for info in range(1, 1 << code.k):
        cw = 0
        for i in range(code.k):
            if (info >> i) & 1:
                cw ^= code.generator.rows[i]
        best_w = min(best_w, cw.bit_count())
    return best_w


@pytest.fixture(scope="session")
def c20() -> LinearCode:
    """Table 9 C(20,10), exact distance 6."""
    return build_dcc(BitWord.parse("1001111110"))


@pytest.fixture(scope="session")
def golay24() -> LinearCode:
    """QDC(24,12): extended-Golay parameters, exact distance 8."""
    return build_qdc(11)


@pytest.fixture(scope="session")
def hamming7() -> LinearCode:
    """QR(7): (7,4) Hamming-parameter code, exact distance 3."""
    return build_qr(7)


@pytest.fixture(scope="session")
def repetition3() -> LinearCode:
    return LinearCode(3, 1, BitMatrix.from_strings(["111"]))


@pytest.fixture(scope="session")
def repetition7() -> LinearCode:
    return LinearCode(7, 1, BitMatrix.from_strings(["1111111"]))


@pytest.fixture()
def c20_file(tmp_path):
    """C(20,10) written to a matrix file by the CLI."""
    path = tmp_path / "c20.gm"
    assert main(["construct", "--dcc", "1001111110", "--out", str(path)]) == EXIT_OK
    return path
