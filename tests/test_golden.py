"""The golden corpus (tests/golden): every seam output and count, the
README sweeps and the CLI files still match the stored ones."""

from golden.corpus import first_difference


def test_golden_corpus_matches(tmp_path):
    difference = first_difference(tmp_path)
    assert difference is None, ("the rebuilt corpus differs from tests/golden; "
                                f"first difference at {difference}")
