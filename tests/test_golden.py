"""Golden fingerprints: training, checkpoints, evaluation and ablation rows
stay bit-identical to the digests in ``golden.json``.

See ``write_golden.py`` for what each digest covers and how to regenerate
the file.  Under another numpy or BLAS build the digests are not expected
to hold, so the test fails and names both builds instead of comparing.
"""

import json

from write_golden import GOLDEN, environment, fingerprints


def test_golden_fingerprints():
    golden = json.loads(GOLDEN.read_text())
    recorded, current = golden["environment"], environment()
    assert current == recorded, (
        f"golden.json was written under numpy {recorded['numpy']} with {recorded['blas']}; "
        f"this environment has numpy {current['numpy']} with {current['blas']}. "
        "The digests hold only under the recorded builds; regenerate them with "
        "tests/write_golden.py.")
    got = fingerprints()
    moved = sorted(key for key in golden["digests"] if got.get(key) != golden["digests"][key])
    assert got.keys() == golden["digests"].keys() and not moved, f"digests moved: {moved}"
