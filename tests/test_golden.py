"""Every output file of the shipped configs matches its recorded SHA-256.

The hashes in `tests/golden.json` come from `tests/golden.py --write`; a
mismatch names the file and its first differing line, and the SIMD
extensions numpy found, which its bits depend on.
"""

import json

from golden import GOLDEN, mismatches, record, simd_extensions


def test_shipped_config_outputs_match_the_golden_hashes(tmp_path):
    actual = record(tmp_path)
    problems = mismatches(json.loads(GOLDEN.read_text()), actual, tmp_path)
    assert not problems, "\n".join(problems + [simd_extensions()])
