"""Every output file of the shipped configs matches its recorded SHA-256.

The hashes in `tests/golden.json` come from `tests/golden.py --write`; a
mismatch names the file and its first differing line.
"""

import json

from golden import GOLDEN, mismatches, record


def test_shipped_config_outputs_match_the_golden_hashes(tmp_path):
    actual = record(tmp_path)
    problems = mismatches(json.loads(GOLDEN.read_text()), actual, tmp_path)
    assert not problems, "\n".join(problems)
