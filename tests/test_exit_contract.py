"""The exit-code contract under extreme magnitudes.

Every command on every extreme document ends in a documented exit code
with at most one stderr line and no exception. The magnitudes run from
the smallest subnormal to the largest float, so sums, squares and
products overflow, underflow and turn to NaN all through the package;
pytest makes a numpy RuntimeWarning an error, so a warning that would
print beside the reason line fails the test too.
"""

import pytest
from documents import COMMANDS, documents, extreme, outcome

DOCUMENTS = documents(1, 100, extreme)


@pytest.mark.parametrize("index", range(len(DOCUMENTS)))
def test_an_extreme_document_ends_in_one_documented_line(index):
    for command in COMMANDS:
        result = outcome(DOCUMENTS[index], command)
        assert result["exit"] in (0, 2, 3, 4, 5), (command, result)
        assert len(result["stderr"]) <= 1, (command, result)
