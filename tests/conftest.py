"""Shared pytest plumbing: collects acceptance-check result lines and
prints them in one block at the end of the session, and builds the packed
rows the tests feed the kernels."""
import numpy as np

from shiftlab.diffcore import Packed

ACCEPTANCE_LINES = []


def record_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance checks")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def packed_rows(rows) -> Packed:
    """A Packed of (input, label) or (input, label, group) rows, group 0 when
    left out. Integer inputs become CSR token rows; float vectors, which must
    share one width, become the dense rows x."""
    rows = list(rows)
    inputs = [np.asarray(row[0]) for row in rows]
    labels = np.array([row[1] for row in rows], dtype=int)
    groups = np.array([row[2] if len(row) > 2 else 0 for row in rows], dtype=int)
    if inputs and inputs[0].dtype.kind in "iu":
        offsets = np.cumsum([0] + [ids.size for ids in inputs])
        return Packed(labels, groups, tokens=np.concatenate(inputs).astype(int), offsets=offsets)
    return Packed(labels, groups, x=np.array(inputs, dtype=float))
