"""Shared pytest plumbing: collects acceptance-check result lines and
prints them in one block at the end of the session, builds the packed rows
the tests feed the kernels, and holds the checks of the gradient and of the
co-natural solve that only tests run."""
import numpy as np

from shiftlab.continual import EPSILON, FisherState
from shiftlab.diffcore import ModelState, Packed, batch_constants, grad_params, nll_loss_batch

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


def finite_diff_check(model: ModelState, batch: Packed) -> float:
    """Max relative error of grad_params against central differences."""
    step = 1e-5
    analytic = grad_params(model, batch, batch_constants(len(batch))[1])
    worst = 0.0
    params = model.params
    for j in range(params.size):
        orig = params[j]
        params[j] = orig + step
        up = nll_loss_batch(model, batch).mean()
        params[j] = orig - step
        down = nll_loss_batch(model, batch).mean()
        params[j] = orig
        numeric = (up - down) / (2.0 * step)
        err = abs(numeric - analytic[j]) / max(1.0, abs(analytic[j]))
        worst = max(worst, err)
    return worst


def residual_check(grad: np.ndarray, fisher: FisherState, delta_raw: np.ndarray) -> float:
    """Relative norm of grad - (F + alpha I) delta_raw; near zero iff exact."""
    grad = np.asarray(grad, dtype=float)
    residual = grad - (fisher.diag + fisher.alpha) * np.asarray(delta_raw, dtype=float)
    denom = max(float(np.linalg.norm(grad)), EPSILON)
    return float(np.linalg.norm(residual)) / denom
