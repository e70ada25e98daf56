import warnings

import numpy as np
import pytest

# When a hypothesis test fails, its pytest plugin imports this module to
# write a patch, and the `libcst` import there raises a
# DeprecationWarning. Under `filterwarnings = ["error"]` that ends the
# session with an INTERNALERROR in place of the failure report. Imported
# once here with that warning ignored, it is cached and warns no more.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis, or no libcst
        pass


def finite_diff_check(build_loss, params, h=1e-5):
    """Max relative error between analytic and central-difference grads.

    `build_loss` must rebuild the loss tensor from the current parameter
    values on every call: `backward` consumes the tape it walks.
    """
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
                for p in params]
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            down = build_loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            a = g.reshape(-1)[i]
            err = abs(a - fd) / max(1.0, abs(a), abs(fd))
            worst = max(worst, err)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
