"""Finite-difference verification of every analytic gradient.

Each check builds a random small instance, reduces the op's output to a
scalar with a fixed random weighting, and compares the analytic gradient
against central differences (step 1e-5, double precision).  The error
measure is |analytic - numeric| / max(1, |analytic|, |numeric|), so it is
relative for large entries and absolute (at the same tolerance) near
zero where finite differences bottom out.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .aggregation import FMeanLayer, GaussianSupportLayer, HybridLayer
from .layers import ConvLayer, LinearLayer, MaxPool2x2Layer, ReLULayer, pool_views, softmax_xent
from .model import AGGREGATION_KINDS, build_mlp
from .ops import sigmoid, softmax, softplus

FD_STEP = 1e-5
TOL = 1e-5
CASES = 100


def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x.

    Perturbs x in place entry by entry, restoring it afterwards.
    """
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = f()
        flat[i] = orig - FD_STEP
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * FD_STEP)
    return g


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """max over entries of |a-b| / max(1, |a|, |b|)."""
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def _layer_case(layer, x, rng):
    """Check every parameter and the input of one layer instance.

    The scalar objective is sum(C * forward(x)) for a fixed random C.
    Returns the worst relative error across all checked arrays.
    """
    out = layer.forward(x.copy(), train=True)
    C = rng.standard_normal(out.shape)

    def objective():
        return float(np.sum(C * layer.forward(x, train=False)))

    worst = rel_error(layer.backward(C), fd_gradient(objective, x))
    for p in layer.params():
        worst = max(worst, rel_error(p.grad, fd_gradient(objective, p.data)))
    return worst


def _check_cases(draw, cases, rng):
    """Worst :func:`_layer_case` error over ``cases`` draws ``(layer, x) = draw(rng)``."""
    worst = 0.0
    for _ in range(cases):
        worst = max(worst, _layer_case(*draw(rng), rng))
    return worst


def check_elementwise(cases: int = CASES, rng=None):
    """softplus, sigmoid, softmax against FD through a random reduction."""
    rng = rng or np.random.default_rng(11)
    worst = 0.0
    for _ in range(cases):
        t = rng.uniform(-6, 6, size=rng.integers(2, 8))
        c = rng.standard_normal(t.shape)
        s = sigmoid(t)
        checks = [
            (softplus, c * s),                      # d softplus = sigmoid
            (sigmoid, c * s * (1 - s)),             # d sigmoid = s(1-s)
            (softmax, softmax(t) * (c - np.sum(c * softmax(t)))),  # Jacobian^T c
        ]
        for fn, analytic in checks:
            fd = fd_gradient(lambda fn=fn: float(np.sum(c * fn(t))), t)
            worst = max(worst, rel_error(analytic, fd))
    return worst


def check_linear(cases: int = CASES, rng=None):
    def draw(rng):
        b, i, o = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
        return LinearLayer(i, o, rng), rng.standard_normal((b, i))

    return _check_cases(draw, cases, rng or np.random.default_rng(21))


def check_conv(cases: int = CASES, rng=None):
    def draw(rng):
        b, cin, cout = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                        int(rng.integers(1, 4)))
        h = int(rng.integers(2, 4)) * 2
        return ConvLayer(cin, cout, rng), rng.standard_normal((b, cin, h, h))

    return _check_cases(draw, cases, rng or np.random.default_rng(31))


def check_pool(cases: int = CASES, rng=None):
    def draw(rng):
        b, c, h = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4)) * 2
        x = rng.standard_normal((b, c, h, h))
        # keep the window argmax stable under the FD step
        while _pool_margin(x) < 10 * FD_STEP:
            x = rng.standard_normal((b, c, h, h))
        return MaxPool2x2Layer(), x

    return _check_cases(draw, cases, rng or np.random.default_rng(41))


def _pool_margin(x: np.ndarray) -> float:
    """Smallest gap between the top two entries of any 2x2 window."""
    win = np.sort(np.stack(pool_views(x)), axis=0)
    return float(np.min(win[3] - win[2]))


def check_loss(cases: int = CASES, rng=None):
    rng = rng or np.random.default_rng(51)
    worst = 0.0
    for _ in range(cases):
        b = int(rng.integers(1, 6))
        k = int(rng.integers(2, 8))
        logits = rng.standard_normal((b, k))
        labels = rng.integers(0, k, size=b)
        _, dlogits = softmax_xent(logits, labels)
        fd = fd_gradient(lambda: softmax_xent(logits, labels)[0], logits)
        worst = max(worst, rel_error(dlogits, fd))
    return worst


def _check_aggregation(make_layer, cases, rng):
    """``cases`` random instances of ``make_layer(n, u, rng=rng)``, each
    novel parameter it has redrawn in the order alpha_raw, p, log_sigma."""
    def draw(rng):
        b, n, u = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(1, 5))
        layer = make_layer(n, u, rng=rng)
        for name, lo, hi in (("alpha_raw", -2, 2), ("p", -2.0, 4.0), ("log_sigma", -4.0, 3.0)):
            param = getattr(layer, name)
            if param is not None:
                param.data = rng.uniform(lo, hi, size=param.data.shape)
        return layer, rng.standard_normal((b, n))

    return _check_cases(draw, cases, rng)


def check_fmean(cases: int = CASES, rng=None):
    """F-Mean layer gradients including hard exponents (p < 0, p > 3)."""
    return _check_aggregation(FMeanLayer, cases, rng or np.random.default_rng(61))


def check_gaussian(cases: int = CASES, rng=None):
    """Gaussian-support layer gradients across narrow and wide kernels."""
    return _check_aggregation(GaussianSupportLayer, cases, rng or np.random.default_rng(71))


def check_hybrid(cases: int = CASES, rng=None):
    """All three hybrid kinds, ``cases`` instances of each."""
    rng = rng or np.random.default_rng(81)
    return max(_check_aggregation(functools.partial(HybridLayer, kind=kind), cases, rng)
               for kind in AGGREGATION_KINDS[1:])


def _relu_margin(model, x) -> float:
    """Distance of the closest pre-activation to a ReLU kink."""
    margin = np.inf
    out = x
    for layer in model.layers:
        if isinstance(layer, ReLULayer):
            margin = min(margin, float(np.min(np.abs(out))))
        out = layer.forward(out, train=False)
    return margin


def check_full_model(rng=None):
    """End-to-end loss gradients of a tiny model per aggregation kind.

    Inputs landing a pre-activation within the FD step of a ReLU kink are
    redrawn: central differences straddle the kink there and disagree
    with the (correct) one-sided analytic gradient.
    """
    rng_master = rng or np.random.default_rng(91)
    worst = 0.0
    for agg in AGGREGATION_KINDS:
        rng = np.random.default_rng(rng_master.integers(2**32))
        model = build_mlp(agg, rng, in_dim=8, proj_dim=6, hidden_dim=5, classes=3)
        labels = rng.integers(0, 3, size=2)
        x = rng.standard_normal((2, 8))
        while _relu_margin(model, x) < 100 * FD_STEP:
            x = rng.standard_normal((2, 8))

        def objective():
            return softmax_xent(model.forward(x, train=False), labels)[0]

        _, dlogits = softmax_xent(model.forward(x, train=True), labels)
        model.zero_grad()
        model.backward(dlogits)
        for p in model.parameters():
            worst = max(worst, rel_error(p.grad, fd_gradient(objective, p.data)))
    return worst


MODULES = {
    "layers": [
        ("softplus/sigmoid/softmax", check_elementwise),
        ("linear", check_linear),
        ("conv3x3", check_conv),
        ("maxpool2x2", check_pool),
        ("softmax-xent", check_loss),
    ],
    "fmean": [("fmean layer (x, W, b, p)", check_fmean)],
    "gaussian": [("gaussian layer (x, W, b, log_sigma)", check_gaussian)],
    "hybrid": [("hybrid layers (incl. alpha_raw)", check_hybrid)],
}


def run(module: str = "all", cases: int = CASES, tol: float = TOL, log=print) -> bool:
    """Run the requested gradcheck suites; True when everything passes."""
    if module != "all" and module not in MODULES:
        raise ValueError(f"unknown gradcheck module {module!r}")
    if cases < 1:
        raise ValueError(f"gradcheck needs at least 1 case, got {cases}")
    checks = [(label, functools.partial(fn, cases), tol)
              for name in (MODULES if module == "all" else [module])
              for label, fn in MODULES[name]]
    if module == "all":
        checks.append(("full model (all aggregations)", check_full_model, 1e-4))
    ok = True
    t0 = time.perf_counter()
    for label, check, limit in checks:
        err = check()
        passed = err < limit
        ok &= passed
        log(f"gradcheck {label:<34} max rel err {err:.3e}  {'PASS' if passed else 'FAIL'}")
    log(f"gradcheck total {time.perf_counter() - t0:.1f}s")
    return ok
