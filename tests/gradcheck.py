"""Finite-difference gradient checking for the autodiff tests, and the
sum-to-scalar op their losses are built with."""

import numpy as np

from stemsep import autodiff as ad


def tsum(a):
    """The sum of a tensor's entries, as a graph node."""
    out_data = np.asarray(a.data.sum())

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.shape))

    return ad._make(out_data, (a,), backward)


def grad_check(build_loss, params, step=1e-3, tol=1e-4, rng=None, max_entries=6,
               shrink_retries=0):
    """Compare analytic gradients against central finite differences.

    build_loss rebuilds the graph from scratch and returns the scalar loss
    tensor. params is an iterable of (name, Tensor). For each parameter up
    to max_entries coordinates are probed (all of them when the tensor is
    small). Returns a dict with per-parameter and overall max relative
    error plus a pass flag.

    shrink_retries: for piecewise-smooth graphs (rectifiers), a central
    difference can straddle a kink at any fixed step. A coordinate that
    misses the tolerance is re-probed up to this many times with the step
    shrunk 10x each time, and the best agreement is kept.
    """
    rng = rng or np.random.default_rng(0)
    params = list(params)

    for _, p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for name, p in params}

    report = {"per_param": {}, "max_rel_err": 0.0}
    for name, p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_entries:
            idxs = np.arange(n)
        else:
            idxs = rng.choice(n, size=max_entries, replace=False)
        worst = 0.0
        for i in idxs:
            v = flat[i]
            a = analytic[name].reshape(-1)[i]
            best = np.inf
            cur = step
            for _ in range(1 + shrink_retries):
                h = cur * max(1.0, abs(v))
                flat[i] = v + h
                lp = float(build_loss().data)
                flat[i] = v - h
                lm = float(build_loss().data)
                flat[i] = v
                numeric = (lp - lm) / (2.0 * h)
                denom = max(abs(a), abs(numeric), 1e-8)
                best = min(best, abs(a - numeric) / denom)
                if best < tol:
                    break
                cur /= 10.0
            worst = max(worst, best)
        report["per_param"][name] = worst
        report["max_rel_err"] = max(report["max_rel_err"], worst)
    report["passed"] = report["max_rel_err"] < tol
    report["tol"] = tol
    return report
