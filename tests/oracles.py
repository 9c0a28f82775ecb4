"""Independent direct-summation oracles.

Deliberately written with plain Python loops and math, sharing no code
with the package engine, so they can validate it.
"""

import math


def f_oracle(spec, t):
    """Evaluate a generator JSON spec at t > 0."""
    kind = spec["kind"]
    if kind == "tv":
        return abs(t - 1.0)
    if kind == "klplus":
        return max(t * math.log(t), 0.0)
    if kind == "logplus":
        return max(math.log(t), 0.0)
    if kind == "power":
        return t ** spec["alpha"]
    if kind == "linear":
        return spec.get("a", 0.0) * t + spec.get("b", 0.0)
    if kind == "scaled":
        return spec["lambda"] * f_oracle(spec["inner"], t)
    if kind == "adjoint":
        return t * f_oracle(spec["inner"], 1.0 / t)
    raise ValueError(kind)


def adjoint_spec(spec):
    return {"kind": "adjoint", "inner": spec}


def classical_oracle(weights, f, p, q):
    return sum(
        q[j] * f_oracle(f, p[j] / q[j]) * weights[j] for j in range(len(weights))
    )


def mixed_oracle(weights, fs, ps, qs):
    """Definition 2.1 by direct per-atom products."""
    n = len(fs)
    total = 0.0
    for j in range(len(weights)):
        prod = 1.0
        for i in range(n):
            prod *= (qs[i][j] * f_oracle(fs[i], ps[i][j] / qs[i][j])) ** (1.0 / n)
        total += prod * weights[j]
    return total


def k_form_oracle(weights, fs, ps, qs, k):
    n = len(fs)
    total = 0.0
    for j in range(len(weights)):
        prod = 1.0
        for i in range(n):
            if i < k:
                w = qs[i][j] * f_oracle(fs[i], ps[i][j] / qs[i][j])
            else:
                w = ps[i][j] * f_oracle(adjoint_spec(fs[i]), qs[i][j] / ps[i][j])
            prod *= w ** (1.0 / n)
        total += prod * weights[j]
    return total


def ith_oracle(weights, f1, f2, p1, q1, p2, q2, i, n):
    total = 0.0
    for j in range(len(weights)):
        w1 = q1[j] * f_oracle(f1, p1[j] / q1[j])
        w2 = q2[j] * f_oracle(f2, p2[j] / q2[j])
        total += w1 ** (i / n) * w2 ** ((n - i) / n) * weights[j]
    return total
