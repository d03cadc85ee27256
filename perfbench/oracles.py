"""Independent correctness oracles.

Nothing here calls into econamp: every expected value is recomputed from
the raw generated inputs, so a defect in the program cannot also hide in
the check.
"""

import math

K_BOLTZMANN = 1.380649e-23
Q_ELECTRON = 1.602176634e-19

RESIDUAL_TOL = 1e-12  # amperes, the acceptance gate's base-node tolerance
REL_TOL = 1e-9


def check_stage(design, op, ss, gains):
    """Return None when a solved stage is right, else the reason it is wrong.

    `design` is the raw float tuple the stage was built from; `ss` and
    `gains` may be None when the stage stopped after the bias solve.
    """
    v_cc, r_b1, r_b2, r_l, i_es, _i_cs, alpha_n, temperature = design
    vt = K_BOLTZMANN * temperature / Q_ELECTRON
    v_th = v_cc * r_b2 / (r_b1 + r_b2)
    r_th = r_b1 * r_b2 / (r_b1 + r_b2)
    i_e = i_es * math.expm1(op.v_be / vt)
    residual = (v_th - op.v_be) / r_th - (1.0 - alpha_n) * i_e
    if not abs(residual) < RESIDUAL_TOL:
        return f"base-node residual {residual:.3e} A at v_be={op.v_be!r}"
    scale = max(abs(op.i_e), abs(op.i_b), abs(op.i_c))
    if not abs(op.i_e - (op.i_b + op.i_c)) <= 1e-12 * scale:
        return f"i_e={op.i_e!r} != i_b + i_c = {op.i_b + op.i_c!r}"
    if not math.isclose(op.i_c, alpha_n * i_e, rel_tol=REL_TOL):
        return f"i_c={op.i_c!r}, expected {alpha_n * i_e!r}"
    drop = alpha_n * i_e * r_l
    if not abs(op.v_ce - (v_cc - drop)) <= REL_TOL * (abs(v_cc) + abs(drop)):
        return f"v_ce={op.v_ce!r}, expected {v_cc - drop!r}"
    if op.saturated != (op.v_ce <= 0.0):
        return f"saturated={op.saturated!r} at v_ce={op.v_ce!r}"
    if ss is not None and not math.isclose(ss.slope_s, op.i_c / vt, rel_tol=1e-12):
        return f"slope_s={ss.slope_s!r}, expected i_c/Vt = {op.i_c / vt!r}"
    if gains is not None and not math.isclose(
        gains.voltage_gain, ss.slope_s * r_l, rel_tol=1e-12
    ):
        return f"voltage_gain={gains.voltage_gain!r} != slope_s * r_l"
    return None


def _line_fit(xs, ys):
    # Normal equations in exactly rounded sums.
    n = len(xs)
    sx, sy = math.fsum(xs), math.fsum(ys)
    sxx = math.fsum(x * x for x in xs)
    syy = math.fsum(y * y for y in ys)
    sxy = math.fsum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    a0 = (sxx * sy - sx * sxy) / det
    beta = (n * sxy - sx * sy) / det
    r_squared = (n * sxy - sx * sy) ** 2 / (det * (n * syy - sy * sy))
    return a0, beta, r_squared, n


def analyze_values(columns) -> dict:
    """Expected `[values]` block of `analyze` on a series with quantity_out."""
    _labels, inv, exp, inc, qty = columns
    inputs = [a + b for a, b in zip(inv, exp)]
    total_in = math.fsum(inputs)
    total_inc = math.fsum(inc)
    a0, beta, r_squared, n = _line_fit(inputs, inc)
    return {
        "beta_v": total_inc / total_in,
        "harrod_b": math.fsum(inv) / total_inc,
        "domar_sigma": total_inc / total_in,
        "mean_beta": math.fsum(c / x for c, x in zip(inc, inputs)) / len(inc),
        "beta_p": math.fsum(qty) / total_in,
        # the mean increments telescope to end-point differences
        "keynes_m": (inc[-1] - inc[0]) / (inv[-1] - inv[0]),
        "fit_a0": a0,
        "fit_beta": beta,
        "fit_r_squared": r_squared,
        "fit_n": n,
    }


def fit_values(xs, ys) -> dict:
    """Expected `[values]` block of `fit`."""
    a0, beta, r_squared, n = _line_fit(xs, ys)
    return {"a0": a0, "beta": beta, "r_squared": r_squared, "n": n}


def check_values(stdout: str, expected: dict):
    """Compare the `[values]` block of a report with `expected` (rel 1e-9)."""
    lines = stdout.splitlines()
    if "[values]" not in lines:
        return "no [values] block"
    got = {}
    for line in lines[lines.index("[values]") + 1:]:
        key, sep, value = line.partition("=")
        if not sep:
            return f"malformed [values] line {line!r}"
        got[key] = value
    if set(got) != set(expected):
        return f"[values] keys {sorted(got)} != {sorted(expected)}"
    for key, want in expected.items():
        try:
            value = float(got[key])
        except ValueError:
            return f"{key}={got[key]!r} is not a number"
        if isinstance(want, int):
            ok = value == want
        else:
            ok = math.isclose(value, want, rel_tol=REL_TOL)
        if not ok:
            return f"{key}={got[key]}, expected {want!r}"
    return None
