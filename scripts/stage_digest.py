"""One SHA-256 over every figure of seeded stage designs, to compare two trees.

    python3 scripts/stage_digest.py [--seed 1] [--count 20000]

Each design of perfbench's `inputs.DesignStream(seed)` is built, solved,
turned into small-signal parameters and gains, and checked against the
default operating limits, as a bias_sweep run takes it. Each design gives one
record line: every figure of each step that returned, as `name=repr(value)`,
and, when a step raised, the exception's type and message, which ends the
design. The script prints the SHA-256 of all record lines. Equal digests from
two trees mean that every figure and every refusal is bit-identical.

The script imports econamp from the `src/` of the tree it sits in, so a copy
of it placed in another checkout measures that checkout.
"""

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from econamp.amplifier import OperatingLimits, breakdown_check, stage_gain  # noqa: E402
from econamp.circuit import (  # noqa: E402
    AmplifierConfig,
    small_signal_params,
    solve_operating_point,
)
from econamp.devices import BjtParams  # noqa: E402

LIMITS = OperatingLimits()
OP_FIGURES = ("v_be", "i_b", "i_c", "i_e", "v_ce", "saturated")
SS_FIGURES = ("r_in", "g_out", "slope_s")
GAIN_FIGURES = ("beta_current", "voltage_gain", "power_out")


def design_stream(seed: int):
    """perfbench's seeded DesignStream, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.DesignStream(seed)


def record(design: tuple) -> str:
    """One design's figures up to the step that raised, then that step's error."""
    v_cc, r_b1, r_b2, r_l, i_es, i_cs, alpha_n, temperature = design
    fields = []
    try:
        device = BjtParams(i_es=i_es, i_cs=i_cs, alpha_n=alpha_n, temperature=temperature)
        config = AmplifierConfig(v_cc=v_cc, r_b1=r_b1, r_b2=r_b2, r_l=r_l, device=device)
        op = solve_operating_point(config)
        fields += [f"{name}={getattr(op, name)!r}" for name in OP_FIGURES]
        ss = small_signal_params(device, op)
        fields += [f"{name}={getattr(ss, name)!r}" for name in SS_FIGURES]
        gains = stage_gain(op, ss, r_l)
        fields += [f"{name}={getattr(gains, name)!r}" for name in GAIN_FIGURES]
        fields.append(f"violations={breakdown_check(op, LIMITS)!r}")
    except Exception as exc:  # an error is a figure of the design too
        fields.append(f"{type(exc).__name__}: {exc}")
    return " ".join(fields)


def digest(designs) -> str:
    """Hex SHA-256 of the designs' record lines, each ended by a newline."""
    sha = hashlib.sha256()
    for design in designs:
        sha.update((record(design) + "\n").encode())
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="the DesignStream seed")
    parser.add_argument("--count", type=int, default=20000, help="the number of designs")
    args = parser.parse_args(argv)
    print(digest(design_stream(args.seed).take(args.count)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
