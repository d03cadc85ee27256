"""The `simulate` subcommand: the config reader and the stage report.

Only `simulate` imports this module, and with it the circuit, device and
amplifier layers, but not dataclasses; `econamp.cli.parse_config` loads it on
first use.
"""

from .amplifier import OperatingLimits, breakdown_check, stage_gain
from .circuit import AmplifierConfig, small_signal_params, solve_operating_point
from .cli import InputFormatError, _fmt, _read_text, _rows, table, values_block
from .devices import BjtParams

# the three types' fields but `device`, each with whether its constructor
# gives it a default: the config keys, in order
CONFIG_FIELDS = [
    (cls, name, index >= len(cls._fields) - len(cls.__init__.__defaults__ or ()))
    for cls in (AmplifierConfig, BjtParams, OperatingLimits)
    for index, name in enumerate(cls._fields) if name != "device"
]


def parse_config(text: str, source: str = "<config>") -> tuple[AmplifierConfig, OperatingLimits]:
    """The stage and its breakdown limits from `key = value` lines with # comments.

    The keys are the fields of AmplifierConfig, BjtParams and OperatingLimits
    but `device`. Those without a constructor default are required, except i_cs,
    which defaults to i_es. Each error is an InputFormatError naming `source`.
    """
    owner = {name: cls for cls, name, _ in CONFIG_FIELDS}
    given = {cls: {} for cls, _, _ in CONFIG_FIELDS}  # each type's keyword arguments
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFormatError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in owner:
            raise InputFormatError(f"{source}:{lineno}: unknown key {key!r}")
        values = given[owner[key]]
        if key in values:
            raise InputFormatError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(rhs.strip())
        except ValueError:
            raise InputFormatError(
                f"{source}:{lineno}: value for {key!r} is not a number: {rhs.strip()!r}"
            ) from None
    missing = [
        name for cls, name, has_default in CONFIG_FIELDS
        if not has_default and name != "i_cs" and name not in given[cls]
    ]
    if missing:
        raise InputFormatError(f"{source}: missing required keys: {', '.join(missing)}")
    device = BjtParams(**{"i_cs": given[BjtParams]["i_es"], **given[BjtParams]})
    config = AmplifierConfig(device=device, **given[AmplifierConfig])
    return config, OperatingLimits(**given[OperatingLimits])


def report(path: str) -> str:
    """The `simulate` report of the config file at `path`."""
    config, limits = parse_config(_read_text(path), source=path)
    op = solve_operating_point(config)
    ss = gains = None  # the small-signal model holds only in the active region
    if not op.saturated:
        ss = small_signal_params(config.device, op)
        gains = stage_gain(op, ss, config.r_l)
    violations = breakdown_check(op, limits)
    op_rows = _rows(op, v_be="V", i_b="A", i_c="A", i_e="A", v_ce="V")
    ss_rows = _rows(ss, r_in="ohm", g_out="S", slope_s="S")
    gain_rows = _rows(gains, beta_current="", voltage_gain="", power_out="W")
    figures = op_rows + ss_rows + gain_rows
    warnings = []
    if op.saturated:
        warnings.append(f"saturation: v_ce = {_fmt(op.v_ce)} V <= 0, device out of active region")
    if violations:
        warnings.append("breakdown: " + ", ".join(violations))
    owners = {AmplifierConfig: config, BjtParams: config.device, OperatingLimits: limits}
    lines = [
        "config:",
        *(f"{name} = {getattr(owners[cls], name)!r}" for cls, name, _ in CONFIG_FIELDS),
        "",
        "operating point:", *table(op_rows, width=5), "",  # width as in the shipped format
        "small signal:", *table(ss_rows), "",
        "stage gains:", *table(gain_rows), "",
        "warnings:", *(f"  {w}" for w in warnings or ["none"]), "",
        *values_block(
            figures + [("saturated", op.saturated, ""), ("healthy", not violations, "")]
        ),
    ]
    return "\n".join(lines)
