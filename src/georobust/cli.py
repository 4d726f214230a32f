"""Command-line interface.

Subcommands: build, sweep-beta, sweep-grid, report-table1, check-src.
Exit codes: 0 success, 2 solver failure (a certificate failed or the gate lies
outside the family's reachable class), 3 numerical invariant violation, 4 bad
arguments, configuration, or output path.

Sweep options may come from a config file (--config): `key = value` lines,
`#` comments, comma-separated lists. Explicit command-line flags win over the
file.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import ConfigError, InvariantError, SerializationError, SolverError
from .gates import FAMILIES, NAMED_GATES, _certificate
from .pulses import schedule_to_text
from .sweep import (
    SweepConfig,
    check_src_report,
    delta_rows,
    deltas_to_csv,
    report_table1,
    rows_to_csv,
    run_sweep,
    sweep_beta,
    write_text,
)

_CONFIG_KEYS = {
    "families", "gate", "beta_min", "beta_max", "beta_points",
    "gammas", "out",
}
_CONFIG_ALIASES = {"family": "families", "gamma": "gammas"}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" for an option; read a negative number in
        # exponent form as a value, like "-0.1"
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # argparse would exit(2); route to exit code 4 instead
        raise ConfigError(message)


def _split_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def load_config_file(path: str) -> dict:
    """Parse a `key = value` config file into SweepConfig keyword arguments."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = _CONFIG_ALIASES.get(key.strip(), key.strip())
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key == "families":
                values[key] = tuple(_split_list(val))
            elif key == "gammas":
                values[key] = tuple(float(tok) for tok in _split_list(val))
            elif key in ("beta_min", "beta_max"):
                values[key] = float(val)
            elif key == "beta_points":
                values[key] = int(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _sweep_config(args) -> SweepConfig:
    kwargs = load_config_file(args.config) if args.config else {}
    if args.families is not None:
        kwargs["families"] = tuple(_split_list(args.families))
    if args.gate is not None:
        kwargs["gate"] = args.gate
    if args.beta_min is not None:
        kwargs["beta_min"] = args.beta_min
    if args.beta_max is not None:
        kwargs["beta_max"] = args.beta_max
    if args.beta_points is not None:
        kwargs["beta_points"] = args.beta_points
    if getattr(args, "gammas", None) is not None:
        try:
            kwargs["gammas"] = tuple(float(tok) for tok in _split_list(args.gammas))
        except ValueError as exc:
            raise ConfigError(f"bad --gamma value: {exc}") from exc
    if args.out is not None:
        kwargs["out"] = args.out
    return SweepConfig(**kwargs)


def _add_sweep_flags(parser: argparse.ArgumentParser, with_gammas: bool) -> None:
    parser.add_argument(
        "--families", "--family", dest="families", metavar="LIST",
        help=f"comma-separated families (default all of {','.join(FAMILIES)})",
    )
    parser.add_argument("--gate", choices=sorted(NAMED_GATES), help="named target gate")
    parser.add_argument("--beta-min", type=float, dest="beta_min")
    parser.add_argument("--beta-max", type=float, dest="beta_max")
    parser.add_argument("--beta-points", type=int, dest="beta_points")
    if with_gammas:
        parser.add_argument(
            "--gamma", "--gammas", dest="gammas", metavar="LIST",
            help="comma-separated decoherence rates (sets both relaxation and dephasing)",
        )
    parser.add_argument("--out", help="output CSV path (stdout when omitted)")
    parser.add_argument("--config", help="config file with key = value lines")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="georobust", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p_build = sub.add_parser("build", help="solve, certify and print one pulse schedule")
    p_build.add_argument("--family", required=True, choices=FAMILIES)
    p_build.add_argument("--gate", default="not", choices=sorted(NAMED_GATES))
    p_build.add_argument("--out", help="write the schedule here (stdout when omitted)")
    p_build.set_defaults(func=cmd_build)

    p_beta = sub.add_parser("sweep-beta", help="closed-system fidelity vs control error")
    _add_sweep_flags(p_beta, with_gammas=False)
    p_beta.set_defaults(func=cmd_sweep_beta)

    p_grid = sub.add_parser("sweep-grid", help="fidelity on a (beta, gamma) grid")
    _add_sweep_flags(p_grid, with_gammas=True)
    p_grid.set_defaults(func=cmd_sweep_grid)

    p_table = sub.add_parser("report-table1", help="gate times and error-scaling laws")
    p_table.set_defaults(func=cmd_report_table1)

    p_src = sub.add_parser("check-src", help="closed-form vs segment-sum SRC residuals")
    p_src.add_argument("--families", "--family", dest="families", metavar="LIST")
    p_src.add_argument("--gate", default="not", choices=sorted(NAMED_GATES))
    p_src.set_defaults(func=cmd_check_src)

    return parser


def cmd_build(args) -> int:
    spec = NAMED_GATES[args.gate]
    schedule, sol, _ = _certificate(args.family, spec)
    print(
        f"family={sol.family} gate={args.gate} converged={sol.converged}\n"
        f"phases={[round(p, 12) for p in sol.phases]}\n"
        f"residual_gate={sol.residual_gate:.3e} residual_src={sol.residual_src:.3e}",
        file=sys.stderr,
    )
    if not sol.converged:
        raise SolverError(
            f"{args.family} phase law failed its certificate for gate {args.gate!r}: "
            f"residual_gate={sol.residual_gate:.3e}, residual_src={sol.residual_src:.3e}"
        )
    text = schedule_to_text(schedule)
    if args.out:
        write_text(args.out, text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep_beta(args) -> int:
    config = _sweep_config(args)
    csv_text = rows_to_csv(sweep_beta(config))
    if config.out:
        write_text(config.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_sweep_grid(args) -> int:
    config = _sweep_config(args)
    if not config.out:
        raise ConfigError("sweep-grid requires --out (it also writes <out>.delta.csv)")
    rows = run_sweep(config)
    write_text(config.out, rows_to_csv(rows))
    write_text(config.out + ".delta.csv", deltas_to_csv(delta_rows(rows)))
    return 0


def cmd_report_table1(args) -> int:
    sys.stdout.write(report_table1())
    return 0


def cmd_check_src(args) -> int:
    families = tuple(_split_list(args.families)) if args.families is not None else FAMILIES
    text, ok = check_src_report(families, gate=args.gate)
    sys.stdout.write(text)
    return 0 if ok else 2


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except (ConfigError, SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
