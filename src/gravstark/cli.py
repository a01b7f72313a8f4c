"""Command-line front end.

Subcommands: constants, separate, spectrum, split, lifetime, stability,
frame-check, frame-diff.  Mass configurations are taken either as absolute
kilograms or as dimensionless ratios against the CODATA reference masses;
``--config`` points at a JSON file whose keys match the long flag names
(flags override the file).  Exit codes: 0 success, 2 configuration error,
3 numerical failure.  Identical inputs produce byte-identical output.

The numerical routes (``oracle``, ``frames``) are imported inside the
handlers, or by ``degenerate_pt``, only when a call needs them, so the
scalar subcommands load no numpy; ``json`` loads only for JSON output or a
``--config`` file.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import IO

from .constants import atomic_scale, codata_defaults
from .errors import EigensolverError, GravstarkError, representable
from .ionization import compare_lifetimes
from .masses import MassModel, derive_composites, model_with_asymmetry
from .parabolic import degenerate_pt, evaluate_levels, splitting_table
from .separation import FieldSpec, frame_discrepancy, separate_gravitational
from .tables import emit_record, emit_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_MASS_FLAGS = ("m_e", "m_p", "mbar_e", "mbar_p")


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e-3``, ``-inf`` and ``-nan`` as values, as it does ``-1`` and
    ``-.5``: argparse's own pattern leaves them out and then takes them for
    unknown flags.  No flag of this program looks like a number."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d|\.\d|inf|nan)", re.IGNORECASE)


def _add_mass_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("mass configuration")
    for name in _MASS_FLAGS:
        flag = name.replace("_", "-")
        group.add_argument(f"--{flag}", type=float, help=f"{name} in kg")
        group.add_argument(
            f"--{flag}-ratio", type=float, help=f"{name} as a ratio to its CODATA value"
        )
    group.add_argument(
        "--equivalence",
        action="store_true",
        help="force gravitational masses equal to the inertial ones",
    )
    group.add_argument(
        "--script-m-ratio",
        type=float,
        help="set the mass asymmetry directly, as a ratio to the CODATA electron mass",
    )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", help="output path (default: standard output)")
    parser.add_argument("--config", help="JSON config file; flags override its keys")


def resolve_mass_model(args: argparse.Namespace) -> MassModel:
    """Mass configuration from flags, with CODATA defaults."""
    consts = codata_defaults()
    reference = {
        "m_e": consts.m_e_ref,
        "m_p": consts.m_p_ref,
        "mbar_e": consts.m_e_ref,
        "mbar_p": consts.m_p_ref,
    }
    explicit_grav = any(
        getattr(args, f"{name}", None) is not None
        or getattr(args, f"{name}_ratio", None) is not None
        for name in ("mbar_e", "mbar_p")
    )
    if args.script_m_ratio is not None and (args.equivalence or explicit_grav):
        raise ValueError("--script-m-ratio conflicts with other gravitational-mass flags")
    if args.equivalence and explicit_grav:
        raise ValueError("--equivalence conflicts with explicit gravitational masses")

    if args.script_m_ratio is not None:
        return model_with_asymmetry(args.script_m_ratio * consts.m_e_ref)

    values = {}
    for name in _MASS_FLAGS:
        absolute = getattr(args, name)
        ratio = getattr(args, f"{name}_ratio")
        if absolute is not None:
            values[name] = absolute
        elif ratio is not None:
            values[name] = representable(f"{name} from its ratio", ratio * reference[name], ratio)
        else:
            values[name] = reference[name]
    if args.equivalence:
        values["mbar_e"] = values["m_e"]
        values["mbar_p"] = values["m_p"]
    return MassModel(**values)


def _cmd_constants(args: argparse.Namespace, sink: IO[str]) -> int:
    consts = codata_defaults()
    scale = atomic_scale(consts, consts.m_e_ref)
    rows = [
        {"quantity": "hbar", "value": consts.hbar, "unit": "J s"},
        {"quantity": "c", "value": consts.c, "unit": "m/s"},
        {"quantity": "alpha", "value": consts.alpha, "unit": "1"},
        {"quantity": "e_charge", "value": consts.e_charge, "unit": "C"},
        {"quantity": "eps0", "value": consts.eps0, "unit": "F/m"},
        {"quantity": "m_e_ref", "value": consts.m_e_ref, "unit": "kg"},
        {"quantity": "m_p_ref", "value": consts.m_p_ref, "unit": "kg"},
        {"quantity": "bohr_radius", "value": scale.length_bohr, "unit": "m"},
        {"quantity": "hartree_energy", "value": scale.energy_hartree, "unit": "J"},
    ]
    emit_table(rows, args.format, sink)
    return EXIT_OK


def _cmd_separate(args: argparse.Namespace, sink: IO[str]) -> int:
    model = resolve_mass_model(args)
    ham = separate_gravitational(model, FieldSpec(magnitude=args.g))
    emit_record(
        {
            "cm_kinetic_mass_kg": ham.cm_kinetic_mass,
            "cm_coupling_N": ham.cm_coupling,
            "internal_kinetic_mass_kg": ham.internal_kinetic_mass,
            "internal_coupling_N": ham.internal_coupling,
            "coulomb_present": ham.coulomb_present,
        },
        args.format,
        sink,
    )
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace, sink: IO[str]) -> int:
    from .oracle import radial_eigensolve

    energies = radial_eigensolve(args.spacing, args.r_max, args.l, args.count)
    rows = []
    for n, energy in enumerate(energies, start=args.l + 1):
        bohr = -1.0 / (2.0 * n**2)
        rows.append(
            {
                "n": n,
                "l": args.l,
                "energy_bohr_hartree": bohr,
                "energy_oracle_hartree": energy,
                "abs_error_hartree": abs(energy - bohr),
            }
        )
    emit_table(rows, args.format, sink)
    return EXIT_OK


def _cmd_split(args: argparse.Namespace, sink: IO[str]) -> int:
    model = resolve_mass_model(args)
    comp = derive_composites(model)
    field = FieldSpec(magnitude=args.g)
    consts = codata_defaults()

    if args.per_state:
        rows = [
            {
                "n": lv.n,
                "n1": lv.n1,
                "n2": lv.n2,
                "m": lv.m,
                "k": lv.k,
                "E0_J": lv.energy_unperturbed,
                "shift_J": lv.shift,
                "E_J": lv.energy_unperturbed + lv.shift,
            }
            for lv in evaluate_levels(args.n, comp, field, consts)
        ]
        emit_table(rows, args.format, sink)
        return EXIT_OK

    table = splitting_table(args.n, comp, field, consts)
    rows = [
        {
            "n": table.n,
            "k": sub.k,
            "multiplicity": sub.multiplicity,
            "E0_J": table.unperturbed,
            "shift_J": sub.shift,
            "E_J": sub.energy,
        }
        for sub in table.sublevels
    ]
    if not args.no_oracle:
        oracle = degenerate_pt(args.n, comp, field, consts)
        for row, shift in zip(rows, _match_oracle(rows, oracle, table.spacing)):
            row["shift_oracle_J"] = shift
    emit_table(rows, args.format, sink)
    return EXIT_OK


def _match_oracle(rows, oracle, spacing: float) -> list[float]:
    """Align oracle (shift, multiplicity) groups with the analytic sublevels."""
    analytic_order = sorted(range(len(rows)), key=lambda i: rows[i]["shift_J"])
    expanded = [shift for shift, _ in oracle]
    out = [0.0] * len(rows)
    if len(expanded) != len(rows):
        if spacing != 0.0:
            raise EigensolverError(f"oracle found {len(expanded)} shifts for {len(rows)} sublevels")
        # Zero-field degeneracy: a single oracle group covers every sublevel.
        for i in analytic_order:
            out[i] = expanded[0] if expanded else 0.0
        return out
    for position, row_index in enumerate(analytic_order):
        out[row_index] = expanded[position]
    return out


def _cmd_lifetime(args: argparse.Namespace, sink: IO[str]) -> int:
    model = resolve_mass_model(args)
    comp = derive_composites(model)
    report = compare_lifetimes(comp, FieldSpec(magnitude=args.g), codata_defaults())
    emit_record(
        {
            "stable": report.stable,
            "mass_asymmetry_kg": report.mass_asymmetry,
            "g_m_per_s2": report.field_magnitude,
            "F_atomic": report.internal_force_atomic,
            "exponent_closed_form": report.closed_form_exponent,
            "log10_tau_closed_form_s": report.log10_tau_closed_form,
            "wkb_exponent": report.wkb_exponent,
            "log10_tau_wkb_s": report.log10_tau_wkb,
            "exponent_ratio": report.exponent_ratio,
            "within_order_unity": report.within_order_unity,
        },
        args.format,
        sink,
    )
    return EXIT_OK


def _cmd_stability(args: argparse.Namespace, sink: IO[str]) -> int:
    from .oracle import stabilization_scan

    boxes = [float(piece) for piece in args.boxes.split(",")]
    points = stabilization_scan(
        boxes, args.f_atomic, (args.window[0], args.window[1]), spacing=args.spacing
    )
    rows = [
        {
            "box_bohr": point.box_size,
            "energy_hartree": point.energy,
            "level_spacing_hartree": point.level_spacing,
            "spacing_times_box": point.level_spacing * point.box_size,
        }
        for point in points
    ]
    emit_table(rows, args.format, sink)
    return EXIT_OK


def _cmd_frame_check(args: argparse.Namespace, sink: IO[str]) -> int:
    from .frames import frame_equivalence_check

    result = frame_equivalence_check(
        acceleration=args.a,
        total_time=args.time,
        grid_points=args.grid,
        steps=args.steps,
    )
    emit_record(
        {
            "fidelity": result.fidelity,
            "max_pointwise_error": result.max_pointwise_error,
            "grid": result.grid,
            "steps": result.steps,
        },
        args.format,
        sink,
    )
    return EXIT_OK


def _cmd_frame_diff(args: argparse.Namespace, sink: IO[str]) -> int:
    model = resolve_mass_model(args)
    record = frame_discrepancy(model, args.a_magnitude)
    comp = derive_composites(model)
    emit_record(
        {
            "cm_mass_ratio": record.cm_mass_ratio,
            "internal_coupling_difference_N": record.internal_coupling_difference,
            "mass_asymmetry_kg": comp.mass_asymmetry,
        },
        args.format,
        sink,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gravstark",
        description=(
            "Level structure, stability, and accelerated-frame contrast of a "
            "two-body Coulomb system with independent inertial and gravitational masses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="dump the frozen physical constants")
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("separate", help="CM/internal coupling coefficients in a uniform field")
    _add_mass_arguments(p)
    p.add_argument("--g", type=float, default=9.8, help="field magnitude in m/s^2")
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_separate)

    p = sub.add_parser("spectrum", help="field-free levels against the grid eigensolver")
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--spacing", type=float, default=0.01, help="grid spacing in Bohr")
    p.add_argument("--r-max", type=float, default=80.0, help="box size in Bohr")
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("split", help="sublevel table, closed form and oracle side by side")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-oracle", action="store_true", help="skip the dense diagonalization")
    p.add_argument(
        "--per-state",
        action="store_true",
        help="emit one row per parabolic state instead of per sublevel",
    )
    _add_mass_arguments(p)
    p.add_argument("--g", type=float, default=9.8)
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("lifetime", help="closed-form and WKB lifetime report")
    _add_mass_arguments(p)
    p.add_argument("--g", type=float, default=9.8)
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_lifetime)

    p = sub.add_parser("stability", help="box-size stabilization scan of the half-axis model")
    p.add_argument("--f-atomic", type=float, default=1e-3, help="internal force in atomic units")
    p.add_argument("--boxes", default="50,100,200", help="comma-separated box sizes in Bohr")
    p.add_argument(
        "--window",
        type=float,
        nargs=2,
        default=(-0.02, 0.02),
        metavar=("LO", "HI"),
        help="energy window in Hartree",
    )
    p.add_argument("--spacing", type=float, default=0.05)
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_stability)

    p = sub.add_parser("frame-check", help="frame map versus propagation consistency check")
    p.add_argument("--a", type=float, default=1.0, help="frame acceleration (dimensionless units)")
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=2048)
    p.add_argument("--steps", type=int, default=4096)
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_frame_check)

    p = sub.add_parser("frame-diff", help="field versus accelerated-frame coupling contrast")
    _add_mass_arguments(p)
    p.add_argument("--a-magnitude", type=float, default=9.8, help="magnitude in m/s^2")
    _add_output_arguments(p)
    p.set_defaults(handler=_cmd_frame_diff)

    return parser


def _merge_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flags placed before the explicit ones.

    Config keys use the flag spelling with underscores; explicit flags win
    because they come later.  Unknown keys fail in argparse like any unknown
    flag would.
    """
    if "--config" not in argv:
        return argv
    index = argv.index("--config")
    if index + 1 >= len(argv) or not argv or argv[0].startswith("-"):
        return argv  # let argparse report the problem
    import json  # only a --config call reads JSON

    with open(argv[index + 1], "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    expanded: list[str] = []
    for key, value in config.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                expanded.append(flag)
        elif isinstance(value, (list, tuple)):
            expanded.append(flag)
            expanded.extend(str(item) for item in value)
        else:
            expanded.extend([flag, str(value)])
    return [argv[0], *expanded, *argv[1:]]


def run(argv: list[str]) -> int:
    """Parse ``argv`` (without the program name), dispatch, and return an exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_config_file(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    # A malformed config file raises json.JSONDecodeError, a ValueError.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as sink:
                return args.handler(args, sink)
        return args.handler(args, sys.stdout)
    # OSError: an --output path that cannot be opened; MemoryError: a grid
    # too large to allocate.
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GravstarkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
