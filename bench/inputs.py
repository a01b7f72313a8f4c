"""Seeded input generator shared by every workload.

Everything a task needs is drawn here from ``random.Random(seed)``; the
programs under test receive only the generated values (CLI flags or the
resolved masses), never the seed.  The benchmark resolves each mass
configuration itself, following the documented CLI rules (an absolute value
beats a ratio, a ratio multiplies the CODATA value, ``--equivalence`` copies
the inertial masses, ``--script-m-ratio`` fixes the asymmetry), so the checks
do not depend on the program's own resolution.

Tasks come in blocks of eight.  Each block holds every mass-configuration
kind once, in a seeded order, and one ``g = 0`` task, so the share of
zero-asymmetry tasks and the cost mix are the same for every seed while the
values themselves change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from checks import M_E_REF, M_P_REF, composites, force_atomic

MASS_KINDS = (
    "absolute",         # all four masses in kg
    "grav-ratios",      # gravitational ratios, inertial masses at CODATA
    "inertial-ratios",  # inertial ratios != 1 next to a gravitational ratio
    "mixed",            # absolute inertial proton mass with ratios elsewhere
    "equivalence",      # --equivalence with rescaled inertial masses: A = 0
    "script-m",         # --script-m-ratio
    "zero-grav",        # one gravitational mass exactly zero
    "negative-grav",    # negative gravitational masses
)
BLOCK = len(MASS_KINDS)

SUBCOMMANDS = (
    "constants", "separate", "spectrum", "split",
    "lifetime", "stability", "frame-check", "frame-diff",
)

# The CLI golden invocations (tests/golden); stdout must match byte for byte.
GOLDEN_ARGS = {
    "constants.csv": ("constants", "--format", "csv"),
    "separate.json": ("separate", "--mbar-e-ratio", "1.1", "--g", "9.8", "--format", "json"),
    "spectrum.csv": ("spectrum", "--l", "0", "--count", "3", "--spacing", "0.01",
                     "--r-max", "80", "--format", "csv"),
    "split.csv": ("split", "--n", "2", "--mbar-e-ratio", "1.1", "--g", "9.8", "--format", "csv"),
    "split_per_state.csv": ("split", "--n", "2", "--mbar-e-ratio", "1.1", "--g", "9.8",
                            "--per-state", "--format", "csv"),
    "lifetime.json": ("lifetime", "--script-m-ratio", "1.0", "--g", "9.8", "--format", "json"),
    "stability.csv": ("stability", "--f-atomic", "0.001", "--boxes", "40,60,80",
                      "--window", "-0.02", "0.02", "--spacing", "0.05", "--format", "csv"),
    "frame_check.json": ("frame-check", "--a", "1.0", "--time", "0.5", "--grid", "512",
                         "--steps", "256", "--format", "json"),
    "frame_diff.json": ("frame-diff", "--mbar-e-ratio", "0.0", "--a-magnitude", "9.8",
                        "--format", "json"),
}
GOLDEN_BY_SUBCOMMAND = {
    sub: tuple(name for name, args in GOLDEN_ARGS.items() if args[0] == sub)
    for sub in SUBCOMMANDS
}

ORACLE_SPACING = 0.02             # default grid of gravstark's degenerate_pt
SCAN_SPACING = 0.04               # Bohr, instability-frames scan grid
SCAN_WINDOW = (-0.02, 0.02)       # Hartree, continuum window for F > 0
FORCE_RANGE = (5e-4, 1e-2)        # atomic units, instability-frames forces
BOX_RANGE = (400.0, 800.0)        # Bohr, largest box of a scan
FRAME_GRID, FRAME_STEPS = 2048, 4096


@dataclass(frozen=True)
class MassConfig:
    kind: str
    flags: tuple[str, ...]
    m_e: float
    m_p: float
    mbar_e: float
    mbar_p: float

    def masses(self) -> dict:
        return {"m_e": self.m_e, "m_p": self.m_p, "mbar_e": self.mbar_e, "mbar_p": self.mbar_p}

    @property
    def asymmetry(self) -> float:
        return composites(self.masses())["A"]


@dataclass(frozen=True)
class Task:
    index: int
    round: int          # tasks of one round share traced/untraced status
    group: str          # cost class used to compare traced and untraced tasks
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _mass_config(kind: str, rng: random.Random) -> MassConfig:
    ref = {"m_e": M_E_REF, "m_p": M_P_REF, "mbar_e": M_E_REF, "mbar_p": M_P_REF}
    absolute: dict[str, float] = {}
    ratio: dict[str, float] = {}
    equivalence = False
    if kind == "absolute":
        for name in ref:
            absolute[name] = ref[name] * rng.uniform(0.5, 2.0)
    elif kind == "grav-ratios":
        ratio["mbar_e"] = rng.uniform(0.5, 1.5)
        ratio["mbar_p"] = rng.uniform(0.5, 1.5)
    elif kind == "inertial-ratios":
        ratio["m_e"] = rng.uniform(0.5, 2.0)
        ratio["m_p"] = rng.uniform(0.5, 2.0)
        ratio["mbar_e"] = rng.uniform(0.5, 1.5)
    elif kind == "mixed":
        absolute["m_p"] = M_P_REF * rng.uniform(0.5, 2.0)
        ratio["m_e"] = rng.uniform(0.5, 2.0)
        ratio["mbar_p"] = rng.uniform(0.5, 1.5)
    elif kind == "equivalence":
        ratio["m_e"] = rng.uniform(0.5, 2.0)
        ratio["m_p"] = rng.uniform(0.5, 2.0)
        equivalence = True
    elif kind == "script-m":
        r = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        total = M_E_REF + M_P_REF
        mbar_e = (M_P_REF * M_E_REF - r * M_E_REF * total) / M_P_REF
        return MassConfig(kind, ("--script-m-ratio", _num(r)), M_E_REF, M_P_REF, mbar_e, M_P_REF)
    elif kind == "zero-grav":
        # One gravitational mass is zero; both at once would make the total
        # gravitational mass zero, where frame-diff's ratio is undefined.
        zero, other = rng.choice((("mbar_e", "mbar_p"), ("mbar_p", "mbar_e")))
        ratio[zero] = 0.0
        ratio[other] = rng.uniform(0.5, 1.5)
    elif kind == "negative-grav":
        ratio["mbar_e"] = -rng.uniform(0.1, 3.0)
        ratio["mbar_p"] = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
    else:
        raise ValueError(f"unknown mass kind {kind!r}")

    values = {}
    flags: list[str] = []
    for name in ("m_e", "m_p", "mbar_e", "mbar_p"):
        flag = "--" + name.replace("_", "-")
        if name in absolute:
            values[name] = absolute[name]
            flags += [flag, _num(absolute[name])]
        elif name in ratio:
            values[name] = ratio[name] * ref[name]
            flags += [flag + "-ratio", _num(ratio[name])]
        else:
            values[name] = ref[name]
    if equivalence:
        values["mbar_e"], values["mbar_p"] = values["m_e"], values["m_p"]
        flags.append("--equivalence")
    return MassConfig(kind, tuple(flags), **values)


def _blocks(rng: random.Random):
    """Endless (position, mass kind, zero-field flag) triples, one block of eight at a time.

    The zero field never lands on the ``equivalence`` kind, so every block
    holds exactly two tasks whose coupling A g vanishes.
    """
    position = 0
    while True:
        kinds = list(MASS_KINDS)
        rng.shuffle(kinds)
        zero_field = rng.choice([j for j, kind in enumerate(kinds) if kind != "equivalence"])
        for j, kind in enumerate(kinds):
            yield position, j, kind, j == zero_field
            position += 1


def _field(rng: random.Random, zero: bool) -> float:
    return 0.0 if zero else 10.0 ** rng.uniform(-1.0, 3.0)


def split_sweep_tasks(seed: int, count: int) -> list[Task]:
    """One seeded mass configuration and field per task; the task runs n = 1..4."""
    rng = random.Random(f"split-sweep/{seed}")
    out = []
    for i, _, kind, zero in _blocks(rng):
        if i == count:
            break
        out.append(Task(i, i, "task", {"masses": _mass_config(kind, rng), "g": _field(rng, zero)}))
    return out


def _stratified(rng: random.Random, size: int) -> list[float]:
    """One uniform draw from each of ``size`` equal strata of [0, 1), in seeded order."""
    strata = list(range(size))
    rng.shuffle(strata)
    return [(s + rng.random()) / size for s in strata]


def instability_tasks(seed: int, count: int) -> list[Task]:
    """A seeded force, scan boxes, window and frame acceleration per task.

    Scan cost grows like L^2 in the largest box and falls with the force, so
    within each block of eight the six tasks with a force draw one stratum
    each of ``BOX_RANGE`` and ``FORCE_RANGE`` (log scale), the larger boxes
    going with the stronger forces.  Every block then costs about the same,
    for any seed.  The two tasks whose asymmetry or field is zero run at
    F = 0 with a window around a bound level, where the scan must show no
    drift.
    """
    rng = random.Random(f"instability-frames/{seed}")
    out: list[Task] = []
    block = []
    for i, j, kind, zero in _blocks(rng):
        if i == count:
            break
        block.append((_mass_config(kind, rng), zero))
        if j < BLOCK - 1 and i < count - 1:
            continue
        forced = [k for k, (m, z) in enumerate(block) if not z and m.asymmetry != 0.0]
        at_rest = [k for k in range(len(block)) if k not in forced]
        fracs = dict(zip(forced, _stratified(rng, len(forced))))
        fracs.update(zip(at_rest, _stratified(rng, len(at_rest))))
        for k, (masses, _) in enumerate(block):
            frac = fracs[k]
            top = BOX_RANGE[0] * (BOX_RANGE[1] / BOX_RANGE[0]) ** frac
            if k in forced:
                force = FORCE_RANGE[0] * (FORCE_RANGE[1] / FORCE_RANGE[0]) ** (
                    (int(frac * len(forced)) + rng.random()) / len(forced))
                g = force * force_atomic(composites(masses.masses())) / abs(masses.asymmetry)
                window = SCAN_WINDOW
            else:
                force = g = 0.0
                level = rng.choice((1, 2, 3))
                energy = -0.5 / level**2
                half = 0.2 * (0.5 / level**2 - 0.5 / (level + 1) ** 2)
                window = (energy - half, energy + half)
            index = len(out)
            out.append(Task(index, index, "task", {
                "masses": masses,
                "g": g,
                "force": force,
                "boxes": (top / 4.0, top / 2.0, top),
                "window": window,
                "acceleration": rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0),
            }))
        block = []
    return out


def cli_tasks(seed: int, count: int) -> list[Task]:
    """Rounds of eight fresh-process CLI calls, one per subcommand in seeded order.

    In each round one seeded subcommand runs with its golden arguments; the
    others draw seeded masses, fields and sizes.  ``split`` cycles n through
    1..4 across rounds so every seed sees the same oracle cost.
    """
    rng = random.Random(f"cli-session/{seed}")
    out: list[Task] = []
    kinds = _blocks(rng)
    n_offset = rng.randrange(4)
    r = 0
    while len(out) < count:
        order = list(SUBCOMMANDS)
        rng.shuffle(order)
        golden_sub = rng.choice(SUBCOMMANDS)
        for sub in order:
            if len(out) == count:
                break
            fmt = rng.choice(("csv", "json"))
            _, _, kind, zero = next(kinds)
            masses = _mass_config(kind, rng)
            params: dict = {"sub": sub, "format": fmt}
            if sub == golden_sub:
                golden = rng.choice(GOLDEN_BY_SUBCOMMAND[sub])
                params = {"sub": sub, "golden": golden, "argv": GOLDEN_ARGS[golden]}
                if golden == "split.csv":
                    params["n"] = 2   # the one golden call that runs the oracle
            elif sub == "constants":
                params["argv"] = ("constants", "--format", fmt)
            elif sub in ("separate", "lifetime"):
                g = _field(rng, zero)
                params.update(masses=masses, g=g,
                              argv=(sub, *masses.flags, "--g", _num(g), "--format", fmt))
            elif sub == "split":
                n = 1 + (r + n_offset) % 4
                g = _field(rng, zero)
                params.update(masses=masses, g=g, n=n,
                              argv=("split", "--n", str(n), *masses.flags, "--g", _num(g),
                                    "--format", fmt))
            elif sub == "spectrum":
                l = rng.randrange(3)
                # The default 80-Bohr box holds every state up to n = 3; n = 4
                # at l = 1 trips the program's own box-size gate (exit 3).
                c = rng.randint(1, 3 - l)
                params.update(l=l, count=c,
                              argv=("spectrum", "--l", str(l), "--count", str(c), "--format", fmt))
            elif sub == "stability":
                params["argv"] = ("stability", "--format", fmt)
            elif sub == "frame-check":
                a = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0)
                t = rng.uniform(0.25, 1.0)
                params.update(a=a, time=t,
                              argv=("frame-check", "--a", _num(a), "--time", _num(t),
                                    "--grid", "512", "--steps", "256", "--format", fmt))
            elif sub == "frame-diff":
                a = _field(rng, zero)
                params.update(masses=masses, a=a,
                              argv=("frame-diff", *masses.flags, "--a-magnitude", _num(a),
                                    "--format", fmt))
            out.append(Task(len(out), r, sub, params))
        r += 1
    return out


def task_budget(seconds: float) -> int:
    """More tasks than a run of ``seconds`` can reach; no task takes under 0.06 s."""
    return 64 + int(16 * seconds)


TASKS = {
    "cli-session": cli_tasks,
    "split-sweep": split_sweep_tasks,
    "instability-frames": instability_tasks,
}


def zero_asymmetry(task: Task) -> bool | None:
    """Whether the task's internal coupling A g vanishes (None when it has no masses)."""
    p = task.params
    if "masses" not in p:
        return None
    field = p.get("g", p.get("a"))
    return p["masses"].asymmetry * field == 0.0


def oracle_grid_keys(n: int) -> list[tuple[float, float, int]]:
    """Radial-grid keys (spacing, r_max, l) one ``degenerate_pt(n)`` solves, in order.

    Mirrors the documented default grid: spacings h, h/2, h/4 with
    h = 0.02 Bohr and r_max = max(80, 40 n).
    """
    r_max = max(80.0, 40.0 * n)
    return [(h, r_max, l) for h in (ORACLE_SPACING, ORACLE_SPACING / 2, ORACLE_SPACING / 4)
            for l in range(n)]
