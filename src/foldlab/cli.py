"""Command line front end.

``foldlab run config.ini`` loads a datum and a pinned action from an INI
file (or a named preset), runs the requested analyses, prints a
deterministic text report, and optionally writes the same data as JSON.

Exit codes: 0 success, 2 unreadable or inconsistent configuration,
3 invalid action, 4 resource limit exceeded, 5 a brute-force count
disagreed with its prediction.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys

from .errors import DomainError, InvalidActionError, ResourceLimitError
from .intlat import IntMatrix
from .rootdata import WEYL_LIMIT_DEFAULT, CartanType, build_preset, build_torus, cartan_type_of
from .action import PinnedAction, permutation_matrix, trivial_action
from .folding import VARIANTS, center_structure, fixed_weyl, isogeny_injectivity_check
from .criteria import BaseSpec, decide, fiber_reports
from .chevalley import (
    base_constants,
    check_equivariance,
    equivariant_signs,
    verify_jacobi,
)
from .matrixlab import GROUP_ORDER_LIMIT, tangent_dim, verify_fixed_count
from .presets import load_preset, preset_names

ANALYSES = ("fold", "criteria", "chevalley", "count", "tangent")

# section -> the keys it may hold
CONFIG_KEYS = {
    "datum": ("preset", "type", "rank", "isogeny"),
    "action": ("basis_permutation", "matrices"),
    "base": ("primes",),
    "run": ("analyses", "q", "p"),
}


class ConfigError(Exception):
    """Configuration that cannot be acted on."""


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from None


def _load_config(path: str):
    parser = configparser.ConfigParser()
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}];"
                    f" expected one of {', '.join(CONFIG_KEYS[section])}"
                )
    return parser


def _is_int_matrix(obj) -> bool:
    """Whether decoded JSON is a list of lists of integers (not booleans)."""
    return isinstance(obj, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in obj
    )


def _check_datum_size(rank: int, nroots: int | None, limit: int):
    """Refuse a datum before it is built when checking it and its action,
    nroots^2 root pairs or a rank^3 elimination, exceeds the limit; with
    nroots None only rank^3 is compared."""
    work = max((nroots or 0) ** 2, rank**3)
    if work > limit:
        roots = "" if nroots is None else f" with {nroots} roots"
        raise ResourceLimitError(
            f"checking a datum of rank {rank}{roots} and its action takes"
            f" {work} steps, past the limit {limit} (raise --limit-enum)"
        )


def _build_datum_and_action(parser, enum_limit):
    datum_cfg = parser["datum"] if parser.has_section("datum") else {}
    action_cfg = parser["action"] if parser.has_section("action") else {}

    preset_name = datum_cfg.get("preset")
    if preset_name is not None:
        if parser.has_section("action") and list(parser["action"].keys()):
            raise ConfigError("a preset already defines the action; drop [action]")
        extra = [k for k in datum_cfg if k != "preset"]
        if extra:
            raise ConfigError(f"preset conflicts with keys {extra} in [datum]")
        try:
            preset = load_preset(preset_name)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        return preset.datum, preset.action, preset_name

    kind = datum_cfg.get("type")
    if kind is None:
        raise ConfigError("[datum] needs either preset or type")
    try:
        if kind.strip().lower() == "torus":
            rank = _parse_int("datum", "rank", datum_cfg.get("rank", "1"))
            _check_datum_size(rank, 0, enum_limit)
            datum = build_torus(rank)
        else:
            ct = CartanType.parse(kind)
            # rank^3 first: listing the degrees takes O(rank) time and memory
            _check_datum_size(ct.rank, None, enum_limit)
            # W has sum(d_i - 1) reflections, one per positive root (Humphreys 3.9)
            _check_datum_size(ct.rank, 2 * sum(d - 1 for d in ct.degrees), enum_limit)
            datum = build_preset(ct, datum_cfg.get("isogeny", "sc"))
    except DomainError as exc:
        raise ConfigError(str(exc)) from None

    perm_raw = action_cfg.get("basis_permutation")
    mats_raw = action_cfg.get("matrices")
    if perm_raw is not None and mats_raw is not None:
        raise ConfigError("give basis_permutation or matrices, not both")
    generators = []
    if perm_raw is not None:
        for chunk in perm_raw.split(";"):
            try:
                images = [int(x) for x in chunk.split(",")]
            except ValueError:
                raise ConfigError(
                    f"basis_permutation entry {chunk!r} is not a list of integers"
                ) from None
            if sorted(images) != list(range(datum.rank)):
                raise ConfigError(
                    f"basis_permutation {images} is not a permutation of 0..{datum.rank - 1}"
                )
            generators.append(permutation_matrix(dict(enumerate(images)), datum.rank))
    elif mats_raw is not None:
        try:
            data = json.loads(mats_raw)
        except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
            raise ConfigError(f"matrices is not valid JSON: {exc}") from None
        if data and _is_int_matrix(data):
            data = [data]  # a single matrix was given bare
        if not isinstance(data, list) or not all(_is_int_matrix(m) for m in data):
            raise ConfigError(
                "matrices must be an integer matrix or a JSON list of integer matrices"
            )
        try:
            generators = [IntMatrix(m) for m in data]
        except DomainError as exc:
            raise ConfigError(f"bad matrix data: {exc}") from None

    if generators:
        action = PinnedAction(datum, generators)
    else:
        action = trivial_action(datum)
    return datum, action, None


def _build_base(parser) -> BaseSpec:
    if not parser.has_section("base"):
        return BaseSpec.all_primes()
    raw = parser["base"].get("primes", "all").strip()
    if raw.lower() == "all":
        return BaseSpec.all_primes()
    if not raw:
        return BaseSpec.of_primes([])
    try:
        primes = [int(x) for x in raw.split(",")]
    except ValueError:
        raise ConfigError(f"[base] primes = {raw!r} is not a list of primes") from None
    try:
        return BaseSpec.of_primes(primes)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def _run_settings(parser, args):
    run_cfg = parser["run"] if parser.has_section("run") else {}
    if args.analysis:
        analyses = list(args.analysis)
    else:
        raw = run_cfg.get("analyses", "fold")
        analyses = [a.strip() for a in raw.split(",") if a.strip()]
    expanded = []
    for a in analyses:
        if a == "all":
            expanded.extend(ANALYSES)
        elif a in ANALYSES:
            expanded.append(a)
        else:
            raise ConfigError(
                f"unknown analysis {a!r}; choose from {', '.join(ANALYSES + ('all',))}"
            )
    analyses = list(dict.fromkeys(expanded))

    q = args.q
    if q is None and "q" in run_cfg:
        q = _parse_int("run", "q", run_cfg["q"])
    p = args.p
    if p is None and "p" in run_cfg:
        p = _parse_int("run", "p", run_cfg["p"])
    weyl_limit = WEYL_LIMIT_DEFAULT if args.limit_weyl is None else args.limit_weyl
    enum_limit = GROUP_ORDER_LIMIT if args.limit_enum is None else args.limit_enum
    return analyses, q, p, weyl_limit, enum_limit


def _flip_rank(datum, act) -> int:
    """Half-rank for analyses tied to the even type A flip shape."""
    ct = cartan_type_of(datum)
    comps = ct.components
    if (
        len(comps) == 1
        and comps[0][0] == "A"
        and comps[0][1] % 2 == 0
        and comps[0][1] == datum.rank
        and act.order == 2
    ):
        return comps[0][1] // 2
    raise InvalidActionError(
        "this analysis needs a single even-rank type A datum with an order-2 action"
    )


def _analysis_fold(datum, act, weyl_limit):
    fw = fixed_weyl(datum, act, limit=weyl_limit)
    r1 = fw.variants["R1"]
    out = {
        "class_count": len(r1.classes),
        "classes": [
            {
                "kind": cls.kind,
                "members": [list(datum.roots[i]) for i in cls.members],
                "special": [list(datum.roots[i]) for i in cls.special],
            }
            for cls in r1.classes
        ],
    }
    has_type_two = any(cls.kind == "II" for cls in r1.classes)
    folded = {}
    for variant in VARIANTS if has_type_two else ("R1",):
        fd = fw.variants[variant]
        folded[variant] = {
            "rank": fd.datum.rank,
            "root_count": fd.datum.nroots,
            "type": str(cartan_type_of(fd.datum)) if fd.datum.reduced else "nonreduced",
        }
    out["folded"] = folded
    out["fixed_weyl_order"] = fw.order
    out["center"] = center_structure(datum, act).describe()
    out["isogeny_injective"] = isogeny_injectivity_check(datum, act)
    out["coinvariants"] = r1.lattice.group.describe()
    return out


def _analysis_criteria(datum, act, base, p):
    out = decide(datum, act, base).as_dict()
    chars = sorted({0, 2} | ({p} if p is not None else set()))
    out["fibers"] = {
        str(char): fr.as_dict() for char, fr in fiber_reports(datum, act, chars).items()
    }
    return out


def _analysis_chevalley(datum, act):
    sc = base_constants(datum)
    verify_jacobi(sc)
    adjusted, classes = equivariant_signs(sc, act)
    report = check_equivariance(adjusted, act)
    max_const = max((abs(v) for v in sc.table.values()), default=0)
    return {
        "jacobi": True,
        "max_constant_magnitude": max_const,
        "positive_pair_count": sum(1 for _ in sc.xs_pair),
        "orbit_reports": [
            {
                "members": [list(datum.roots[i]) for i in o.members],
                "special": o.special,
                "satisfied": o.satisfied,
                "discrepancies": list(o.discrepancies),
            }
            for o in report.orbits
        ],
        "nonspecial_all_satisfied": report.nonspecial_all_satisfied,
        "special_discrepancy_values": list(report.special_values),
        "adjusted_sign_count": sum(1 for v in adjusted.eps.values() if v == -1),
    }


def _analysis_count(datum, act, q, enum_limit):
    if q is None:
        raise ConfigError("count analysis needs q (give --q or [run] q)")
    n = _flip_rank(datum, act)
    report = verify_fixed_count(n, q, order_limit=enum_limit)
    return report.as_dict()


def _analysis_tangent(datum, act, p):
    if p is None:
        raise ConfigError("tangent analysis needs p (give --p or [run] p)")
    n = _flip_rank(datum, act)
    return {"n": n, "p": p, "dim": tangent_dim(n, p)}


def _flatten(prefix, obj, lines):
    if isinstance(obj, dict):
        for key in obj:
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], lines)
    else:
        lines.append(f"{prefix} = {json.dumps(obj)}")
    return lines


def run_command(args) -> int:
    try:
        parser = _load_config(args.config)
        analyses, q, p, weyl_limit, enum_limit = _run_settings(parser, args)
        datum, act, preset_name = _build_datum_and_action(parser, enum_limit)
        base = _build_base(parser)
        results = {
            "input": {
                "preset": preset_name,
                "rank": datum.rank,
                "root_count": datum.nroots,
                "type": str(cartan_type_of(datum)),
                "action_order": act.order,
                "base": base.describe(),
            }
        }
        for analysis in analyses:
            if analysis == "fold":
                results["fold"] = _analysis_fold(datum, act, weyl_limit)
            elif analysis == "criteria":
                results["criteria"] = _analysis_criteria(datum, act, base, p)
            elif analysis == "chevalley":
                results["chevalley"] = _analysis_chevalley(datum, act)
            elif analysis == "count":
                results["count"] = _analysis_count(datum, act, q, enum_limit)
            elif analysis == "tangent":
                results["tangent"] = _analysis_tangent(datum, act, p)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InvalidActionError as exc:
        print(f"invalid action: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4

    lines = []
    for section in results:
        lines.append(f"[{section}]")
        _flatten("", results[section], lines)
        lines.append("")
    text = "\n".join(lines).rstrip() + "\n"
    sys.stdout.write(text)

    if args.json:
        payload = json.dumps(results, indent=2, sort_keys=True) + "\n"
        try:
            with open(args.json, "w") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"cannot write {args.json}: {exc}", file=sys.stderr)
            return 2

    if "count" in results and not results["count"]["agree"]:
        print("count mismatch: brute force disagrees with prediction", file=sys.stderr)
        return 5
    return 0


def presets_command(_args) -> int:
    for name in preset_names():
        print(f"{name}: {load_preset(name).note}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="foldlab",
        description="fold root data under pinned actions and verify the results",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run analyses described by an INI config")
    runp.add_argument("config", help="path to the INI configuration")
    runp.add_argument(
        "--analysis",
        action="append",
        help="analysis to run (repeatable); overrides [run] analyses",
    )
    runp.add_argument("--q", type=int, help="field size for counting analyses")
    runp.add_argument("--p", type=int, help="characteristic for fiber analyses")
    runp.add_argument("--json", help="also write results as JSON to this path")
    runp.add_argument("--limit-weyl", type=int, dest="limit_weyl")
    runp.add_argument("--limit-enum", type=int, dest="limit_enum")
    runp.set_defaults(func=run_command)

    listp = sub.add_parser("presets", help="list the named example configurations")
    listp.set_defaults(func=presets_command)
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
