"""Command line front end.

``foldlab run config.ini`` loads a datum and a pinned action from an INI
file (or a named preset), runs the requested analyses, prints a
deterministic text report, and optionally writes the same data as JSON.

Exit codes: 0 success, 2 a malformed command line, an unreadable or
inconsistent configuration or a failed write of a report, 3 invalid action,
4 resource limit exceeded, 5 a brute-force count disagreed with its
prediction.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

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


def _read_ini(text: str) -> dict[str, dict[str, str]]:
    """The sections of an INI text as {section: {key: value}}.

    A ``[section]`` line opens a section, named by the text between the
    ``[`` and the first ``]``; only a ``#`` or ``;`` comment may follow the
    ``]``. A ``key = value`` or ``key: value`` line is split at its first
    delimiter and its key lower-cased. A line indented deeper than its key
    line continues that key's value. Blank lines and lines whose first
    character is ``#`` or ``;`` are skipped. Values are kept as written:
    no interpolation and no inline comments.
    """
    sections = {}
    section = None
    value = None  # the lines of the last key's value, None after a header
    indent = 0  # of the last header or key line
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            if not stripped and value is not None:
                value.append("")
            continue
        depth = len(line) - len(line.lstrip())
        if value is not None and depth > indent:
            value.append(stripped)
            continue
        indent = depth
        if stripped[0] == "[" and "]" in stripped[2:]:
            close = stripped.index("]", 2)
            name, rest = stripped[1:close], stripped[close + 1 :].lstrip()
            if rest and rest[0] not in "#;":
                raise ConfigError(f"line {lineno}: {rest!r} follows the header [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            section = sections[name] = {}
            value = None
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: {stripped!r} comes before any [section]")
        # the first delimiter; with none, cut = 0 leaves no key
        cut = min((i for i in (stripped.find("="), stripped.find(":")) if i >= 0), default=0)
        key = stripped[:cut].rstrip().lower()
        if not key:
            raise ConfigError(f"line {lineno}: {stripped!r} is not a key = value line")
        if key in section:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{name}]")
        value = section[key] = [stripped[cut + 1 :].lstrip()]
    return {
        name: {key: "\n".join(lines).rstrip() for key, lines in keys.items()}
        for name, keys in sections.items()
    }


def _load_config(path: str) -> dict[str, dict[str, str]]:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        config = _read_ini(text)
    except ConfigError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    for section, keys in config.items():
        if section not in CONFIG_KEYS:
            listed = f" (with {', '.join(keys)})" if keys else ""
            raise ConfigError(
                f"unknown section [{section}]{listed};"
                f" expected one of {', '.join(f'[{s}]' for s in CONFIG_KEYS)}"
            )
        for key in keys:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}];"
                    f" expected one of {', '.join(CONFIG_KEYS[section])}"
                )
    return config


def _read_int_lists(text: str):
    """Decode JSON made only of integers and lists: ``[``, ``]``, ``,``,
    integers ``-?(0|[1-9][0-9]*)`` and the JSON whitespace characters.
    Floats, ``true``, strings and the rest of JSON raise ValueError, which
    names the character where reading stopped."""
    top = []  # holds the value once it is read
    stack = [top]  # top, then the lists still open, innermost last
    state = "value"  # value: an item must come; open: an item or "]"; next: "," or "]"
    i, n = 0, len(text)
    while True:
        while i < n and text[i] in " \t\n\r":
            i += 1
        if top and len(stack) == 1:
            if i < n:
                raise ValueError(f"extra data at char {i}")
            return top[0]
        c = text[i] if i < n else ""
        if state != "next" and c == "[":
            stack.append([])
            stack[-2].append(stack[-1])
            state = "open"
            i += 1
        elif state != "value" and c == "]":
            stack.pop()
            state = "next"
            i += 1
        elif state == "next" and c == ",":
            state = "value"
            i += 1
        elif state != "next" and c and c in "-0123456789":
            end = i + 1
            while end < n and text[end] in "0123456789":
                end += 1
            digits = text[i:end].removeprefix("-")
            if not digits or (digits[0] == "0" and len(digits) > 1):
                raise ValueError(f"{text[i:end]!r} at char {i} is not a JSON integer")
            stack[-1].append(int(text[i:end]))
            state = "next"
            i = end
        else:
            expected = {
                "value": "an integer or '['",
                "open": "an integer, '[' or ']'",
                "next": "',' or ']'",
            }[state]
            found = repr(c) if c else "the end"
            raise ValueError(f"expected {expected} at char {i}, found {found}")


def _is_int_matrix(obj) -> bool:
    """Whether decoded integer lists are a list of lists of integers."""
    return isinstance(obj, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in obj
    )


def _check_datum_size(rank: int, nroots: int | None, limit: int):
    """Refuse a datum before it is built when its work, nroots^2 root pairs
    (chevalley's scans over all pairs; fold and criteria do no nroots^2
    work) or a rank^3 elimination, exceeds the limit; with nroots None only
    rank^3 is compared."""
    work = max((nroots or 0) ** 2, rank**3)
    if work > limit:
        roots = "" if nroots is None else f" with {nroots} roots"
        raise ResourceLimitError(
            f"checking a datum of rank {rank}{roots} and its action takes"
            f" {work} steps, past the limit {limit} (raise --limit-enum)"
        )


def _build_datum_and_action(config, enum_limit):
    datum_cfg = config.get("datum", {})
    action_cfg = config.get("action", {})

    preset_name = datum_cfg.get("preset")
    if preset_name is not None:
        if action_cfg:
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
    torus = kind.strip().lower() == "torus"
    rank = _parse_int("datum", "rank", datum_cfg.get("rank", "1")) if torus else None
    unread = "isogeny" if torus else "rank"
    if unread in datum_cfg:
        raise ConfigError(f"type = {kind} does not read key {unread!r} in [datum]")
    try:
        if torus:
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
            data = _read_int_lists(mats_raw)
        except ValueError as exc:  # not integer lists, or an integer past Python's digit limit
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


def _build_base(config) -> BaseSpec:
    raw = config.get("base", {}).get("primes", "all").strip()
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


def _run_settings(config, args):
    run_cfg = config.get("run", {})
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
    report = check_equivariance(adjusted, act, classes)
    max_const = max((abs(v) for row in sc.table for v in row.values()), default=0)
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


_JSON_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


def _json_str(s: str) -> str:
    """A JSON string literal with only printable ASCII, as json.dumps writes it."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    out = []
    for ch in s:
        code = ord(ch)
        if ch in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[ch])
        elif 0x20 <= code < 0x7F:
            out.append(ch)
        elif code > 0xFFFF:  # a UTF-16 surrogate pair
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
        else:
            out.append(f"\\u{code:04x}")
    return '"' + "".join(out) + '"'


def _json(obj, pretty: bool = False, depth: int = 0) -> str:
    """``json.dumps(obj)``, or with pretty ``json.dumps(obj, indent=2,
    sort_keys=True)``, for dicts with str keys, lists, str, int, bool and None."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, dict):
        keys = sorted(obj) if pretty else obj
        items = [f"{_json_str(k)}: {_json(obj[k], pretty, depth + 1)}" for k in keys]
        opening, closing = "{", "}"
    elif isinstance(obj, list):
        items = [_json(x, pretty, depth + 1) for x in obj]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"{type(obj).__name__} is not written as JSON")
    if not items:
        return opening + closing
    if not pretty:
        return opening + ", ".join(items) + closing
    pad = "\n" + "  " * (depth + 1)
    return f"{opening}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{closing}"


def _flatten(prefix, obj, lines):
    if isinstance(obj, dict):
        for key in obj:
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], lines)
    else:
        lines.append(f"{prefix} = {_json(obj)}")
    return lines


def run_command(args) -> int:
    try:
        config = _load_config(args.config)
        analyses, q, p, weyl_limit, enum_limit = _run_settings(config, args)
        datum, act, preset_name = _build_datum_and_action(config, enum_limit)
        base = _build_base(config)
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
        payload = _json(results, pretty=True) + "\n"
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


# run's options: flag -> (attribute, metavar, help); a metavar N takes an integer
RUN_OPTIONS = {
    "--analysis": ("analysis", "NAME", "analysis to run (repeatable); overrides [run] analyses"),
    "--q": ("q", "N", "field size for count"),
    "--p": ("p", "N", "characteristic for criteria fibers and tangent"),
    "--json": ("json", "PATH", "also write the report as JSON to this path"),
    "--limit-weyl": (
        "limit_weyl", "N", f"refuse a fold whose |W^A| exceeds N; default {WEYL_LIMIT_DEFAULT}"
    ),
    "--limit-enum": ("limit_enum", "N", f"largest count or check; default {GROUP_ORDER_LIMIT}"),
}

USAGE = """\
usage: foldlab run CONFIG [--analysis NAME]... [--q N] [--p N] [--json PATH]
                          [--limit-weyl N] [--limit-enum N]
       foldlab presets
       foldlab -h | --help
"""

HELP = (
    USAGE
    + """
fold root data under pinned actions and verify the results

commands:
  run CONFIG            run the analyses an INI config describes
  presets               list the named example configurations

options of run, spelled in full, as --flag VALUE or --flag=VALUE:
"""
    + "".join(
        f"  {f'{flag} {metavar}':<22}{text}\n" for flag, (_, metavar, text) in RUN_OPTIONS.items()
    )
)


class UsageError(Exception):
    """A command line that names no job."""


def _is_option(token: str) -> bool:
    # a negative number is a value, as it was for argparse
    return token.startswith("-") and token != "-" and not token[1:].isdigit()


def _parse_command_line(argv):
    """Return the command argv names and the settings of run, or
    (None, None) when argv asks for help; raise UsageError otherwise."""
    args = SimpleNamespace(config=None, **{attr: None for attr, _, _ in RUN_OPTIONS.values()})
    command = None
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token in ("-h", "--help"):
            return None, None
        flag, eq, value = token.partition("=")
        if command is None:
            if token not in ("run", "presets"):
                raise UsageError(f"unknown command {token!r}; choose run or presets")
            command = token
        elif command == "run" and flag in RUN_OPTIONS:
            if not eq:
                if i == len(argv) or _is_option(argv[i]):
                    raise UsageError(f"{flag} needs a value")
                value = argv[i]
                i += 1
            attr, metavar, _ = RUN_OPTIONS[flag]
            if metavar == "N":
                try:
                    number = int(value)
                except ValueError:
                    raise UsageError(f"{flag} needs an integer, not {value!r}") from None
                if number < 0 and flag.startswith("--limit-"):
                    raise UsageError(f"{flag} needs a nonnegative integer, not {value!r}")
                value = number
            if flag == "--analysis":
                value = (args.analysis or []) + [value]
            setattr(args, attr, value)
        elif _is_option(token):
            raise UsageError(f"unknown option {flag!r} for {command}")
        elif command == "presets":
            raise UsageError(f"presets takes no arguments, not {token!r}")
        elif args.config is None:
            args.config = token
        else:
            raise UsageError(f"run takes one CONFIG, not also {token!r}")
    if command is None:
        raise UsageError("no command given; choose run or presets")
    if command == "run" and args.config is None:
        raise UsageError("run needs a CONFIG")
    return command, args


def main(argv=None) -> int:
    try:
        command, args = _parse_command_line(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"{USAGE}foldlab: error: {exc}\n")
        return 2
    # run_command catches the OSErrors of the config and --json files, so an
    # OSError here comes from writing stdout (or stderr, which cannot report it)
    try:
        if command is None:
            sys.stdout.write(HELP)
            code = 0
        else:
            code = run_command(args) if command == "run" else presets_command(args)
        sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write stdout: {exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:
            # the interpreter flushes stdout again as it exits; point that flush
            # at a file that takes it (os is imported here, off the job path)
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


# Shutdown's collections skip a frozen heap, and the OS reclaims its pages.
def process_main():
    """Run main on sys.argv and end the process with its exit code: the
    entry of ``python -m foldlab.cli`` and of the ``foldlab`` script."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    process_main()
