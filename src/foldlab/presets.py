"""Named example configurations: a datum together with a pinned action.

Each preset is a small, fully explicit input for the rest of the package;
the catalog doubles as the CLI's shorthand vocabulary.
"""

from __future__ import annotations

from .errors import DomainError
from .intlat import IntMatrix
from .rootdata import RootDatum, build_preset, build_torus
from .action import PinnedAction, permutation_matrix
from .record import Record


class Preset(Record):
    name: str
    note: str
    datum: RootDatum
    action: PinnedAction


def type_a_flip(rank: int, isogeny: str = "sc") -> tuple[RootDatum, PinnedAction]:
    """A_rank datum with the diagram-reversing involution."""
    datum = build_preset(f"A{rank}", isogeny)
    m = permutation_matrix({j: rank - 1 - j for j in range(rank)}, rank)
    return datum, PinnedAction(datum, [m])


def _diagram_action(ctype: str, *images: dict[int, int]) -> tuple[RootDatum, PinnedAction]:
    """The simply connected datum of ctype with the diagram automorphisms
    that send simple root j to simple root images[j]."""
    datum = build_preset(ctype, "sc")
    return datum, PinnedAction(datum, [permutation_matrix(img, datum.rank) for img in images])


def _build_torus_inversion():
    datum = build_torus(1)
    return datum, PinnedAction(datum, [IntMatrix([[-1]])])


_BUILDERS = {
    **{
        f"A{n}-sc-flip": (
            f"simply connected A{n} with the diagram flip",
            lambda n=n: type_a_flip(n),
        )
        for n in (2, 3, 4, 5)
    },
    "D4-sc-triality": (
        "simply connected D4 with the full symmetric group on outer nodes",
        lambda: _diagram_action("D4", {0: 2, 2: 3, 3: 0, 1: 1}, {0: 0, 1: 1, 2: 3, 3: 2}),
    ),
    "D4-sc-cyclic3": (
        "simply connected D4 with the order-3 rotation of outer nodes",
        lambda: _diagram_action("D4", {0: 2, 2: 3, 3: 0, 1: 1}),
    ),
    "A2+A2-sc-swap": (
        "two A2 factors exchanged by an involution",
        lambda: _diagram_action("A2+A2", {0: 2, 1: 3, 2: 0, 3: 1}),
    ),
    "E6-sc-flip": (
        "simply connected E6 with the diagram flip",
        lambda: _diagram_action("E6", {0: 5, 5: 0, 2: 4, 4: 2, 1: 1, 3: 3}),
    ),
    "A1-torus-inversion": (
        "rank-one torus with the inversion action",
        _build_torus_inversion,
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def preset_notes() -> list[tuple[str, str]]:
    """(name, note) of every preset, by name, without building any."""
    return [(name, _BUILDERS[name][0]) for name in preset_names()]


def load_preset(name: str) -> Preset:
    try:
        note, builder = _BUILDERS[name]
    except KeyError:
        raise DomainError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    datum, action = builder()
    return Preset(name=name, note=note, datum=datum, action=action)
