"""Named example configurations: a datum together with a pinned action.

Each preset is a small, fully explicit input for the rest of the package;
the catalog doubles as the CLI's shorthand vocabulary.
"""

from __future__ import annotations

from .errors import DomainError
from .intlat import IntMatrix
from .rootdata import RootDatum, build_preset, build_torus
from .action import PinnedAction, permutation_matrix


class Preset:
    def __init__(self, name: str, note: str, datum: RootDatum, action: PinnedAction):
        self.name = name
        self.note = note
        self.datum = datum
        self.action = action


def type_a_flip(rank: int, isogeny: str = "sc") -> tuple[RootDatum, PinnedAction]:
    """A_rank datum with the diagram-reversing involution."""
    datum = build_preset(f"A{rank}", isogeny)
    m = permutation_matrix({j: rank - 1 - j for j in range(rank)}, rank)
    return datum, PinnedAction(datum, [m])


def _d4(generating_images: list[dict[int, int]]):
    datum = build_preset("D4", "sc")
    gens = [permutation_matrix(img, 4) for img in generating_images]
    return datum, PinnedAction(datum, gens)


def _build_a2a2_swap():
    datum = build_preset("A2+A2", "sc")
    m = permutation_matrix({0: 2, 1: 3, 2: 0, 3: 1}, 4)
    return datum, PinnedAction(datum, [m])


def _build_e6_flip():
    datum = build_preset("E6", "sc")
    m = permutation_matrix({0: 5, 5: 0, 2: 4, 4: 2, 1: 1, 3: 3}, 6)
    return datum, PinnedAction(datum, [m])


def _build_torus_inversion():
    datum = build_torus(1)
    return datum, PinnedAction(datum, [IntMatrix([[-1]])])


_BUILDERS = {
    "A2-sc-flip": (
        "simply connected A2 with the diagram flip",
        lambda: type_a_flip(2),
    ),
    "A3-sc-flip": (
        "simply connected A3 with the diagram flip",
        lambda: type_a_flip(3),
    ),
    "A4-sc-flip": (
        "simply connected A4 with the diagram flip",
        lambda: type_a_flip(4),
    ),
    "A5-sc-flip": (
        "simply connected A5 with the diagram flip",
        lambda: type_a_flip(5),
    ),
    "D4-sc-triality": (
        "simply connected D4 with the full symmetric group on outer nodes",
        lambda: _d4([{0: 2, 2: 3, 3: 0, 1: 1}, {0: 0, 1: 1, 2: 3, 3: 2}]),
    ),
    "D4-sc-cyclic3": (
        "simply connected D4 with the order-3 rotation of outer nodes",
        lambda: _d4([{0: 2, 2: 3, 3: 0, 1: 1}]),
    ),
    "A2+A2-sc-swap": (
        "two A2 factors exchanged by an involution",
        _build_a2a2_swap,
    ),
    "E6-sc-flip": (
        "simply connected E6 with the diagram flip",
        _build_e6_flip,
    ),
    "A1-torus-inversion": (
        "rank-one torus with the inversion action",
        _build_torus_inversion,
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def load_preset(name: str) -> Preset:
    try:
        note, builder = _BUILDERS[name]
    except KeyError:
        raise DomainError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    datum, action = builder()
    return Preset(name=name, note=note, datum=datum, action=action)
