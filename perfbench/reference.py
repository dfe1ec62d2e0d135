"""Independent reference values for the benchmark's jobs.

Everything here is a classical fact written as a literal or a closed form;
none of it is computed by foldlab.  ``SEED_SHA256`` additionally pins the
exact ``--json`` bytes each successful job wrote at the commit that defined
the benchmark, so a changed report counts as a failed job.
"""

from __future__ import annotations

from math import prod

# Number of roots of the input datum: n(n+1) for A_n, 24 for D4, 72/126/240
# for E6/E7/E8, none for a torus.
ROOT_COUNT = {
    "A1-torus-inversion": 0,
    "A2+A2-sc-swap": 12,
    "A2-sc-flip": 6,
    "A3-sc-flip": 12,
    "A4-sc-flip": 20,
    "A5-sc-flip": 30,
    "A6-flip": 42,
    "D4-sc-cyclic3": 24,
    "D4-sc-triality": 24,
    "E6-sc-flip": 72,
    "E7": 126,
    "E8": 240,
}

# Degrees of the Weyl group of the folded type; |W| is their product
# (A1, A2, B2, BC2 ~ B2, B3, G2, G2, F4; the torus folds to the trivial group).
FOLDED_DEGREES = {
    "A1-torus-inversion": (),
    "A2-sc-flip": (2,),
    "A2+A2-sc-swap": (2, 3),
    "A3-sc-flip": (2, 4),
    "A4-sc-flip": (2, 4),
    "A5-sc-flip": (2, 4, 6),
    "D4-sc-cyclic3": (2, 6),
    "D4-sc-triality": (2, 6),
    "E6-sc-flip": (2, 6, 8, 12),
}

# Dimension of the fixed-point group in characteristic 0: mu_2, SL3, SO3,
# Sp4, SO5, Sp6, G2, G2, F4, and E7 and E8 themselves under the trivial action.
FIXED_DIM = {
    "A1-torus-inversion": 0,
    "A2+A2-sc-swap": 8,
    "A2-sc-flip": 3,
    "A3-sc-flip": 10,
    "A4-sc-flip": 10,
    "A5-sc-flip": 21,
    "D4-sc-cyclic3": 14,
    "D4-sc-triality": 14,
    "E6-sc-flip": 52,
    "E7": 133,
    "E8": 248,
}

# Half-rank n of the even type A flips, SL(2n+1).
FLIP_N = {"A2-sc-flip": 1, "A4-sc-flip": 2, "A6-flip": 3}


def fixed_count(n: int, q: int) -> int:
    """|SO(2n+1, F_q)| (odd q) = |Sp(2n, F_q)| (even q) = q^(n^2) prod (q^(2i) - 1)."""
    return q ** (n * n) * prod(q ** (2 * i) - 1 for i in range(1, n + 1))


def tangent_dim(n: int, p: int) -> int:
    """dim so(2n+1) = n(2n+1) at odd p; 5 at (1, 2), from the 2^5 dual-number count."""
    if p == 2:
        if n != 1:
            raise KeyError(f"no reference tangent dimension at n={n}, p=2")
        return 5
    return n * (2 * n + 1)


def check_report(job, report: dict) -> list[str]:
    """Disagreements between a successful job's report and the reference."""
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what} = {got!r}, reference {want!r}")

    expect("input.root_count", report["input"]["root_count"], ROOT_COUNT[job.target])
    section = report.get(job.analysis)
    if section is None:
        return problems + [f"report has no {job.analysis!r} section"]
    if job.analysis == "fold":
        expect("fixed_weyl_order", section["fixed_weyl_order"], prod(FOLDED_DEGREES[job.target]))
    elif job.analysis == "criteria":
        expect("fibers.0.dimension", section["fibers"]["0"]["dimension"], FIXED_DIM[job.target])
    elif job.analysis == "chevalley":
        expect("jacobi", section["jacobi"], True)
        expect("nonspecial_all_satisfied", section["nonspecial_all_satisfied"], True)
    elif job.analysis == "count":
        want = fixed_count(FLIP_N[job.target], job.q)
        expect("count.brute", section["brute"], want)
        expect("count.predicted", section["predicted"], want)
    elif job.analysis == "tangent":
        expect("tangent.dim", section["dim"], tangent_dim(FLIP_N[job.target], job.p))
    return problems


SEED_SHA256 = {
    "fold:A1-torus-inversion": "a0684da2d875384461ed68c8d28ba4c6cb327bfbef806017ba3bcae4e2ef96ba",
    "fold:A2+A2-sc-swap": "b66c25b6ba42000bd9086db14b674d182b1a13e8785592927493562ead1334d4",
    "fold:A2-sc-flip": "2caec365969f8356916e39477777f9a9f2f36a5bffdd55473f35a975bdfd535d",
    "fold:A3-sc-flip": "e59e331b0c1698f5b4da2c06713c01b3f0178a74e9d57f5a7c54ba955699e57b",
    "fold:A4-sc-flip": "6513f19ab7f9aa06f7b290805bc21eb1fe04f199887023e9d513dedf1b87a131",
    "fold:A5-sc-flip": "3128cc9717915b8b992285489cdfb5958c20b10faa3e2f9093e0425ea3dae683",
    "fold:D4-sc-cyclic3": "d1a92474ac562f2c51d83bd68616ed0e70f0c3f746b74f38f28312a748d0c8f3",
    "fold:D4-sc-triality": "8bc6bb2c2a7b3891eaed3603c48ad15ff7630f246b17da011e80e908ab136e62",
    "fold:E6-sc-flip": "390d9ea7ec12fb62685b79a9ac4bfd38a994445ecf9e112f8a2a870d7c044a33",
    "criteria:A1-torus-inversion": "849728671b40df419b02cfaffa87c4a8c2ec82ac629b508847b4a3ac4beb2ced",
    "criteria:A2+A2-sc-swap": "b66084351835756d70444e37110471f7d519ed122841d7f5fcca28c1e378b2c3",
    "criteria:A2-sc-flip": "76882b59ede598e789c239e7cae484b001f42d1288461c44a3350b69680a30c0",
    "criteria:A3-sc-flip": "04e3e44cbb3235ee9becee8dadb82a48a282c1f227b85e2013c7fd176b208457",
    "criteria:A4-sc-flip": "9e550f89a7be2bc1a4cc17698703376c3290f75f4ad82011f066317635e3023d",
    "criteria:A5-sc-flip": "1581aa144de1fb0a4d73879169f9dcee02e49bc20fe9579c7903147fffd25b1a",
    "criteria:D4-sc-cyclic3": "282852ca7fbfd698d5cd434c81c65c6ba7213171d917066263f9ec87c57b3394",
    "criteria:D4-sc-triality": "a37c62cf8e95bbca3b7f57851c6aa03a999975abaf665628e00589188cf550dc",
    "criteria:E6-sc-flip": "3ea8a58f7acfc167b3a0a63f561604438d9767ec5aa2beb0bad103b489a38cf5",
    "criteria:E7": "69b367f5a1492d5ba08f5e163834d6c9bae1e7231618ec0d94e5f393fd93284d",
    "criteria:E8": "507b7e575ea527f540cb294f9ac7910c82101888582cf9e716eda4acd7783412",
    "chevalley:A5-sc-flip": "3e059913805c118eb4829d37bab04e39de5e6a44fec954896432bdedc66f078b",
    "chevalley:D4-sc-triality": "ae9b8a214997c9e0067b661af46d85e0fb8cba308af49a81059bdb0e0297973e",
    "chevalley:D4-sc-cyclic3": "218e22ebeb3cafda6052a51243d27c64e5492586a394f73a59d3eecb1d5862a4",
    "chevalley:E6-sc-flip": "f5aeaa6dccac495636455db50fceceb3055db305a72926c91ee66d8ccbd262e5",
    "chevalley:E7": "263689c59e5a38d8ae6ea4820b329114ae71025a0107dbf80fd85eda3aaa37f5",
    "count:A2-sc-flip:q=2": "a0e5b189ca30fbb5c25e3150d5f411f7787e194caa0d121832d590e51205b657",
    "count:A2-sc-flip:q=3": "5ae12440412092311850aa455092278a98d96db6b9fa3383bb6ca2390bf3e7d8",
    "count:A2-sc-flip:q=4": "714ea349a6b871e7f3b7fca0d3a0c8d9158be0a4aea29b9010333ac3d3aed6cc",
    "count:A2-sc-flip:q=5": "e9673930961f037d719681dd5d88b0071020536ee3ccef429f57006718bef4c9",
    "count:A2-sc-flip:q=7": "cdd282e94bc28c18079717282e11c6917201c35033a13e31942ac76c939f18be",
    "count:A2-sc-flip:q=8": "9b143e9673123b994430d7b37b0de14860963fe576e372cae581ebf517fd7f64",
    "count:A2-sc-flip:q=9": "e62353221b6d3b32eabe5610f655f74dfcff40dd72d869f09fd94fd7729ada84",
    "count:A4-sc-flip:q=2": "df06bea1e5d74fd67a1e5eebadd2cef77f7eb2ab6090cbe50380d4ecd13939d3",
    "tangent:A2-sc-flip:p=3": "5a8e552ce657eb7d7a79f7cd92143172d7be6ecf75695c319c6c7bd48ec654db",
    "tangent:A4-sc-flip:p=3": "517f29ac4270d9a2df565e8ee8cbf66f10123ada9ef5b2ce778b0d1ef09f552f",
    "tangent:A6-flip:p=3": "b6d1772b2922c03a1038f8bfc578a92e2acfc07f5da7b84a3697abbba543ab09",
    "tangent:A2-sc-flip:p=5": "c71291f38e904cfa6d315e9426dc8a3ce7156cef5c9fd676bc6b69b66263c244",
    "tangent:A4-sc-flip:p=5": "8232bdcd37e9ce98cc3f838ab29057fa3ce299518bed011884d5d4ab72e612c9",
    "tangent:A6-flip:p=5": "35efaabb34f0706c5f5b6a11b621788a69fc49abbcf1ded7bb4d48aea72ee2c2",
    "tangent:A2-sc-flip:p=2": "aabfead4dadd3ea6b959974fbf38a5f350a70d01ad6ab1216c36fc517adfc2bd",
}
