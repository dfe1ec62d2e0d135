"""Workload job lists for the foldlab benchmark.

Every job is one ``foldlab run <ini> [flags] --json <out>`` process.  The
lists are fixed; the benchmark seed only permutes the order in which a
pass runs them, so a second seed re-checks the same work.
"""

from __future__ import annotations

from dataclasses import dataclass

PRESETS = (
    "A1-torus-inversion",
    "A2+A2-sc-swap",
    "A2-sc-flip",
    "A3-sc-flip",
    "A4-sc-flip",
    "A5-sc-flip",
    "D4-sc-cyclic3",
    "D4-sc-triality",
    "E6-sc-flip",
)

# Explicit (non-preset) data, keyed by the target name used in job names.
EXPLICIT = {
    "E7": "[datum]\ntype = E7\n",
    "E8": "[datum]\ntype = E8\n",
    "A6-flip": "[datum]\ntype = A6\n[action]\nbasis_permutation = 5,4,3,2,1,0\n",
}


@dataclass(frozen=True)
class Job:
    name: str
    target: str  # preset or EXPLICIT key; "" for malformed inputs
    ini: str
    args: tuple[str, ...]
    analysis: str = ""
    q: int | None = None
    p: int | None = None
    exit: int = 0  # documented exit code the job must end with


def _ini(target: str) -> str:
    return EXPLICIT.get(target) or f"[datum]\npreset = {target}\n"


def analysis_job(analysis: str, target: str, q=None, p=None) -> Job:
    args = ["--analysis", analysis]
    suffix = ""
    if q is not None:
        args += ["--q", str(q)]
        suffix = f":q={q}"
    if p is not None:
        args += ["--p", str(p)]
        suffix = f":p={p}"
    return Job(f"{analysis}:{target}{suffix}", target, _ini(target), tuple(args), analysis, q, p)


def contract_job(name: str, ini: str, args=(), exit: int = 2) -> Job:
    return Job(f"contract:{name}", "", ini, tuple(args), exit=exit)


WORKLOADS = {
    "fold-criteria": [analysis_job(a, t) for a in ("fold", "criteria") for t in PRESETS]
    + [analysis_job("criteria", "E7"), analysis_job("criteria", "E8")],
    "chevalley-e": [
        analysis_job("chevalley", t)
        for t in ("A5-sc-flip", "D4-sc-triality", "D4-sc-cyclic3", "E6-sc-flip", "E7")
    ],
    "brute-count": [analysis_job("count", "A2-sc-flip", q=q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [analysis_job("count", "A4-sc-flip", q=2)]
    + [
        analysis_job("tangent", t, p=p)
        for p in (3, 5)
        for t in ("A2-sc-flip", "A4-sc-flip", "A6-flip")
    ]
    + [analysis_job("tangent", "A2-sc-flip", p=2)],
    "cli-contract": [
        contract_job("unreadable-ini", "this is not an ini file\n"),
        contract_job("unknown-preset", "[datum]\npreset = B9-nope\n"),
        contract_job(
            "non-permutation",
            "[datum]\ntype = A2\n[action]\nbasis_permutation = 0,0\n",
        ),
        contract_job(
            "non-unimodular",
            "[datum]\ntype = A2\n[action]\nmatrices = [[2,0],[0,1]]\n",
            exit=3,
        ),
        contract_job(
            "count-on-d4", _ini("D4-sc-triality"), ("--analysis", "count", "--q", "2"), exit=3
        ),
        contract_job("tangent-p4", _ini("A2-sc-flip"), ("--analysis", "tangent", "--p", "4")),
        contract_job(
            "e7-fold-limit", _ini("E7"), ("--analysis", "fold", "--limit-weyl", "1000"), exit=4
        ),
        # The last two crash with a traceback (exit 1) at the commit that
        # defined this benchmark; they stay so that the fix shows in ok_frac.
        contract_job("matrices-bare-int", "[datum]\ntype = A2\n[action]\nmatrices = [1]\n"),
        contract_job("count-q6", _ini("A2-sc-flip"), ("--analysis", "count", "--q", "6")),
    ],
}
