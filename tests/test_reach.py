"""Every ``def`` in ``src/foldlab`` is entered by a command-line run or by
an acceptance criterion.

A child interpreter sets ``sys.setprofile`` before it imports foldlab,
calls ``cli.main`` on each row of ``RUNS`` (checking its exit code),
then every ``test_criterion_*`` of ``tests/test_acceptance.py``, and last
the process entry ``cli.process_main``, which freezes the child's heap and
exits; it prints the functions it entered.  The test lists each ``def`` of
``src/foldlab/*.py`` with ``ast``, nested ones included, and names the
ones never entered.  A fresh interpreter sees the calls made while the
modules import, and no earlier test can have warmed a cache.  The only
exemptions are the dunders in ``EXEMPT``, which are protocol or safety
code with no caller of their own.

Run ``PYTHONPATH=src python tests/test_reach.py`` to print the unreached
``def``s.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "foldlab"

# __repr__ and __hash__ serve the protocol; a record's __setattr__ only refuses
EXEMPT = {"__repr__", "__hash__", "__setattr__"}

# name -> INI text
CONFIGS = {
    "a2": "[datum]\ntype = A2\n\n[action]\nbasis_permutation = 1,0\n",
    "b3": "[datum]\ntype = B3\n\n[run]\nanalyses = all\nq = 2\np = 3\n",
    "torus": "[datum]\ntype = torus\nrank = 3\n\n[action]\n"
    "matrices = [[-1,0,0],[0,-1,0],[0,0,-1]]\n\n[base]\nprimes = 2\n",
    "bad-key": "[datum]\npreset = A2-sc-flip\nq = 2\n",
}

# (command line, exit code): every analysis, each exit code, and the edge
# paths no acceptance criterion takes; {name} is the path of CONFIGS[name]
# and {json} a fresh output path
RUNS = [
    (["presets"], 0),
    (["--help"], 0),
    (["run"], 2),
    (["run", "{bad-key}"], 2),
    (["run", "{a2}", "--analysis=all", "--q=3", "--p", "5", "--json", "{json}"], 0),
    (["run", "{b3}", "--analysis", "fold", "--analysis", "criteria", "--analysis", "chevalley"], 0),
    (["run", "{b3}"], 3),  # count needs an even type A flip
    (["run", "{a2}", "--analysis", "count", "--q", "2", "--limit-enum", "10"], 4),
    # the -1 torus has torsion (Z/2)^3, a 2-group over the one prime 2
    (["run", "{torus}", "--analysis", "fold", "--analysis", "criteria"], 0),
    # 101 has no prime factor below 100, so Miller-Rabin decides it
    (["run", "{a2}", "--analysis", "criteria", "--p", "101"], 0),
]


def _defs():
    """Map (file name, first line, name) of every def in src/foldlab, the
    line being the first decorator's when there is one as in
    co_firstlineno, to its dotted name for the report."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path.name, first, child.name)] = name[:-1]
            visit(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def _unreached(entered):
    defs = _defs()
    return [
        f"{f}:{line} {defs[f, line, name]}"
        for f, line, name in sorted(defs.keys() - entered)
        if name not in EXEMPT
    ]


def _entered():
    """Run the table and the acceptance criteria under a profiler; return
    the (file name, first line, name) of each src/foldlab function entered."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import foldlab.cli

        with tempfile.TemporaryDirectory() as tmp:
            paths = {"json": os.path.join(tmp, "out.json")}
            for name, text in CONFIGS.items():
                paths[name] = os.path.join(tmp, f"{name}.ini")
                with open(paths[name], "w") as handle:
                    handle.write(text)
            for argv, expected in RUNS:
                argv = [a.format(**paths) for a in argv]
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = foldlab.cli.main(argv)
                assert code == expected, (argv, code, expected, sink.getvalue())

        import test_acceptance

        for name in sorted(vars(test_acceptance)):
            if name.startswith("test_criterion_"):
                getattr(test_acceptance, name)()

        argv, sys.argv = sys.argv, ["foldlab", "presets"]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                foldlab.cli.process_main()
            raise AssertionError("process_main returned")
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        finally:
            sys.argv = argv
    finally:
        sys.setprofile(None)
    return {
        (os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
        for c in codes
        if pathlib.Path(c.co_filename).resolve().parent == SRC
    }


def test_every_def_is_reached():
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, __file__, "--entered"], capture_output=True, text=True, env=env
    )
    elapsed = time.monotonic() - start
    assert child.returncode == 0, child.stderr
    unreached = _unreached({tuple(row) for row in json.loads(child.stdout)})
    assert not unreached, "\n".join(unreached)
    assert elapsed < 6.0, elapsed


if __name__ == "__main__":
    if sys.argv[1:] == ["--entered"]:
        json.dump(sorted(_entered()), sys.stdout)
    else:
        for line in _unreached(_entered()):
            print(line)
