"""Every CLI report matches tests/golden/cli_reports.txt byte for byte.

The golden file holds, for each invocation below, its exit code, stdout and
stderr (without the wall_time_seconds line), replayed in-process.  To accept
an intended change, re-record with
`PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_reports.txt`
and say why in the change description.
"""

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from kcover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.txt"
ENV_DEFAULTS = ("KCOVER_MAX_STRUCTURES", "KCOVER_NODE_BUDGET")

GRAPHS = {
    "k4.txt": "4\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n",
    "w6.txt": "6\n0 1 3\n0 2 1\n0 3 2\n0 5 1\n1 2 2\n1 3 1\n1 5 2\n2 3 4\n2 4 1\n3 4 2\n4 5 3\n",
    "k5.txt": "5\n0 1 1\n0 2 1\n0 3 1\n0 4 1\n1 2 1\n1 3 1\n1 4 1\n2 3 1\n2 4 1\n3 4 1\n",
}
STRUCTURES = (("cycle", 3), ("cycle", 5), ("clique", 3), ("clique", 4))
FORMATS = ("text", "structured")


def _run(argv: list[str]) -> tuple[str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("wall_time_seconds="))
    block = f"=== {' '.join(argv)}\nexit={code}\n--- stdout\n{out.getvalue()}--- stderr\n{stderr}"
    return block, out.getvalue().splitlines()


def _cases(graph: str):
    """Every command on one graph; each produced cover is then verified."""
    for kind, k in STRUCTURES:
        spec = ["--k", str(k), "--kind", kind]
        for algorithm in ("basic", "improved"):
            cover_file = f"{graph}.{kind}{k}.{algorithm}.cover"
            for fmt in FORMATS:
                yield ["cover", graph, *spec, "--algorithm", algorithm, "--format", fmt], cover_file
            for fmt in FORMATS:
                yield ["verify", graph, *spec, "--cover-file", cover_file, "--format", fmt], None
        for fmt in FORMATS:
            yield ["exact", graph, *spec, "--format", fmt], None
    for k in (3, 4):
        for fmt in FORMATS:
            yield ["pack", graph, "--k", str(k), "--format", fmt], None


def render() -> str:
    """Run every case in a scratch directory and return the report document."""
    blocks = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in GRAPHS.items():
                Path(name).write_text(text)
            for name, text in GRAPHS.items():
                for argv, cover_file in _cases(name):
                    block, stdout = _run(argv)
                    blocks.append(block)
                    if cover_file and "text" in argv:
                        edges = next(line for line in stdout if line.startswith("cover="))[6:]
                        pairs = [e.replace("-", " ") for e in edges.split(",") if e]
                        Path(cover_file).write_text(text.split("\n", 1)[0] + "\n"
                                                    + "".join(p + "\n" for p in pairs))
            for fmt in FORMATS:
                blocks.append(_run(["ratio-study", "--k", "3", "--kind", "clique",
                                    "--n-range", "3:6", "--format", fmt])[0])
                blocks.append(_run(["ratio-study", "--k", "5", "--kind", "cycle",
                                    "--n-range", "5:7", "--format", fmt])[0])
            for argv in (
                ["cover", "k4.txt", "--k", "4", "--kind", "cycle", "--algorithm", "improved"],
                ["exact", "w6.txt", "--k", "3", "--kind", "cycle", "--node-budget", "1"],
                ["cover", "w6.txt", "--k", "3", "--kind", "cycle", "--max-structures", "1"],
            ):
                blocks.append(_run(argv)[0])
        finally:
            os.chdir(home)
    return "".join(blocks)


def _split(document: str) -> list[str]:
    return ["=== " + b for b in document.split("=== ") if b]


def test_cli_reports_match_golden(monkeypatch):
    for name in ENV_DEFAULTS:
        monkeypatch.delenv(name, raising=False)
    assert _split(render()) == _split(GOLDEN.read_text())


if __name__ == "__main__":
    for name in ENV_DEFAULTS:
        os.environ.pop(name, None)
    sys.stdout.write(render())
