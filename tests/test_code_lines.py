import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = "\n".join([
    '"""Module docstring',
    'over two lines."""',
    "",
    "import os  # a trailing comment",
    "",
    "",
    "class C:",
    '    """Class docstring."""',
    "",
    "    def f(self, x):",
    "        '''Function docstring,",
    "        over two lines.'''",
    "        # a comment line",
    "        return os.path.join(",
    "            x,",
    '            "y",',
    "        )",
    "",
    'TEXT = """a string that is not a docstring',
    'spans two lines"""',
    "",
])


def test_counts_statement_lines_and_skips_docstrings_comments_and_blanks():
    # import, class, def, the four lines of the return, the two of TEXT.
    assert code_lines.code_lines(FIXTURE) == 9


def test_runs_on_the_package(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT / "src" / "profmatch")],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    rows = [line.split() for line in out]
    assert rows[-1][1] == "total"
    files = {Path(path).name: int(n) for n, path in rows[:-1]}
    assert set(files) == {p.name for p in (ROOT / "src" / "profmatch").glob("*.py")}
    assert all(n > 0 for n in files.values())
    assert int(rows[-1][0]) == sum(files.values())
    one = tmp_path / "fixture.py"
    one.write_text(FIXTURE)
    single = subprocess.run(
        [sys.executable, str(SCRIPT), str(one)], capture_output=True, text=True, check=True
    ).stdout.split()
    assert single == ["9", str(one), "9", "total"]
