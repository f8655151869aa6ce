"""Golden CLI transcripts: a SHA-256 over each command's argv, exit code and stdout.

Any change to the printed output of ``generate``, ``solve``, ``enumerate``,
``stats`` or ``oracle-check`` on these seeded inputs fails here.  A change
that alters output on purpose must say why and re-pin the digests.
"""

import contextlib
import hashlib
import io

import pytest

from profmatch.cli import CRITERION_TOKENS, main

GOLDEN = {
    (1.0, 1): "80360d83d3b4682de84c5ab9520617d90a38bd38a784b22f33194e2cd6969f0e",
    (1.0, 2): "a02bf56e80fcbec859d598d3458c41adf2db4100c4cc871ca2d49bb5ec679804",
    (1.0, 3): "fcef1002f072e233b5d72bf7a1a8853bf7a910579378c94a78eeaef92c5a06f4",
    (0.5, 1): "775be3becae3659c5bf893dbeacd307690b04ab23238b75db0e9b3d519d3534e",
    (0.5, 2): "73904faaffc2f97b4880a5a74beec165997977e233c6d21e52d2e5354e46aeb6",
    (0.5, 3): "dddb988f7fe7fc571844a8a14540126c0dac67a070cd3a7bbb1ddb52a9e3ba40",
}
ORACLE_CHECK = "05b47b3f1a0cc716428ec9d2d93f8c0861363114138ed1f1efcfbf62ac3e7c1e"


def _run(argv, transcript):
    """Run one command and fold its argv, exit code and stdout into ``transcript``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    transcript.update(f"$ {' '.join(argv)}\n{code}\n{out.getvalue()}".encode())
    return out.getvalue()


@pytest.mark.parametrize("density,seed", sorted(GOLDEN))
def test_cli_output_is_pinned(density, seed, tmp_path, monkeypatch):
    # ``stats`` prints the path it was given, so run from a fixed relative one.
    monkeypatch.chdir(tmp_path)
    transcript = hashlib.sha256()
    path = "instance.txt"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(_run(["generate", "--men", "30", "--women", "30",
                       "--density", str(density), "--seed", str(seed)], transcript))
    for criterion in CRITERION_TOKENS:
        _run(["solve", "--in", path, "--criterion", criterion], transcript)
    _run(["enumerate", "--in", path], transcript)
    _run(["stats", "--in", path, "--cap", "4"], transcript)
    assert transcript.hexdigest() == GOLDEN[density, seed]


def test_oracle_check_output_is_pinned():
    transcript = hashlib.sha256()
    _run(["oracle-check", "--n", "8", "--trials", "10", "--seed", "3"], transcript)
    assert transcript.hexdigest() == ORACLE_CHECK
