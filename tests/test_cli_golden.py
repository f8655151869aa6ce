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
    (1.0, 1): "c53471c34778bdfb7d19dcc3163f4e86463a2a139685c772f7244a8d35332d09",
    (1.0, 2): "c5bda8fedf661dd516cbb82a4fc2c92f1977fe6e51b88058d4a07fd3de308b03",
    (1.0, 3): "e9295d79ccfaee613b58a7be998c4cfdc387161c3fd422c003fad9050b022f91",
    (0.5, 1): "1629410c4d235391a9a4f1cf9a85a1f30be0ad1adf01dfd72a12dba581b3db73",
    (0.5, 2): "73904faaffc2f97b4880a5a74beec165997977e233c6d21e52d2e5354e46aeb6",
    (0.5, 3): "207dffbb9b03c8fe0cff30b7668b0c07929e604ff75359aeacde64446e7508ad",
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
