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
    (1.0, 1): "482e11caa2d972de66b6f1feca0c167c492aee57656e4e84daddd29fd25fc71e",
    (1.0, 2): "40571ca08d41eb4b16a91ff02b8d656690819bb354adfad6ea74e87f4d4f5bd9",
    (1.0, 3): "fcef1002f072e233b5d72bf7a1a8853bf7a910579378c94a78eeaef92c5a06f4",
    (0.5, 1): "dbbdf03377460428ea7de2584020db47d28076aebcfab07a23e22be40ee4285f",
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
