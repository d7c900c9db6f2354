"""A tour of the command-line interface, driven as subprocesses.

Exit codes are part of the contract: 0 for success, 1 for a negative
verdict, 2 for a budget-limited Unknown, 3 for malformed input.  When
no --out directory is given, stdout carries exactly the artifact
payload, so redirecting it produces a file the CLI can read back.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

PY = [sys.executable, "-m", "pachner"]


def run(*args, expect=0):
    proc = subprocess.run([*PY, *args], capture_output=True, text=True)
    shown = " ".join(args)
    print(f"$ pachner {shown}")
    for line in (proc.stdout or proc.stderr).splitlines():
        print(f"   {line}")
    print(f"   [exit {proc.returncode}]")
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr)
    return proc.stdout


def tour(tmp):
    sphere = tmp / "sphere3.cx"
    sphere.write_text("0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
    torus = tmp / "torus7.cx"
    torus.write_text("".join(
        f"{i} {(i + 1) % 7} {(i + 3) % 7}\n{i} {(i + 2) % 7} {(i + 3) % 7}\n"
        for i in range(7)))

    run("fvec", str(sphere))
    run("homology", str(torus))
    run("validate", str(torus))

    # A move applied on stdout is itself a readable complex.
    out = run("move", "--apply", "STAR [0 1 2] 4", str(sphere))
    starred = tmp / "starred.cx"
    starred.write_text(out)
    run("fvec", str(starred))

    # Transcripts replay, and an inverse pair is the identity.
    t = tmp / "roundtrip.tr"
    t.write_text("STAR [0 1 2] 4\nWELD 4 [0 1 2]\n")
    out = run("replay", str(t), str(sphere))
    assert out == sphere.read_text()
    print("replay of a move and its inverse reproduced the input byte "
          "for byte\n")

    # Negative verdicts and malformed input use distinct exit codes.
    run("shell-find", str(torus), expect=1)
    bad = tmp / "bad.cx"
    bad.write_text("0 1 oops\n")
    run("fvec", str(bad), expect=3)

    # Artifacts: --out writes fixed file names and reports each one.
    run("shell-find", str(sphere), "--out", str(tmp / "art"))
    run("prove-equiv", str(sphere), str(torus), expect=1)

    print("all exit codes and artifacts as documented")


with tempfile.TemporaryDirectory(prefix="pachner-demo-") as workdir:
    tour(Path(workdir))
