"""Compare every CLI golden with the output of the installed package.

    pip install .
    python tests/check_installed.py

Runs each entry of ``tests/golden/manifest.json`` through the ``periodica``
console script on ``PATH`` and compares its stdout with the pinned file,
byte for byte.  The commands run from the repository root, where the
manifest's sample paths point, with ``PYTHONPATH`` removed: a console script
does not put its working directory on ``sys.path``, so the package comes
from the installation and not from ``src/``.  Prints one line per golden and
exits 1 if any differs.  Stdlib only; pytest does not collect this file.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


def main() -> int:
    exe = shutil.which("periodica")
    if exe is None:
        print("no periodica console script on PATH", file=sys.stderr)
        return 1
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    differ = []
    for name, argv in sorted(manifest.items()):
        proc = subprocess.run([exe, *argv], cwd=ROOT, env=env,
                              capture_output=True)
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            same = proc.returncode == 0 and proc.stdout == fh.read()
        print(("same    " if same else "DIFFERS ") + name)
        if not same:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            differ.append(name)
    if differ:
        print(f"{len(differ)} of {len(manifest)} goldens differ: "
              + " ".join(differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
