#!/usr/bin/env python3
"""Regenerate the golden outputs for every shipped and pinned config.

Each config in configs/ runs through the CLI once per precision:
`--precision fast` into configs/golden/<name>/ and the default
`--precision exact` into configs/golden_exact/<name>/.  Each config in
tests/data/configs/ pins a CLI value path that no shipped config
reaches; it runs once, exact, into tests/data/golden/<name>/.  The CSV
and JSON artifacts there are committed and compared byte-for-byte by
the test suite.  Timings are deleted because they are run-dependent by
design.

The CLI runs from this checkout's src/ and writes into a temporary
directory beside the golden one; the old golden directory is replaced
only after the CLI exits 0, so a failed run leaves it as it was.

Usage: python scripts/make_goldens.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIG_DIR = os.path.join(ROOT, "configs")
PINNED_DIR = os.path.join(ROOT, "tests", "data")
# config directory -> {precision: golden tree}
GOLDEN_DIRS = {
    CONFIG_DIR: {
        "fast": os.path.join(CONFIG_DIR, "golden"),
        "exact": os.path.join(CONFIG_DIR, "golden_exact"),
    },
    os.path.join(PINNED_DIR, "configs"): {
        "exact": os.path.join(PINNED_DIR, "golden"),
    },
}

SUBCOMMAND = {
    "classify": "classify",
    "torus-seq": "seq",
    "nc-seq": "seq",
    "correlate": "correlate",
    "weyl": "weyl",
    "decompose": "decompose",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def write_golden(config: str, subcommand: str, precision: str, dest: str) -> int:
    """Run one config into dest; return the CLI's exit code."""
    parent = os.path.dirname(dest)
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f".{os.path.basename(dest)}.", dir=parent)
    try:
        out = os.path.join(work, "out")
        cmd = [sys.executable, "-m", "nilseqlab.cli", subcommand,
               "--config", config, "--out", out, "--precision", precision]
        print("+", " ".join(cmd))
        code = subprocess.run(cmd, env=_child_env()).returncode
        if code != 0:
            return code
        timings = os.path.join(out, "timings.json")
        if os.path.exists(timings):
            os.remove(timings)
        if os.path.isdir(dest):
            os.rename(dest, os.path.join(work, "old"))
        os.rename(out, dest)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    for config_dir, trees in GOLDEN_DIRS.items():
        configs = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
        if not configs:
            print(f"no configs found in {config_dir}", file=sys.stderr)
            return 1
        for name in configs:
            path = os.path.join(config_dir, name)
            with open(path) as f:
                subcommand = SUBCOMMAND[json.load(f)["kind"]]
            for precision, tree in trees.items():
                code = write_golden(path, subcommand, precision,
                                    os.path.join(tree, name[:-5]))
                if code != 0:
                    print(f"FAILED: {name} --precision {precision} (exit {code})",
                          file=sys.stderr)
                    return code
    print("golden outputs written under "
          + ", ".join(t for trees in GOLDEN_DIRS.values() for t in trees.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
