#!/usr/bin/env python3
"""Write every committed golden file; the test suite checks them with this code.

`cli_goldens()` is the one table of CLI goldens.  Each config in
configs/ runs once per precision: `--precision fast` into
configs/golden/<name>/ and the default `--precision exact` into
configs/golden_exact/<name>/.  The precision is a label, recorded in
report.json and in provenance strings, so the fast tree holds the exact
tree's bytes in every other file.  Each config in tests/data/configs/ pins a
CLI value path that no shipped config reaches; it runs once, exact, into
tests/data/golden/<name>/.  SUBCOMMAND, the map from a config's kind to
its CLI subcommand, is kept here and nowhere else in the tests.

One child process (`run_child`) runs every CLI golden in turn through
`nilseqlab.cli.main(argv)`, with this checkout's src/ on PYTHONPATH and
NILSEQ_CACHE_DIR removed from its environment, into a scratch root that
mirrors the repo's layout.  Each output's timings.json is deleted,
because it is run-dependent by design.  The regeneration run also writes
tests/data/mertens_golden.json, the Mertens function M(N) at a few
checkpoints from the trial-division route, kept independent of the sieve
it checks.

`python scripts/make_goldens.py` starts that child in a scratch
directory beside the goldens and swaps each golden directory, and the
Mertens file, in only after the child exits 0, so a failed run leaves
every old golden as it was.  The test suite calls `run_child` once per
host environment into a temporary directory and byte-compares the result
with the committed files.

Usage: python scripts/make_goldens.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SUBCOMMAND = {
    "classify": "classify",
    "torus-seq": "seq",
    "nc-seq": "seq",
    "correlate": "correlate",
    "weyl": "weyl",
    "decompose": "decompose",
}

# (config directory, precision, golden tree), relative to the repo root
TREES = (
    ("configs", "fast", os.path.join("configs", "golden")),
    ("configs", "exact", os.path.join("configs", "golden_exact")),
    (os.path.join("tests", "data", "configs"), "exact",
     os.path.join("tests", "data", "golden")),
)
MERTENS = os.path.join("tests", "data", "mertens_golden.json")
MERTENS_CHECKPOINTS = (100, 10 ** 4, 10 ** 6)


class Golden(NamedTuple):
    name: str           # the config's file name without .json
    config: str         # absolute path of the config
    subcommand: str
    precision: str
    dest: str           # the golden directory, relative to the repo root

    def argv(self, out_root: str) -> list[str]:
        return [self.subcommand, "--config", self.config,
                "--out", os.path.join(out_root, self.dest),
                "--precision", self.precision]


def cli_goldens() -> list[Golden]:
    """Every CLI golden, one per config and precision, in a fixed order."""
    goldens = []
    for config_dir, precision, tree in TREES:
        names = sorted(f[:-5] for f in os.listdir(os.path.join(ROOT, config_dir))
                       if f.endswith(".json"))
        if not names:
            raise FileNotFoundError(f"no configs in {config_dir}")
        for name in names:
            config = os.path.join(ROOT, config_dir, f"{name}.json")
            with open(config) as f:
                kind = json.load(f)["kind"]
            goldens.append(Golden(name, config, SUBCOMMAND[kind], precision,
                                  os.path.join(tree, name)))
    return goldens


def run_child(out_root: str, env_extra: dict | None = None,
              reverse: bool = False, mertens: bool = False
              ) -> subprocess.CompletedProcess:
    """Write every CLI golden under out_root in one child process, in
    table order or reversed, plus the Mertens file when asked; the
    child's exit code is the first nonzero CLI exit code, or 0."""
    env = dict(os.environ)
    env.pop("NILSEQ_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_extra or {})
    flags = ["--reverse"] * reverse + ["--mertens"] * mertens
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", out_root, *flags],
        env=env, cwd=ROOT, capture_output=True, text=True)


def _child(out_root: str, reverse: bool, mertens: bool) -> int:
    from nilseqlab import cli

    goldens = cli_goldens()
    for g in reversed(goldens) if reverse else goldens:
        argv = g.argv(out_root)
        code = cli.main(argv)
        if code != 0:
            print(f"FAILED (exit {code}): {' '.join(argv)}", file=sys.stderr)
            return code
        os.remove(os.path.join(out_root, g.dest, "timings.json"))
    if mertens:
        _write_mertens(os.path.join(out_root, MERTENS))
    return 0


def _write_mertens(path: str) -> None:
    import numpy as np

    from nilseqlab.mobius import mobius_by_factorization

    mu = mobius_by_factorization(max(MERTENS_CHECKPOINTS))  # mu[0] holds 0
    partial = np.cumsum(mu.astype(np.int64))
    golden = {str(n): int(partial[n]) for n in MERTENS_CHECKPOINTS}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"method": "trial-division", "mertens": golden}, f,
                  indent=2, sort_keys=True)
        f.write("\n")


def main() -> int:
    work = tempfile.mkdtemp(prefix=".goldens.", dir=ROOT)
    try:
        new, old = os.path.join(work, "new"), os.path.join(work, "old")
        proc = run_child(new, mertens=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"FAILED: goldens left as they were (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode
        for path in [tree for _, _, tree in TREES] + [MERTENS]:
            if os.path.exists(os.path.join(ROOT, path)):
                os.makedirs(os.path.dirname(os.path.join(old, path)), exist_ok=True)
                os.rename(os.path.join(ROOT, path), os.path.join(old, path))
            os.rename(os.path.join(new, path), os.path.join(ROOT, path))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("golden outputs written under "
          + ", ".join(tree for _, _, tree in TREES) + " and " + MERTENS)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(_child(sys.argv[2], "--reverse" in sys.argv[3:],
                        "--mertens" in sys.argv[3:]))
    sys.exit(main())
