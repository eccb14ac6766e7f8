"""Output checks for benchmark runs.

A check compares the output files of one run with a reference: a golden
directory, another run of the same config, or known properties of the
Mobius function.  It returns a verdict:

- "ok": the outputs match (byte for byte where bytes are required);
- "drift": bytes differ but every number is within the tolerance, so the
  result is right but the byte-identity promise is broken;
- "wrong": a run failed, a file is missing, or a number is off by more
  than the tolerance.

A run whose verdict is not "ok" counts as failed; a benchmark result is
correct only when no run is "wrong".
"""

from __future__ import annotations

import json
import math
import os

TOLERANCE = 1e-9        # the exact-versus-fast tolerance of the test suite
SKIP = ("timings.json",)

OK, DRIFT, WRONG = "ok", "drift", "wrong"
ORDER = {OK: 0, DRIFT: 1, WRONG: 2}


def worst(*verdicts: tuple[str, str]) -> tuple[str, str]:
    """The most severe of several (verdict, reason) pairs."""
    return max(verdicts, key=lambda v: ORDER[v[0]])


def read_outputs(out_dir: str) -> dict[str, bytes]:
    """Every output file of a run except the timings, by name."""
    if not os.path.isdir(out_dir):
        return {}
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name not in SKIP:
            with open(os.path.join(out_dir, name), "rb") as f:
                files[name] = f.read()
    return files


def _close(a, b, tol: float, path: str, alias: tuple[str, str]) -> str | None:
    """First place where two parsed JSON values differ beyond tol.

    Strings match when equal after replacing alias[0] by alias[1] in a:
    provenance strings name the precision route that made them."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(a)} != {sorted(b)}"
        for k in a:
            why = _close(a[k], b[k], tol, f"{path}.{k}", alias)
            if why:
                return why
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            why = _close(x, y, tol, f"{path}[{i}]", alias)
            if why:
                return why
        return None
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        if math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol:
            return None
        return f"{path}: {a!r} vs {b!r}"
    if isinstance(a, str) and isinstance(b, str) and a.replace(*alias) == b:
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


def _csv_cells(text: str) -> list[list]:
    rows = []
    for line in text.splitlines():
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


def _parse(name: str, data: bytes, ignore: tuple[str, ...]):
    text = data.decode()
    if name.endswith(".json"):
        value = json.loads(text)
        if isinstance(value, dict):
            value = {k: v for k, v in value.items() if k not in ignore}
        return value
    return _csv_cells(text)


def compare(got: dict[str, bytes], want: dict[str, bytes], *,
            exact: bool, ignore: tuple[str, ...] = (),
            alias: tuple[str, str] = ("", ""),
            tol: float = TOLERANCE) -> tuple[str, str]:
    """Compare two runs' output files.

    Top-level JSON keys named in `ignore` are left out of the comparison.
    With `exact`, files must be equal byte for byte, or, for JSON with
    ignored keys, equal value for value (floats round-trip through JSON,
    so this is bit equality); any other difference is at least a drift.
    Without it, files only have to agree within tol, strings up to
    `alias` (see _close).
    """
    if not want:
        return WRONG, "reference has no outputs"
    if sorted(got) != sorted(want):
        return WRONG, f"files {sorted(got)} != {sorted(want)}"
    verdict = (OK, "")
    for name in sorted(want):
        if got[name] == want[name]:
            continue
        try:
            a, b = _parse(name, got[name], ignore), _parse(name, want[name], ignore)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return WRONG, f"{name}: unreadable ({exc})"
        if exact and ignore and name.endswith(".json") and a == b:
            continue
        why = _close(a, b, tol, name, alias)
        if why:
            return WRONG, why
        if exact:
            verdict = worst(verdict, (DRIFT, f"{name}: bytes differ within {tol}"))
    return verdict


def report_ok(files: dict[str, bytes]) -> tuple[str, str]:
    """The run wrote a report with status ok."""
    if "report.json" not in files:
        return WRONG, "no report.json"
    try:
        report = json.loads(files["report.json"])
    except json.JSONDecodeError as exc:
        return WRONG, f"report.json unreadable ({exc})"
    if report.get("status") != "ok":
        return WRONG, f"report status {report.get('status')!r}"
    return OK, ""


def mobius_sums_plausible(files: dict[str, bytes]) -> tuple[str, str]:
    """Number-theoretic checks on a correlate report of mobius-mix.

    Against mu itself, N*S(N) counts squarefree n <= N, so it is an
    integer within sqrt(N) of 6N/pi^2.  Against a constant c, N*S(N)/c is the Mertens
    function, an integer below sqrt(N) in size for N < 1e14.  Any other
    bounded sequence of bound 1 has |S(N)| <= 1.
    """
    report = json.loads(files["report.json"])
    seq = report["config"]["sequence"]
    res = report["results"]
    for n, (re, im) in zip(res["checkpoints"], res["sums"]):
        if seq["type"] == "mobius":
            count = re * n
            if abs(count - round(count)) > 1e-6 or abs(im) > 1e-12 \
                    or abs(count - 6 * n / math.pi ** 2) > math.sqrt(n):
                return WRONG, f"squarefree count at N={n}: {count!r}"
        elif seq["type"] == "constant":
            c = seq.get("re", 0.0)
            m = re * n / c
            if abs(m - round(m)) > 1e-6 or abs(m) > math.sqrt(n) \
                    or abs(im) > 1e-12:
                return WRONG, f"Mertens value at N={n}: {m!r}"
        elif abs(complex(re, im)) > 1 + 1e-12:
            return WRONG, f"|S({n})| = {abs(complex(re, im))!r} > 1"
    return OK, ""


class Checker:
    """Applies the workload's checks to each pass of runs.

    Every run is held against the first run of the same config and
    precision in this invocation, bit for bit except for the thread count
    that report.json records: reruns, thread counts and cold against warm
    cache must not change the output.  On top of that:

    - shipped: fast runs byte-compare against configs/golden/, exact runs
      agree with the goldens within the tolerance, ignoring `precision`
      and the route name in provenance strings;
    - phase-sweep: a fast run agrees with the exact run of its config in
      the same pass within the tolerance (the fast route is the one
      blamed, as the approximation);
    - mobius-mix: the sums pass `mobius_sums_plausible`.
    """

    def __init__(self, workload: str, root: str):
        self.workload = workload
        self.golden_root = os.path.join(root, "configs", "golden")
        self.first: dict[tuple[str, str], dict[str, bytes]] = {}
        self.goldens: dict[str, dict[str, bytes]] = {}

    def check_pass(self, runs: list) -> list[tuple[str, str]]:
        """Verdicts for a pass, given as (op, exit code, output files)."""
        done = {(op.key, op.precision): files
                for op, code, files in runs if code == 0}
        return [self._check(op, code, files, done) for op, code, files in runs]

    def _check(self, op, exit_code: int, files: dict[str, bytes],
               done: dict) -> tuple[str, str]:
        if exit_code != 0:
            return WRONG, f"exit code {exit_code}"
        verdict = report_ok(files)
        if verdict[0] != OK:
            return verdict
        ident = (op.key, op.precision)
        if ident in self.first:
            verdict = worst(verdict, compare(files, self.first[ident],
                                             exact=True, ignore=("threads",)))
        else:
            self.first[ident] = files
        if self.workload == "shipped":
            if op.key not in self.goldens:
                self.goldens[op.key] = read_outputs(
                    os.path.join(self.golden_root, op.key))
            golden = self.goldens[op.key]
            if op.precision == "fast":
                return worst(verdict, compare(files, golden, exact=True))
            return worst(verdict, compare(files, golden, exact=False,
                                          ignore=("precision",),
                                          alias=("exact", "fast")))
        if self.workload == "phase-sweep" and op.precision == "fast":
            exact = done.get((op.key, "exact"))
            if exact is None:
                return WRONG, "the exact run of this config failed"
            return worst(verdict, compare(files, exact, exact=False,
                                          ignore=("precision",),
                                          alias=("fast", "exact")))
        if self.workload == "mobius-mix":
            return worst(verdict, mobius_sums_plausible(files))
        return verdict
