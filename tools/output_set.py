"""Write the fixed output set and print one digest line per file.

    python tools/output_set.py OUTDIR

Runs a fixed set of experiments through ``coopevo.cli.main`` into OUTDIR
(which must be new or empty) and prints ``sha256  relative/path`` for each
of the 45 files written, sorted by path. A pure refactor must leave the
printout unchanged, so comparing two checkouts is a ``diff`` of their runs.

One BLAS thread is pinned before numpy loads, because the thread count can
reorder floating-point sums. The runs use relative ``--out`` directories
inside OUTDIR, so the manifests do not depend on where OUTDIR is. The
package is imported from this checkout's ``src``.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("COOPEVO_OUTDIR", None)  # it would override every --out
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coopevo import cli  # noqa: E402

SMALL = ["--p", "20", "--q", "4", "--s-sep", "5"]
RUNS = {
    f"100d-{alg}": ["--function", "f01", "--function", "f10", "--function", "f14", "--dim", "100",
                    "--budget", "4000", "--runs", "2", "--seed", "1", "--algorithm", alg]
    for alg in ("sacc", "shade-cc")
}
RUNS.update({
    f"40d-{alg}": ["--function", "f05", "--dim", "40", "--budget", "3000", "--runs", "2",
                   "--seed", "3", "--visit-len", "3", "--algorithm", alg, *SMALL]
    for alg in ("sacc", "shade-cc")
})
RUNS["20d-sacc"] = ["--function", "f01", "--dim", "20", "--budget", "1500", "--runs", "2",
                    "--seed", "2", "--d-factor", "1", "--algorithm", "sacc", *SMALL]


def write_set(outdir: str) -> int:
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        print(f"error: {root} is not empty", file=sys.stderr)
        return 2
    os.chdir(root)
    for name, args in RUNS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["run", *args, "--out", name])
        if status != 0:
            print(f"error: run {name} exited with {status}", file=sys.stderr)
            return status
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(write_set(sys.argv[1]))
