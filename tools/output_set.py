"""Write the fixed output set and print one digest line per file.

    python tools/output_set.py OUTDIR

Runs a fixed set of experiments through ``coopevo.cli.main`` into OUTDIR
(which must be new or empty) and prints ``sha256  relative/path`` for each
of the 45 files written, sorted by path. A pure refactor must leave the
printout unchanged, so comparing two checkouts is a ``diff`` of their runs.

The digests are recorded in ``tools/output_set.sha256``, and
``tests/test_output_set.py`` checks a fresh run against them. A change that
alters outputs on purpose rewrites the record with

    python tools/output_set.py OUTDIR > tools/output_set.sha256

The printout opens with ``#`` lines that name what the digests depend on
besides the code: the python and numpy versions, the BLAS, and the core
type OpenBLAS picked its kernels for, which fixes the order of its sums.
Checkouts older than the record print no ``#`` lines; drop them to compare.

One BLAS thread is pinned before numpy loads, because the thread count can
reorder floating-point sums. The runs use relative ``--out`` directories
inside OUTDIR, so the manifests do not depend on where OUTDIR is. The
package is imported from this checkout's ``src``.
"""

import contextlib
import ctypes
import hashlib
import io
import os
import platform
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("COOPEVO_OUTDIR", None)  # it would override every --out
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

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


def openblas_core() -> str:
    """Core type of the loaded OpenBLAS, "none" without one, "unknown"
    where the loaded libraries cannot be listed."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    # numpy's 64-bit-integer build first: it runs numpy's matmul and solve
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                   "openblas_get_corename"):
        for path in libs:
            getter = getattr(ctypes.CDLL(path), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "none"


def environment() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# python {platform.python_version()}",
        f"# numpy {np.__version__}",
        f"# blas {blas.get('name')} {blas.get('version')}",
        f"# openblas-core {openblas_core()}",
    ]


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
    print("\n".join(environment()))
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(write_set(sys.argv[1]))
