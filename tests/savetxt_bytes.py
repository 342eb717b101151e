"""Check that walkmf's text outputs hold the bytes np.savetxt writes for
the values they hold.

    python tests/savetxt_bytes.py OUT_DIR/target.csv OUT_DIR/embeddings_w.txt ...

A `.csv` file (a matrix or a vector) is compared with
np.savetxt(np.loadtxt(f), fmt="%.17g", delimiter=","); an embedding file with
its 'n d' header and np.savetxt(..., fmt=["%d"] + ["%.17g"] * d,
delimiter=" "). Exits 1 naming the first file that differs.
"""

import io
import sys

import numpy as np


def expected_bytes(path: str) -> bytes:
    buffer = io.BytesIO()
    if path.endswith(".csv"):
        np.savetxt(buffer, np.loadtxt(path, delimiter=",", ndmin=2), fmt="%.17g", delimiter=",")
        return buffer.getvalue()
    with open(path, "rb") as fh:
        head = fh.readline()
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    np.savetxt(buffer, rows, fmt=["%d"] + ["%.17g"] * (rows.shape[1] - 1), delimiter=" ")
    return head + buffer.getvalue()


def main(paths: list) -> int:
    for path in paths:
        with open(path, "rb") as fh:
            if fh.read() != expected_bytes(path):
                print(f"{path}: not the bytes np.savetxt writes", file=sys.stderr)
                return 1
    print(f"{len(paths)} files hold np.savetxt's bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
