"""Parse a run of lines of a `y,x1,...,xp` CSV file, with numpy alone.

`models.load_dataset` cuts a large file into parts at line ends, parses
the first part itself and hands each other one to this file run as a
script:

    python _csvpart.py PATH SKIP ROWS

which parses the ROWS data rows (all the rest if ROWS is -1) after the
first SKIP lines of PATH.  It writes (rows, cols) as two native int64 and
then the parsed rows as native float64 in C order to standard output, and
exits 0.  On a parse error it exits non-zero with nothing on standard
output, and the caller parses the part itself to report the error.  The
script imports numpy and nothing from the package, whose `__init__`
imports scipy, so it starts in the time Python and numpy take.
"""

import struct
import sys
import warnings

if __name__ == "__main__":
    # run as a script, this file's directory, the package, leads the import
    # path, where the package's modules would shadow top-level ones
    del sys.path[0]

import numpy as np

# the accepted CSV dialect, shared by the bulk parse and the error scan
CSV_FORMAT = dict(delimiter=",", quotechar='"', comments=None, dtype=float)
# what a worker writes ahead of its rows: (rows, cols)
SHAPE = struct.Struct("=qq")


def parse(path, skiprows: int = 1, max_rows: int | None = None) -> np.ndarray:
    """The first `max_rows` data rows (all if None) after the first
    `skiprows` lines of `path`, as a (rows, cols) float64 array.

    The file is decoded as UTF-8 with universal newlines.  Empty lines
    count towards `skiprows` but are not rows, so the rows of a file are
    those of its parts, to the bit, when each part skips the lines before
    it and reads the rows in it.
    """
    with warnings.catch_warnings():
        # no rows is an error only for the whole file; the caller decides
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy >= 1.23 says so when an empty line falls within max_rows
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
        return np.loadtxt(path, skiprows=skiprows, max_rows=max_rows, ndmin=2,
                          encoding="utf-8", **CSV_FORMAT)


def main(argv) -> int:
    path, skiprows, max_rows = argv[0], int(argv[1]), int(argv[2])
    rows = parse(path, skiprows, None if max_rows < 0 else max_rows)
    out = sys.stdout.buffer
    out.write(SHAPE.pack(*rows.shape))
    out.write(rows.reshape(-1).view(np.uint8))
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
