"""Parse a byte span of a `y,x1,...,xp` CSV file, with numpy alone.

`models.load_dataset` cuts a large file into parts at line ends, parses
the first part itself and hands each other one to this file run as a
script:

    python _csvpart.py PATH START STOP

which parses the data rows in bytes [START, STOP) of PATH.  It writes
(rows, cols) as two native int64 and then the parsed rows as native
float64 in C order to standard output, and exits 0.  On a parse error it
exits non-zero with nothing on standard output, and the caller parses the
part itself to report the error.  The script imports numpy and nothing
from the package, whose `__init__` imports scipy, so it starts in the time
Python and numpy take.
"""

import io
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


class _Span(io.RawIOBase):
    """The bytes [start, stop) of the binary file `fh`, read from `start`."""

    def __init__(self, fh, start: int, stop: int):
        fh.seek(start)
        self._fh, self._left = fh, stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._fh.readinto(memoryview(buf)[:self._left])
        self._left -= n
        return n


def parse(path, skiprows: int = 1, span: tuple[int, int] | None = None) -> np.ndarray:
    """The data rows after the first `skiprows` lines of `path`, or, given
    a `span` (start, stop), those in its bytes [start, stop), as a
    (rows, cols) float64 array.

    Either way the bytes are decoded as UTF-8 with universal newlines and
    empty lines are not rows, so when each span starts just after a '\\n'
    the rows of a file are those of its spans, to the bit.
    """
    with warnings.catch_warnings():
        # no rows is an error only for the whole file; the caller decides
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        if span is None:
            return np.loadtxt(path, skiprows=skiprows, ndmin=2, encoding="utf-8", **CSV_FORMAT)
        with open(path, "rb") as fh, io.TextIOWrapper(
                _Span(fh, *span), encoding="utf-8", newline=None) as text:
            return np.loadtxt(text, ndmin=2, **CSV_FORMAT)


def main(argv) -> int:
    rows = parse(argv[0], span=(int(argv[1]), int(argv[2])))
    out = sys.stdout.buffer
    out.write(SHAPE.pack(*rows.shape))
    out.write(rows.reshape(-1).view(np.uint8))
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
