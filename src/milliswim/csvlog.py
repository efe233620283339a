"""The data-CSV writer, in a module that imports only the standard library.
Run as a script, it is the child interpreter of LogWriter: it reads float64
blocks from stdin and passes their rows to write_csv."""

import os
import sys

LOG_BLOCK = 1024  # rows per block: 1024 rows of 8 float64 fill one 64 KiB pipe buffer
# The child's exit code after an OSError; its stderr then holds the error's errno,
# strerror and filename (if any), NUL-separated, in the filesystem encoding.
OSERROR_EXIT = 3


def write_csv(path, header: str, row_format: str, rows) -> None:
    """Write a data CSV: the header, then row_format % row per row, each line
    ended by CRLF as csv.writer ends it. The formats fix every float's text."""
    with open(path, "w", newline="") as f:
        f.write(header + "\r\n")
        f.writelines(map((row_format + "\r\n").__mod__, rows))


class LogWriter:
    """A context that writes the CSV of the float64 arrays cols, which grow
    while it is open, in a child interpreter: send passes it their full blocks
    of LOG_BLOCK rows, a clean exit the rest. The child is the same interpreter
    binary and gets the exact doubles, so the bytes are an in-process
    write_csv's. A child that fails is reaped and its error raised at the next
    send, leaving what it wrote; if the block raises otherwise, the child is
    killed and the CSV removed."""

    def __init__(self, path, header: str, row_format: str, cols):
        import subprocess  # here, so that importing milliswim does not load it

        self.path, self.cols, self.sent = path, cols, 0
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", __file__, str(path), header, row_format],
            stdin=subprocess.PIPE, stderr=subprocess.PIPE)

    def __enter__(self):
        return self

    def send(self, last: bool = False) -> None:
        """Send the full blocks not yet sent (with last, every row not yet
        sent), each block column after column."""
        n = len(self.cols[0])
        stop = n if last else n - n % LOG_BLOCK
        for lo in range(self.sent, stop, LOG_BLOCK):
            try:
                self.proc.stdin.write(
                    b"".join([c[lo:min(lo + LOG_BLOCK, stop)] for c in self.cols]))
            except BrokenPipeError:  # the child has failed: raise its error now
                self._wait()
                raise
        self.sent = stop

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.proc.returncode is not None:  # send reaped the child and raised its error
            return
        if exc_type is not None:
            self.proc.kill()
            self.proc.communicate()
            try:
                os.unlink(self.path)
            except OSError:  # never made, or a directory the child could not open
                pass
            return
        self.send(last=True)
        self._wait()

    def _wait(self) -> None:
        """Close the child's stdin, wait for it, and raise its error, if any."""
        err = self.proc.communicate()[1]
        if self.proc.returncode == OSERROR_EXIT:  # the same OSError as in-process
            errno, *text = map(os.fsdecode, err.split(b"\0"))
            raise OSError(int(errno), *text)
        if self.proc.returncode:
            raise RuntimeError(f"log writer exited with {self.proc.returncode}: "
                               f"{err.decode(errors='replace').strip()}")


def _rows(stream, ncols: int):
    """The rows of the blocks read from stream until EOF. A block is LOG_BLOCK
    rows (the last one fewer) of ncols float64 columns, column after column."""
    while block := stream.read(LOG_BLOCK * ncols * 8):
        a = memoryview(block).cast("d")
        n = len(a) // ncols
        yield from zip(*[a[c * n:(c + 1) * n] for c in range(ncols)])


if __name__ == "__main__":
    path, header, row_format = sys.argv[1:]
    try:
        write_csv(path, header, row_format, _rows(sys.stdin.buffer, header.count(",") + 1))
    except OSError as e:
        fields = [str(e.errno), e.strerror] + ([e.filename] if e.filename is not None else [])
        sys.stderr.buffer.write(b"\0".join(map(os.fsencode, fields)))
        sys.exit(OSERROR_EXIT)
