"""Run a command and fail when its peak resident set size exceeds a bound.

Usage: python .github/peak_rss.py MAX_MIB STDOUT_FILE -- CMD...

The command's standard output goes to STDOUT_FILE.  A command that exits
nonzero fails this script too.  The peak is the largest resident set any
waited-for child process reached, as ``getrusage(RUSAGE_CHILDREN)`` reports
it; the script prints it and exits 1 when it is above MAX_MIB.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        sys.exit(__doc__.split("\n\n")[1])
    bound, stdout, command = float(argv[0]), argv[1], argv[3:]
    with open(stdout, "w") as out:
        subprocess.run(command, stdout=out, check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak:.1f} MiB")
    return 0 if peak <= bound else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
