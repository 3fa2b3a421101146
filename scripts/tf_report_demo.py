#!/usr/bin/env python3
"""Produce the trace-formula term report for a Gaussian pair.

Usage: python scripts/tf_report_demo.py [width] [out.json]

Includes the truncation fit, so the cuspidal remainder line is populated;
a report takes about 1.2 s on a 2-core host.
"""

import sys

from seltrace.cli import main as cli_main


def main() -> int:
    width = sys.argv[1] if len(sys.argv) > 1 else "0.5"
    argv = ["tf", "report", "--h", "gaussian", "--width", width]
    if len(sys.argv) > 2:
        argv += ["--out", sys.argv[2]]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
