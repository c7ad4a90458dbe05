"""Fixed calibration program, run as its own process before every step.

Usage: python3 perfbench/calib.py

It does the same small job on every run, whatever the seed and whatever
version of svkit is checked out (it does not import svkit): start an
interpreter, import numpy, format and parse tab-separated lines, and sort
and transform an array.  That is the mix of work an svkit command does, on
one thread: BLAS is not called, so the second core does not speed it up.
run.py times it like a command, and divides each pass's time by the mean
calibration time of the same pass, so a pass that ran while the machine was
slow is compared at the machine's speed of that moment.
"""

from __future__ import annotations

import numpy as np


def main() -> None:
    lines = [f"m{i % 997}\tt{i}\t{(i * 7919) % 1000 / 1000:.6f}\n" for i in range(40_000)]
    parsed = {}
    for line in lines:
        model, test, score = line.rstrip("\n").split("\t")
        parsed[test] = (model, float(score))
    x = np.random.default_rng(0).standard_normal(300_000)
    np.sort(x)
    np.cumsum(np.log1p(np.abs(x)))


if __name__ == "__main__":
    main()
