"""The reference for `cli-oneshot`: a fresh interpreter doing fixed work.

    python3 perfbench/reference_child.py

It starts the way a `parkhopf` command does (same interpreter, same
environment), imports the standard-library modules the package imports,
and runs `common.reference_loop`'s loop ten times over.  It shares no code
with the package, so its wall time tracks only how fast the machine starts
processes, loads modules and runs Python at that moment.  Prints the
number of distinct keys, which is always 55.
"""
import argparse  # noqa: F401 - imported for its load time, as the CLI does
import bisect  # noqa: F401
import collections  # noqa: F401
import dataclasses  # noqa: F401
import functools  # noqa: F401
import itertools  # noqa: F401
import json
import math  # noqa: F401
import numbers  # noqa: F401
import operator  # noqa: F401
import random  # noqa: F401
import typing  # noqa: F401
from fractions import Fraction

acc: dict = {}
one = Fraction(1)
for i in range(15000):
    key = tuple(sorted((i % 7 + 1, i % 5 + 1, i % 3 + 1)))
    acc[key] = acc.get(key, Fraction(0)) + one
    if i % 100 == 0:
        acc = dict(acc)
print(json.dumps(len(acc)))
