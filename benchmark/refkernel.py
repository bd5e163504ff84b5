"""Fixed pure-Python reference kernel for speed normalisation.

The sandbox this benchmark was written on runs a fixed Python loop at two
speeds that switch within seconds, and other tenants preempt it now and
then.  Each timed call is therefore bracketed by this kernel, and the call
is reported as t_measured * T_REF_NOMINAL / t_ref_adjacent.  The kernel
mixes the operations the program spends its time on: small-integer
arithmetic, tuple building, dict updates and Fraction arithmetic.
"""

from fractions import Fraction
from time import perf_counter

# The kernel's typical time on the reference machine (seconds).
T_REF_NOMINAL = 0.0025
# Mean of REPEATS back-to-back runs (about 12 ms): long enough to average
# over the sub-millisecond jitter, short enough to sit next to each call.
REPEATS = 5


def kernel():
    acc = 0
    rows = []
    for i in range(4000):
        row = (i, (i * 7) % 13, -i)
        acc = (acc * 31 + row[1] * row[2]) % 1000003
        rows.append(row)
    counts = {}
    for r in rows:
        counts[r[1]] = counts.get(r[1], 0) + r[0]
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(i % 7, i)
    return acc + len(counts) + f.denominator % 7


def measure():
    """Seconds taken by one kernel run, averaged over REPEATS runs."""
    t0 = perf_counter()
    for _ in range(REPEATS):
        kernel()
    return (perf_counter() - t0) / REPEATS
