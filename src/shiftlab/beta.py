"""Beta-shifts: digit expansion of 1, normalization, counting.

For non-integer beta > 1 the expansion of 1 is computed greedily with the
remainder recurrence r_1 = beta, a_m = floor(r_m), r_{m+1} = beta*(r_m - a_m),
algebraically the same as a_n = floor(beta^n - sum a_i beta^(n-i)) but without
the catastrophic cancellation.  A word w is admissible iff every suffix is
lexicographically <= the normalized digit stream.

When the greedy expansion terminates (a_1..a_m followed by zeros) the literal
stream would accept words the entropy count rules out — e.g. for the golden
ratio it would admit 11 — so the terminating stream is replaced by the
quasi-greedy periodic stream (a_1..a_{m-1}(a_m - 1)) repeated.  A raw mode
keeps the literal stream for side-by-side comparison.

Word counts walk the standard beta-shift graph of the stream, one state per
matched digit, in exact integers; the cost does not depend on the alphabet,
so integer beta of any size counts beta^n directly.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

from .errors import PeriodNotDetected, ValidityExceeded

#: working precision (bits) for the remainder recurrence
DIGIT_PRECISION_BITS = 256
#: number of digits computed before giving up on termination
DEFAULT_HORIZON = 512
#: a remainder this close to an integer is read as that integer before
#: flooring; decimal literals with >= 30 digits keep the drift far smaller
DIGIT_SNAP_EPS = mp.mpf("1e-25")
#: a beta within this distance of an integer is treated as that integer.
#: It is DIGIT_SNAP_EPS itself: beta = n + d with d >= DIGIT_SNAP_EPS has
#: second remainder beta * d > DIGIT_SNAP_EPS, so no beta left unsnapped
#: reads as the terminating expansion "n" of length 1.
INTEGER_SNAP = DIGIT_SNAP_EPS

@dataclass(frozen=True)
class BetaShiftSpec:
    """Normalized presentation of a beta-shift.

    digits are stored as (preperiod, period); period == () means the stream
    is a finite-precision truncation only trusted up to validity_length.
    For integer beta the space is the full shift on `alphabet` symbols and
    the dominating stream is (beta-1) repeated.
    """

    beta: float
    alphabet: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    is_integer: bool
    validity_length: int

    def digits_prefix(self, n: int) -> tuple[int, ...]:
        """The stream's first n digits; raises beyond validity."""
        if n > self.validity_length:
            raise ValidityExceeded(f"{n} > validity length {self.validity_length}")
        # a truncation's preperiod holds every valid digit, so its tail is empty
        tail = range(n - len(self.preperiod))
        return self.preperiod[:n] + tuple(self.period[i % len(self.period)] for i in tail)


def _near_integer(b: mp.mpf) -> Optional[int]:
    nearest = int(mp.nint(b))
    if abs(b - nearest) < INTEGER_SNAP:
        return nearest
    return None


def _expand(b: mp.mpf) -> tuple[list[int], bool]:
    """Greedy digits until termination or DEFAULT_HORIZON digits, and
    whether the expansion terminated (in its last digit)."""
    digits: list[int] = []
    r = b
    for _ in range(DEFAULT_HORIZON):
        a = int(mp.floor(r + DIGIT_SNAP_EPS))
        digits.append(a)
        r = b * (r - a)
        if abs(r) < DIGIT_SNAP_EPS:
            return digits, True
    return digits, False


def quasi_greedy_normalize(beta: str, raw: bool = False) -> BetaShiftSpec:
    """Digit stream of the expansion of 1, normalized to be self-dominating.

    Terminating expansions a_1..a_m are rewritten to the periodic stream
    (a_1..a_{m-1}(a_m - 1)) repeated, unless raw=True, which keeps the
    literal a_1..a_m followed by zeros.  Streams that do not terminate
    within DEFAULT_HORIZON digits come back as truncations whose
    validity_length bounds every later query.
    """
    with mp.workprec(DIGIT_PRECISION_BITS):
        b = mp.mpf(beta)
        if not 1 < b <= sys.float_info.max:
            raise ValueError(f"beta = {beta} is not a number above 1 that fits a float")
        snapped = _near_integer(b)
        if snapped is not None:
            if snapped < 2:
                raise ValueError("integer beta must be >= 2")
            return BetaShiftSpec(beta=float(snapped), alphabet=snapped,
                                 preperiod=(), period=(snapped - 1,),
                                 is_integer=True, validity_length=1 << 62)
        digits, terminated = _expand(b)
        beta_f = float(b)
        alphabet = digits[0] + 1  # a_1 = floor(beta), symbols 0..floor(beta)

    if terminated:
        if raw:
            return BetaShiftSpec(beta=beta_f, alphabet=alphabet,
                                 preperiod=tuple(digits), period=(0,),
                                 is_integer=False, validity_length=1 << 62)
        if len(digits) == 1:
            # 1 = a_1/beta with a_1 = beta would make beta an integer, which
            # INTEGER_SNAP has already taken
            raise PeriodNotDetected("terminating expansion of length 1")
        quasi = tuple(digits[:-1]) + (digits[-1] - 1,)
        spec = BetaShiftSpec(beta=beta_f, alphabet=alphabet,
                             preperiod=(), period=quasi,
                             is_integer=False, validity_length=1 << 62)
    else:
        # representation error of beta grows by a factor beta per step, so
        # digits are only trustworthy while beta^m * 2^-prec stays small
        drift_limit = int(0.75 * DIGIT_PRECISION_BITS * math.log(2) / math.log(beta_f))
        validity = min(DEFAULT_HORIZON, max(drift_limit, 1))
        spec = BetaShiftSpec(beta=beta_f, alphabet=alphabet,
                             preperiod=tuple(digits[:validity]), period=(),
                             is_integer=False, validity_length=validity)

    _check_self_maximal(spec)
    return spec


def _check_self_maximal(spec: BetaShiftSpec) -> None:
    """Verify sigma^n(a) <= a for n up to one full cycle of the presentation."""
    span = len(spec.preperiod) + max(len(spec.period), 1)
    limit = min(2 * span, spec.validity_length)
    ref = spec.digits_prefix(limit)
    for shift in range(1, min(span, limit)):
        tail = ref[shift:]
        head = ref[:len(tail)]
        if tail > head:
            raise PeriodNotDetected(
                f"stream is not self-dominating at shift {shift}; not a valid presentation")


def beta_count_words(spec: BetaShiftSpec, n: int) -> int:
    """Exact number of admissible n-words: the paths of length n from state 0
    of the standard beta-shift graph (Parry 1960; Blanchard 1989).

    State i means the word ends in the stream's first i digits t_1..t_i,
    read since its last reset.  Digit t_{i+1} leads to state i+1 and each
    smaller digit to state 0, so one step is v'[0] = sum_i v_i t_{i+1},
    v'[i+1] = v_i.  A periodic stream folds the state after preperiod +
    period back to the preperiod.  A truncated stream needs states 0..n.
    Each step costs one pass over the states, whatever the alphabet size.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if n > spec.validity_length:
        raise ValidityExceeded(f"n={n} > validity {spec.validity_length}")
    if spec.period:
        fold = len(spec.preperiod)
        digits = spec.digits_prefix(fold + len(spec.period))
    else:
        # an n-word reaches state n only with its last digit, so the digit
        # and the successor given to that state are never used
        fold = n
        digits = spec.digits_prefix(n) + (0,)
    counts = [1] + [0] * (len(digits) - 1)
    for _ in range(n):
        reset = sum(map(operator.mul, counts, digits))
        folded = counts.pop()
        counts.insert(0, reset)
        counts[fold] += folded
    return sum(counts)


def beta_entropy_estimate(spec: BetaShiftSpec, n: int) -> float:
    """(1/n) log of the n-word count; decreases toward log beta."""
    return math.log(beta_count_words(spec, n)) / n
