"""Witness-orbit synthesis: gluing measure-typical blocks with exact bridges.

Each gap class names a set of orbits separating two recurrence/regularity
classes.  A witness is a finite symbol stream built to the class recipe:
blocks typical for the recipe's measures, joined by bridges of length
exactly M (the mixing gap), so every scheduled window reproduces its block
verbatim.  The accompanying certificate carries the recipe's measure set K,
its exact entropy/integral/support facts, and the statistical thresholds
the classifier must confirm on the stream.

Finite horizons force concrete block-growth laws (the asymptotic recipes
leave them free).  Two layouts are used:

* dwell layout (V_NOT_W, I_NOT_QW): low-mix material up to N/2, then a
  dwell on the high-mix endpoint.  Cumulative visit ratios are low-pass:
  a checkpointed min needs the low phase to fill the first half and the
  max needs the dwell to fill the second, one dip + one peak per horizon.
* round layout (the other entropy classes): rounds of linearly or
  geometrically growing length, each split into sub-blocks in the round's
  mixture proportions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import islice, takewhile
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import rng
from .errors import (CertificateMismatch, IrregularityUnavailable, NoProperSubshift,
                     NotAdmissible, NotPrimitive)
from .measures import (InvariantMeasure, MarkovMeasure, Mixture, PeriodicMeasure,
                       Potential, entropy, equilibrium_measure, has_full_support,
                       integrate, is_ergodic, markov_measure, markov_word_probability,
                       mixture, parry_measure, periodic_measure, piece_is_single_orbit,
                       sample_typical_words, support, support_pieces, walk_mismatch)
from .shifts import (SYMBOL_DTYPE, ShiftSpace, Word, connecting_word, cycle_word_for,
                     is_admissible, iter_words, largest_proper_scc_subgraph, least_cycle,
                     primitive_cycles, subshift_from_edges, topological_entropy)
from .spectrum import edge_system, has_irregular


class GapClass(str, Enum):
    """Which gap between recurrence/regularity classes the witness targets."""

    W_NOT_QR = "W_NOT_QR"                           # weakly a.p. yet not quasiregular
    V_NOT_W = "V_NOT_W"                             # support-matching QW point, not weakly a.p.
    QW_NOT_V = "QW_NOT_V"                           # quasi-weakly a.p., no support matches C_x
    I_NOT_QW = "I_NOT_QW"                           # irregular, not quasi-weakly a.p.
    QR_NOT_ERG_NOT_A = "QR_NOT_ERG_NOT_A"           # generic for a non-ergodic mixture
    R_FULL_SUPPORT = "R_FULL_SUPPORT"               # generic + dense orbit for max-entropy measure
    ALMOST_PERIODIC_NOT_PER = "ALMOST_PERIODIC_NOT_PER"  # minimal but aperiodic
    PERIODIC = "PERIODIC"


#: the class recipes' fixed values, pinned from pilot runs
BLOCK_UNIT = 64                 # round-layout length unit
THETA_W_NOT_QR = (0.95, 0.90)   # max-entropy weight of the two W_NOT_QR endpoints
THETA_V_NOT_W = 0.25            # subgraph-measure weight of the V_NOT_W endpoint
WEIGHT_V_FULL = 0.10            # full-support Markov share inside the V endpoint
THETA_I_NOT_QW = 0.30           # subgraph-measure weight of the I_NOT_QW endpoint
THETA_QR_MIX = 0.95             # max-entropy weight of the QR_NOT_ERG_NOT_A mixture
SWEEP_ROUNDS = 28               # geometric rounds of the W_NOT_QR sweep
SWEEP_GROWTH = 1.3
DWELL_ROUNDS = 8                # rounds of the dwell on the high-mix endpoint
EXCURSION_FRACTION = 0.06       # share of the horizon in the V_NOT_W excursion
PIN_LENGTH = 6                  # length of the default pinned prefix
#: the largest horizon synthesized: 2^26 symbols take about 1.3 s and 360 MB
#: for V_NOT_W on the full 2-shift, and 10^9 would run out of memory
MAX_HORIZON = 1 << 26


@dataclass
class Segment:
    kind: str                     # "markov" | "periodic" | "thue_morse" | "literal" | "bridge"
    start: int
    length: int
    source: Optional[int] = None  # index into the certificate's measure pool
    word: Optional[Word] = None   # literal/bridge content


@dataclass
class Schedule:
    segments: list[Segment]


@dataclass
class Certificate:
    gap_class: GapClass                # K's shape: CLASSES[gap_class]
    pool: list[InvariantMeasure]
    extremes: list[int]                # pool indices of K's extreme elements
    chain_links: list[tuple[float, int, int]]  # (theta, idx_main, idx_attached) per chain link
    exact_facts: list[dict]
    inf_entropy_over_K: float
    expected_statistics: list[dict]
    pinned_prefix: Optional[Word]
    horizon: int
    seed: int
    phi: Optional[Potential]
    ambient_entropy: float


@dataclass
class OrbitPrefix:
    word: np.ndarray
    schedule: Schedule
    certificate: Certificate
    shift: ShiftSpace


# ---------------------------------------------------------------------------
# minimal-subshift generator


def thue_morse_word(n: int) -> np.ndarray:
    """Fixed point of 0 -> 01, 1 -> 10, truncated to n symbols, as a
    SYMBOL_DTYPE array: symbol i is the parity of i's binary digits, so
    symbol 256h + l is symbol h xor symbol l."""
    if n < 1:
        raise ValueError("n >= 1 required")
    low = np.bitwise_count(np.arange(256, dtype=SYMBOL_DTYPE)) & 1
    if n <= 256:
        return low[:n]
    return (thue_morse_word(-(-n // 256))[:, None] ^ low).reshape(-1)[:n]


# ---------------------------------------------------------------------------
# schedule rendering


def _render(s: ShiftSpace, requests: list[tuple[str, object, int]], pool: list[InvariantMeasure],
            seed: int, horizon: int) -> tuple[np.ndarray, Schedule]:
    """Realize chunk requests (kind, payload, length) into a stream of exactly
    `horizon` symbols, inserting bridges between consecutive chunks.

    A short plan is topped up by repeating its final request; an overlong
    one is truncated at the horizon.  A bridge has the M = primitive_gap
    symbols of connecting_word, so the segments are laid out before any
    symbol is drawn.  Then each pool source's Markov segments are sampled in
    one call (_regenerate, with the layout's sub_seeds), and each bridge
    joins the symbols either side; a request cut off by a final bridge
    still draws that bridge's right end.
    """
    layout: list[Segment] = []
    pos = 0
    queue = list(requests)
    while pos < horizon:
        if not queue:
            kind, payload, _ = requests[-1]
            queue.append((kind, payload, horizon - pos))
        kind, payload, length = queue.pop(0)
        if length <= 0:
            continue
        if pos:
            # a shift without a gap gets an empty bridge, which connecting_word refuses
            cut = min(s.primitive_gap or 0, horizon - pos)
            layout.append(Segment(kind="bridge", start=pos, length=cut, word=()))
            pos += cut
        # a request the final bridge cuts off keeps the one symbol that bridge
        # ends in; it is drawn but left out of the schedule
        length = max(1, min(length, horizon - pos))
        literal = tuple(map(int, payload[:length])) if kind == "literal" else None
        layout.append(Segment(kind=kind, start=pos, length=length, word=literal,
                              source=payload if kind in ("markov", "periodic") else None))
        pos += length
    schedule = layout if pos == horizon else layout[:-1]
    words = _regenerate(layout, pool, sub_seeds([seg.kind for seg in layout], seed))
    for i, seg in enumerate(layout):
        if seg.kind == "bridge":
            seg.word = connecting_word(s, int(words[i - 1][-1]), int(words[i + 1][0]))[:seg.length]
            words[i] = np.array(seg.word, dtype=SYMBOL_DTYPE)
    return np.concatenate(words[:len(schedule)]), Schedule(segments=schedule)


def sub_seeds(kinds: Sequence[str], seed: int) -> list[Optional[int]]:
    """The sub-seed of each segment of a schedule with these kinds: the i-th
    segment that is not a bridge draws output i + 1 of the splitmix64 stream
    of `seed`, and a Markov segment keeps it; the others get None.  A
    schedule's sub-seeds are thus its kinds and seed, and neither a
    certificate nor a Segment stores them."""
    drawn = [i for i, kind in enumerate(kinds) if kind != "bridge"]
    outputs = rng.splitmix64_runs(np.array([seed % 2**64], dtype=np.uint64), [1], [len(drawn)])
    seeds: list[Optional[int]] = [None] * len(kinds)
    for i, output in zip(drawn, outputs.tolist()):
        if kinds[i] == "markov":
            seeds[i] = output
    return seeds


def _regenerate(segments: list[Segment], pool: list[InvariantMeasure],
                seeds: Sequence[Optional[int]]) -> list[np.ndarray]:
    """The symbols each segment stands for, as SYMBOL_DTYPE arrays: its own
    word (literal, bridge), the Thue-Morse prefix of its length, or a word
    typical for the pool measure it names: its cycle repeated from the first
    symbol (periodic), or a walk (markov) from its sub-seed in `seeds`.  All
    Markov segments of one pool source are sampled by one
    sample_typical_words call."""
    words: list = [None] * len(segments)
    by_source: dict[int, list[int]] = {}
    for i, seg in enumerate(segments):
        if seg.kind == "markov":
            by_source.setdefault(seg.source, []).append(i)
        elif seg.kind == "periodic":
            cycle = np.array(pool[seg.source].cycle, dtype=SYMBOL_DTYPE)
            words[i] = np.tile(cycle, -(-seg.length // len(cycle)))[:seg.length]
        elif seg.kind == "thue_morse":
            words[i] = thue_morse_word(seg.length)
        else:
            words[i] = np.array(seg.word, dtype=SYMBOL_DTYPE)
    for source, idx in by_source.items():
        lengths = [segments[i].length for i in idx]
        drawn = sample_typical_words(pool[source], lengths, [seeds[i] for i in idx])
        for i, word in zip(idx, np.split(drawn, np.cumsum(lengths)[:-1])):
            words[i] = word
    return words


# ---------------------------------------------------------------------------
# ingredient builders


def _tilted_measure(s: ShiftSpace, phi: Potential, q: float) -> MarkovMeasure:
    """Equilibrium Markov measure of the q-weighted matrix: full support,
    integral different from the maximal-entropy one whenever averages vary."""
    if phi.range > 2:
        raise ValueError("tilted measure needs a range <= 2 potential")
    b = np.zeros((s.k, s.k))
    for (i, j), w in edge_system(s, phi).weights.items():
        b[i, j] = math.exp(q * w)
    return equilibrium_measure(s, b)


def _sub_parry(s: ShiftSpace) -> tuple[MarkovMeasure, frozenset]:
    """Maximal-entropy measure of the largest proper strongly connected
    subgraph, embedded as an ambient-alphabet Markov measure.  The subgraph
    is irreducible but may be periodic, which parry_measure would refuse."""
    nodes, edges, _ = largest_proper_scc_subgraph(s)
    sub, symbol_map = subshift_from_edges(s, edges)
    sub_m = equilibrium_measure(sub, sub.matrix_array())
    p = np.zeros((s.k, s.k))
    pi = np.zeros(s.k)
    p[np.ix_(symbol_map, symbol_map)] = sub_m.P
    pi[symbol_map] = sub_m.pi
    for i in range(s.k):
        if p[i].sum() == 0:
            p[i, next(j for j in range(s.k) if s.matrix[i][j])] = 1.0
    return markov_measure(s, p, pi), edges


def _pin(s: ShiftSpace, sub_edges: frozenset,
         pinned_prefix: Optional[Word]) -> tuple[Word, Word, bool]:
    """The default pin, the lexicographically smallest admissible
    PIN_LENGTH-word that leaves the subgraph language (one exists since the
    subgraph is proper); the prefix the stream starts with, the pinned one
    or else the default pin; and whether the default pin's statistics apply."""
    pin = next((w for w in iter_words(s, PIN_LENGTH)
                if any((a, b) not in sub_edges for a, b in zip(w, w[1:]))), None)
    if pin is None:
        raise NoProperSubshift(f"every {PIN_LENGTH}-word stays inside the subgraph")
    return pin, pinned_prefix or pin, pinned_prefix is None or pinned_prefix == pin


def _disjoint_cycle(s: ShiftSpace, sub_edges: frozenset) -> Word:
    """Least shortest cycle that shares no edge with the subgraph."""
    cyc = least_cycle([[s.matrix[i][j] and (i, j) not in sub_edges for j in range(s.k)]
                       for i in range(s.k)])
    if cyc is None:
        raise NoProperSubshift("no cycle disjoint from the subgraph")
    return cyc


def _measure_facts(m: InvariantMeasure, s: ShiftSpace, phi: Optional[Potential]) -> dict:
    g = support(m)
    return {
        "entropy": entropy(m),
        "integral": integrate(m, phi) if phi is not None else None,
        "support_symbols": sorted(g.symbols),
        "support_edges": sorted(g.edges),
        "full_support": has_full_support(m, s),
        "ergodic": is_ergodic(m),
    }


# ---------------------------------------------------------------------------
# per-class recipes


def _triangle(i: int, period: int) -> float:
    """Triangle wave over round index, 0 -> 1 -> 0 with the given period."""
    half = period / 2.0
    pos = i % period
    return pos / half if pos <= half else 2.0 - pos / half


def _geometric_lengths(total: int, rounds: int, growth: float) -> list[int]:
    raw = [growth ** r for r in range(rounds)]
    scale = total / sum(raw)
    lengths = [max(1, int(round(x * scale))) for x in raw]
    lengths[-1] += total - sum(lengths)
    return lengths


def _linear_round_lengths(total: int, unit: int) -> list[int]:
    lengths = []
    i = 1
    acc = 0
    while acc < total:
        lengths.append(unit * i)
        acc += unit * i
        i += 1
    lengths[-1] -= acc - total
    return lengths


def _mix_chunks(length: int, parts: list[tuple[str, object, float]]) -> list[tuple[str, object, int]]:
    """Split a round into one chunk per part, proportional to the fractions."""
    out = []
    used = 0
    for idx, (kind, payload, frac) in enumerate(parts):
        take = length - used if idx == len(parts) - 1 else int(round(length * frac))
        if take > 0:
            out.append((kind, payload, take))
            used += take
    return out


def _dwell(low: int, low_length: int, switch: int, n: int, parts) -> list[tuple[str, object, int]]:
    """The dwell layout's tail: a Markov block of the low-mix source `low`,
    then DWELL_ROUNDS equal rounds in the high-mix parts' proportions from
    the switch to the horizon."""
    return [("markov", low, low_length)] + _mix_chunks((n - switch) // DWELL_ROUNDS + 1,
                                                       parts) * DWELL_ROUNDS


def synthesize_witness(s: ShiftSpace, gap_class: GapClass, phi: Optional[Potential],
                       n: int, seed: int, pinned_prefix: Optional[Sequence[int]] = None,
                       cycle: Optional[Sequence[int]] = None) -> OrbitPrefix:
    """Build the witness stream and certificate for one gap class.

    All randomness flows from `seed` through the documented generator, so
    identical inputs reproduce identical streams byte for byte.  A certificate
    that certify's structure rules would refuse raises CertificateMismatch
    before any symbol is drawn.
    """
    gap_class = GapClass(gap_class)
    kind = CLASSES[gap_class]
    if n < 1:
        raise ValueError(f"horizon is {n}, not an integer >= 1")
    if n > MAX_HORIZON:
        raise ValueError(f"horizon is {n}, above the limit 2^26 = {MAX_HORIZON}")
    if pinned_prefix is not None:
        pinned_prefix = tuple(int(c) for c in pinned_prefix)
        if not is_admissible(pinned_prefix, s):
            raise NotAdmissible("pinned prefix must be admissible")
    if cycle is not None and gap_class is not GapClass.PERIODIC:
        raise ValueError(f"a cycle is read only by PERIODIC synthesis, not by {gap_class.value}")

    if kind.potential:   # the classes built on a primitive ambient
        if not s.is_primitive:
            raise NotPrimitive(f"{gap_class.value} synthesis requires a primitive shift")
        if phi is None:
            raise ValueError(f"{gap_class.value} requires a potential")
        if kind.irregular and not has_irregular(s, phi):
            raise IrregularityUnavailable("potential has constant cycle averages")
    phi = phi if kind.potential else None
    requests, pool, extremes, chain_links, stats, prefix = kind.build(
        s, phi, n, pinned_prefix, *([] if cycle is None else [cycle]))
    if prefix:
        requests = [("literal", prefix, len(prefix))] + requests
    stats = [{"check": "full_horizon_present", "horizon": n}] + stats
    facts = [_measure_facts(m, s, phi) for m in pool]
    cert = Certificate(gap_class=gap_class, pool=pool, extremes=extremes, chain_links=chain_links,
                       exact_facts=facts, expected_statistics=stats,
                       inf_entropy_over_K=_inf_over_k(facts, extremes, chain_links),
                       pinned_prefix=prefix or None, horizon=n, seed=seed, phi=phi,
                       ambient_entropy=topological_entropy(s))
    _check_rules(cert, facts)
    word, schedule = _render(s, requests, pool, seed, n)
    return OrbitPrefix(word=word, schedule=schedule, certificate=cert, shift=s)


def _inf_over_k(facts: list[dict], extremes: list[int],
                chain_links: list[tuple[float, int, int]]) -> float:
    """Entropy infimum over K.  Affinity puts it at the extreme elements:
    segment/singleton endpoints directly; for a chain, the only structure with
    links, at its mixtures theta*h_main + (1-theta)*h_attached and the limit."""
    if chain_links:
        vals = [th * facts[a]["entropy"] + (1 - th) * facts[b]["entropy"]
                for th, a, b in chain_links]
        vals.append(facts[chain_links[0][1]]["entropy"])
        return min(vals)
    return min((facts[i]["entropy"] for i in extremes), default=0.0)


def _build_w_not_qr(s, phi, n, pinned_prefix):
    mu = parry_measure(s)
    nu = _tilted_measure(s, phi, 1.0)
    if abs(integrate(nu, phi) - integrate(mu, phi)) < 1e-9:
        nu = _tilted_measure(s, phi, 2.0)
    th1, th2 = THETA_W_NOT_QR
    omega1 = mixture((th1, 1 - th1), (mu, nu))
    omega2 = mixture((th2, 1 - th2), (mu, nu))
    pool = [omega1, omega2, mu, nu]
    lengths = _geometric_lengths(n, SWEEP_ROUNDS, SWEEP_GROWTH)
    requests = []
    for i, length in enumerate(lengths):
        tau = _triangle(i, 8)
        theta = tau * th1 + (1 - tau) * th2
        requests.extend(_mix_chunks(length, [("markov", 2, theta), ("markov", 3, 1 - theta)]))
    a1, a2 = integrate(omega1, phi), integrate(omega2, phi)
    stats = [
        {"check": "trace_attains", "targets": [a1, a2], "tol": 0.05, "window": 0.5},
        {"check": "cylinder_lower_min", "lengths": [1, 2], "threshold": 0.01},
    ]
    return requests, pool, [0, 1], [], stats, pinned_prefix


def _build_v_not_w(s, phi, n, pinned_prefix):
    mu, sub_edges = _sub_parry(s)
    full = parry_measure(s)
    pin, prefix, default_stats = _pin(s, sub_edges, pinned_prefix)
    rho = periodic_measure(s, cycle_word_for(s, pin))
    theta = THETA_V_NOT_W
    w_full = WEIGHT_V_FULL
    w_rho = 1.0 - theta - w_full
    omega = mixture((theta, w_full, w_rho), (mu, full, rho))
    pool = [omega, mu, full, rho]

    requests: list = []
    exc_total = int(EXCURSION_FRACTION * n)
    exc_lengths = _geometric_lengths(exc_total, 6, 1.0)
    for i, length in enumerate(exc_lengths):
        tau = _triangle(i + 1, 12)  # rises toward 1 then back: interior traversal
        parts = [("markov", 1, 1 - tau * (1 - theta)),
                 ("markov", 2, tau * w_full), ("periodic", 3, tau * w_rho)]
        requests.extend(_mix_chunks(length, parts))
    requests += _dwell(1, n // 2 - exc_total - len(prefix), n // 2, n,
                       [("markov", 1, theta), ("markov", 2, w_full), ("periodic", 3, w_rho)])

    stats = [
        {"check": "self_lower_max", "length": len(pin), "max": 0.01},
        {"check": "self_upper_min", "length": len(pin), "min": 0.05},
    ] if default_stats else []
    return requests, pool, [0, 1], [], stats, prefix


def _build_qw_not_v(s, phi, n, pinned_prefix):
    mu, sub_edges = _sub_parry(s)
    lengths = _linear_round_lengths(n, BLOCK_UNIT)
    cycles = list(islice(primitive_cycles(s, 8), len(lengths)))
    pool: list[InvariantMeasure] = [mu]
    cycle_ids = {}
    chain_links = []
    requests = []
    for i, length in enumerate(lengths, start=1):
        cyc = cycles[(i - 1) % len(cycles)]
        if cyc not in cycle_ids:
            pool.append(periodic_measure(s, cyc))
            cycle_ids[cyc] = len(pool) - 1
        theta_i = 1.0 - 1.0 / (i + 1)
        chain_links.append((theta_i, 0, cycle_ids[cyc]))
        requests.extend(_mix_chunks(length, [("markov", 0, theta_i),
                                             ("periodic", cycle_ids[cyc], 1 - theta_i)]))
    stats = [{"check": "coverage_counts", "length": 3, "min_visits": 8}]
    return requests, pool, list(range(len(pool))), chain_links, stats, pinned_prefix


def _build_i_not_qw(s, phi, n, pinned_prefix):
    mu, sub_edges = _sub_parry(s)
    kappa = periodic_measure(s, _disjoint_cycle(s, sub_edges))
    theta = THETA_I_NOT_QW
    omega = mixture((theta, 1 - theta), (mu, kappa))
    pool = [mu, omega, kappa]
    _, prefix, default_stats = _pin(s, sub_edges, pinned_prefix)

    cw = connecting_word(s, prefix[-1], prefix[0])
    echo = (prefix + cw + prefix)[:8]
    # The echo restates x_0..x_7 at position |prefix| + M, giving the
    # 8-prefix exactly one revisit.  Its tail must then diverge from
    # x_8..x_11, otherwise random dwell material can extend the revisit to
    # a 12-match and break the strictly-decreasing ladder.
    prelude = prefix + cw + echo
    target = prelude[8:12]
    breaker: list[int] = []
    last = echo[-1]
    for i in range(len(target)):
        choices = [c for c in range(s.k) if s.matrix[last][c]]
        alts = [c for c in choices if c != target[i]]
        if alts:
            breaker.append(min(alts))
            break
        breaker.append(choices[0])
        last = choices[0]
    echo = echo + tuple(breaker)
    # dwell switch sits past n/2 so the tail window's first checkpoints still
    # read the low phase; the cumulative trace then climbs through the dwell
    switch = int(0.55 * n)
    requests = [("literal", echo, len(echo))] + _dwell(
        0, switch - len(prefix) - len(echo) - 2 * s.primitive_gap, switch, n,
        [("markov", 0, theta), ("periodic", 2, 1 - theta)])

    stats = [{"check": "trace_oscillation", "min_gap": 0.2, "window": 0.5}]
    if default_stats:
        stats.append({"check": "self_upper_decreasing", "lengths": [4, 8, 12], "final_max": 0.02})
    return requests, pool, [0, 1], [], stats, prefix


def _build_qr_not_erg(s, phi, n, pinned_prefix):
    full = parry_measure(s)
    cyc = least_cycle(s.matrix)
    kappa = periodic_measure(s, cyc)
    theta = THETA_QR_MIX
    m = mixture((theta, 1 - theta), (full, kappa))
    pool = [m, full, kappa]
    lengths = _linear_round_lengths(n, BLOCK_UNIT)
    requests = []
    for length in lengths:
        requests.extend(_mix_chunks(length, [("markov", 1, theta), ("periodic", 2, 1 - theta)]))
    target = integrate(m, phi)
    stats = [{"check": "trace_converges", "target": target, "tol": 0.01, "osc_tol": 0.01,
              "window": 0.25}]
    return requests, pool, [0], [], stats, pinned_prefix


def _build_r_full_support(s, phi, n, pinned_prefix):
    full = parry_measure(s)
    pool = [full]
    lengths = _linear_round_lengths(n, BLOCK_UNIT)
    requests = [("markov", 0, length) for length in lengths]
    target = integrate(full, phi)
    expected = [[list(w), markov_word_probability(full, w)] for w in iter_words(s, 3)]
    stats = [
        {"check": "trace_converges", "target": target, "tol": 0.01, "osc_tol": 0.01,
         "window": 0.25},
        {"check": "coverage_fraction_of_expected", "length": 3, "fraction": 0.2,
         "expected": expected},
    ]
    return requests, pool, [0], [], stats, pinned_prefix


#: Thue-Morse repetition gaps per factor length, measured once at horizon 2^20
TM_GAP_BOUNDS = {1: 3, 2: 4, 3: 8, 4: 8, 5: 16, 6: 16, 7: 16, 8: 16}


def _build_almost_periodic(s, phi, n, pinned_prefix):
    for w in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if not is_admissible(w, s):
            raise NotAdmissible("aperiodic minimal witness needs the full 2-shift inside the ambient")
    requests: list = [("thue_morse", None, n)]
    stats = [{"check": "not_eventually_periodic", "max_period": 1024}]
    if pinned_prefix is None:
        stats.append({"check": "max_gap_bounded",
                      "bounds": [[ell, TM_GAP_BOUNDS[ell]] for ell in range(1, 9)]})
    return requests, [], [], [], stats, pinned_prefix


def _build_periodic(s, phi, n, pinned_prefix, cycle=None):
    if cycle is None:
        cycle = least_cycle(s.matrix)
    m = periodic_measure(s, tuple(cycle))
    pool = [m]
    requests = [("periodic", 0, n)]
    stats = ([{"check": "periodic_density_exact", "period": len(m.cycle)}]
             if pinned_prefix is None else [])
    return requests, pool, [0], [], stats, pinned_prefix


# ---------------------------------------------------------------------------
# the gap-class table


class ClassKind(NamedTuple):
    """One gap class.  structure and extremes: the shape of the measure set K
    it certifies (extremes is None for a chain, which names its links
    instead); potential: whether synthesis needs a potential, and irregular:
    one whose cycle averages vary.  build(s, phi, n, pinned_prefix): its
    recipe (requests, pool, extremes, chain_links, stats, prefix), which
    synthesize_witness renders after the prefix, its stats after the
    full_horizon_present check every class has; PERIODIC's also takes a
    cycle.  rules: its structure rules (fact, detail, holds(cert, facts)),
    which synthesize_witness and certify check in order (_check_rules)."""
    structure: str
    extremes: Optional[int]
    potential: bool
    irregular: bool
    build: Callable[..., tuple]
    rules: tuple[tuple[str, str, Callable[[Certificate, list[dict]], bool]], ...]


def _extreme(cert: Certificate, facts: list[dict], i: int) -> dict:
    return facts[cert.extremes[i]]


def _non_minimal(m: InvariantMeasure) -> bool:
    """Whether m's support holds more than one minimal set."""
    pieces = support_pieces(m)
    return len(pieces) > 1 or not all(map(piece_is_single_orbit, pieces))


_INTEGRALS_DIFFER = ("integrals", "extreme integrals must differ", lambda c, f: abs(
    _extreme(c, f, 0)["integral"] - _extreme(c, f, 1)["integral"]) >= 1e-9)

CLASSES: dict[GapClass, ClassKind] = {
    GapClass.W_NOT_QR: ClassKind("segment", 2, True, True, _build_w_not_qr, (
        ("supports", "both endpoints must have full support",
         lambda c, f: all(f[i]["full_support"] for i in c.extremes)),
        _INTEGRALS_DIFFER)),
    GapClass.V_NOT_W: ClassKind("segment", 2, True, True, _build_v_not_w, (
        ("omega_support", "omega must have full support",
         lambda c, f: _extreme(c, f, 0)["full_support"]),
        ("mu_support", "mu support must be proper",
         lambda c, f: not _extreme(c, f, 1)["full_support"]),
        ("mu_entropy", "mu must carry entropy",
         lambda c, f: _extreme(c, f, 1)["entropy"] > 1e-12))),
    GapClass.QW_NOT_V: ClassKind("chain", None, True, False, _build_qw_not_v, (
        ("supports", "no pool measure may have full support",
         lambda c, f: not any(x["full_support"] for x in f)),
        ("theta", "every chain link's theta must lie in (0, 1)",
         lambda c, f: all(0 < th < 1 for th, _, _ in c.chain_links)))),
    GapClass.I_NOT_QW: ClassKind("segment", 2, True, True, _build_i_not_qw, (
        ("omega", "omega must be a mixture",
         lambda c, f: isinstance(c.pool[c.extremes[1]], Mixture)),
        ("disjoint", "attached orbit must avoid mu's edges",
         lambda c, f: support(c.pool[c.extremes[1]].components[-1]).edges.isdisjoint(
             _extreme(c, f, 0)["support_edges"])),
        _INTEGRALS_DIFFER)),
    GapClass.QR_NOT_ERG_NOT_A: ClassKind("singleton", 1, True, False, _build_qr_not_erg, (
        ("ergodic", "measure must be non-ergodic", lambda c, f: not _extreme(c, f, 0)["ergodic"]),
        ("minimal", "support must be non-minimal",
         lambda c, f: _non_minimal(c.pool[c.extremes[0]])))),
    GapClass.R_FULL_SUPPORT: ClassKind("singleton", 1, True, False, _build_r_full_support, (
        ("measure", "need ergodic full support",
         lambda c, f: _extreme(c, f, 0)["ergodic"] and _extreme(c, f, 0)["full_support"]),
        # certify has checked ambient_entropy against the recomputed value
        ("entropy", "must be maximal entropy",
         lambda c, f: abs(_extreme(c, f, 0)["entropy"] - c.ambient_entropy) <= 1e-9))),
    GapClass.ALMOST_PERIODIC_NOT_PER: ClassKind("none", 0, False, False, _build_almost_periodic, (
        ("pool", "no measure pool expected", lambda c, f: not c.pool),)),
    GapClass.PERIODIC: ClassKind("singleton", 1, False, False, _build_periodic, (
        ("measure", "singleton periodic measure expected",
         lambda c, f: isinstance(c.pool[c.extremes[0]], PeriodicMeasure)),)),
}


# ---------------------------------------------------------------------------
# certification


def certify(o: OrbitPrefix) -> None:
    """Recompute every certificate fact and validate the class structure.

    Raises CertificateMismatch at the first failing fact.
    """
    cert = o.certificate
    s = o.shift

    fresh_facts = []
    for idx, (m, fact) in enumerate(zip(cert.pool, cert.exact_facts)):
        fresh = _measure_facts(m, s, cert.phi)
        fresh_facts.append(fresh)
        for key in ("entropy", "integral"):
            a, b = fresh[key], fact[key]
            if (a is None) != (b is None):
                raise CertificateMismatch(f"pool[{idx}].{key}", "presence differs")
            if a is not None and abs(a - b) > 1e-10:
                raise CertificateMismatch(f"pool[{idx}].{key}", f"{a} vs {b}")
        for key in ("support_symbols", "support_edges", "full_support", "ergodic"):
            if fresh[key] != fact[key]:
                raise CertificateMismatch(f"pool[{idx}].{key}", f"{fresh[key]} vs {fact[key]}")

    fresh_inf = _inf_over_k(fresh_facts, cert.extremes, cert.chain_links)
    if abs(fresh_inf - cert.inf_entropy_over_K) > 1e-10:
        raise CertificateMismatch("inf_entropy_over_K",
                                  f"{fresh_inf} vs {cert.inf_entropy_over_K}")
    h_top = topological_entropy(s)
    if abs(h_top - cert.ambient_entropy) > 1e-10:
        raise CertificateMismatch("ambient_entropy", f"{h_top} vs {cert.ambient_entropy}")

    _check_rules(cert, fresh_facts)
    _check_word(o)


def _check_rules(cert: Certificate, facts: list[dict]) -> None:
    """The class's structure rules in order; CertificateMismatch names the first that fails."""
    for fact, detail, holds in CLASSES[cert.gap_class].rules:
        if not holds(cert, facts):
            raise CertificateMismatch(f"{cert.gap_class.value}.{fact}", detail)


def _check_word(o: OrbitPrefix) -> None:
    """Length, admissibility, pin, and gluing exactness on the available stream.

    A stream longer than the horizon is refused: no segment stands for its
    last symbols.  A shortfall is deliberately not an error here: a
    truncated stream is a statistical matter (the full_horizon_present
    verdict), not a certificate-arithmetic one.  Each segment wholly in the
    stream is checked in place, with no copy of the stream: a pool source's
    Markov segments step by step against the stream's own symbols
    (walk_mismatch, from their sub_seeds), the other kinds against their
    regenerated symbols (_regenerate).  The segment holding the first
    differing symbol is named.
    """
    cert = o.certificate
    s = o.shift
    word = o.word
    if len(word) > cert.horizon:
        raise CertificateMismatch("horizon", f"stream has {len(word)} symbols, "
                                             f"past the horizon {cert.horizon}")
    allowed = (s.matrix_array() == 1).reshape(-1)
    pairs = word.astype(np.min_scalar_type(s.k * s.k - 1), copy=False)   # codes a k + b fit
    if not allowed.all() and not allowed[pairs[:-1] * s.k + pairs[1:]].all():
        raise CertificateMismatch("admissibility", "stream violates the transition matrix")
    if cert.pinned_prefix is not None and len(word) >= len(cert.pinned_prefix):
        if not np.array_equal(word[:len(cert.pinned_prefix)], cert.pinned_prefix):
            raise CertificateMismatch("pinned_prefix", "stream does not start with the pin")
    # the schedule tiles the stream from 0, so its present segments cover word[:end]
    present = list(takewhile(lambda seg: seg.start + seg.length <= len(word),
                             o.schedule.segments))
    first = len(word)
    by_source: dict[int, list[tuple[int, int, int]]] = {}
    others = []
    for seg, sub_seed in zip(present, sub_seeds([seg.kind for seg in present], cert.seed)):
        if seg.kind == "markov":
            by_source.setdefault(seg.source, []).append((seg.start, seg.length, sub_seed))
        else:
            others.append(seg)
    # none of the others is Markov, so none reads a sub-seed
    for seg, expected in zip(others, _regenerate(others, cert.pool, [None] * len(others))):
        miss = word[seg.start:seg.start + seg.length] != expected
        if miss.any():
            first = seg.start + int(miss.argmax())
            break
    for source, spans in by_source.items():
        at = walk_mismatch(cert.pool[source], word, *zip(*spans))   # starts, lengths, sub-seeds
        if at >= 0:
            first = min(first, at)
    if first < len(word):
        seg = present[bisect_right([seg.start for seg in present], first) - 1]
        raise CertificateMismatch("schedule_window",
                                  f"segment at {seg.start} does not match its source")
