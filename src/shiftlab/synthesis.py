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
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import rng
from .errors import (CertificateMismatch, IrregularityUnavailable, NoProperSubshift,
                     NotAdmissible, NotPrimitive)
from .measures import (InvariantMeasure, MarkovMeasure, Mixture, PeriodicMeasure,
                       Potential, entropy, equilibrium_measure, has_full_support,
                       integrate, is_ergodic, markov_measure, markov_word_probability,
                       mixture, parry_measure, periodic_measure, piece_is_single_orbit,
                       sample_typical_word, support, support_pieces, supports_disjoint)
from .shifts import (ShiftSpace, Word, connecting_word, cycle_word_for, is_admissible,
                     iter_words, largest_proper_scc_subgraph, primitive_cycles,
                     subshift_from_edges, topological_entropy)
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


#: the measure set K a class certifies: its structure, how many extreme
#: elements it names (None for a chain, which names its links instead), and
#: whether synthesis needs a potential
Shape = NamedTuple("Shape", [("structure", str), ("extremes", Optional[int]), ("potential", bool)])
CLASS_SHAPE = {
    GapClass.W_NOT_QR: Shape("segment", 2, True),
    GapClass.V_NOT_W: Shape("segment", 2, True),
    GapClass.QW_NOT_V: Shape("chain", None, True),
    GapClass.I_NOT_QW: Shape("segment", 2, True),
    GapClass.QR_NOT_ERG_NOT_A: Shape("singleton", 1, True),
    GapClass.R_FULL_SUPPORT: Shape("singleton", 1, True),
    GapClass.ALMOST_PERIODIC_NOT_PER: Shape("none", 0, False),
    GapClass.PERIODIC: Shape("singleton", 1, False),
}


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


@dataclass
class Segment:
    kind: str                     # "markov" | "periodic" | "thue_morse" | "literal" | "bridge"
    start: int
    length: int
    source: Optional[int] = None  # index into the certificate's measure pool
    word: Optional[Word] = None   # literal/bridge content
    sub_seed: Optional[int] = None


@dataclass
class Schedule:
    horizon: int
    segments: list[Segment]


@dataclass
class Certificate:
    gap_class: GapClass                # K's shape is CLASS_SHAPE[gap_class]
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
    seed: int
    shift: ShiftSpace


# ---------------------------------------------------------------------------
# minimal-subshift generator


def thue_morse_word(n: int) -> np.ndarray:
    """Fixed point of 0 -> 01, 1 -> 10, truncated to n symbols, as an int64 array."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return (np.bitwise_count(np.arange(n, dtype=np.uint64)) & 1).astype(np.int64)


# ---------------------------------------------------------------------------
# schedule rendering


def _render(s: ShiftSpace, requests: list[tuple[str, object, int]], pool: list[InvariantMeasure],
            seed: int, horizon: int) -> tuple[np.ndarray, Schedule]:
    """Realize chunk requests (kind, payload, length) into a stream of exactly
    `horizon` symbols, inserting bridges between consecutive chunks.

    A short plan is topped up by repeating its final request; an overlong
    one is truncated at the horizon.
    """
    chunks: list[np.ndarray] = []
    segments: list[Segment] = []
    pos = 0
    chunk_idx = 0
    queue = list(requests)
    while pos < horizon:
        if not queue:
            kind, payload, _ = requests[-1]
            queue.append((kind, payload, horizon - pos))
        kind, payload, length = queue.pop(0)
        length = min(length, horizon - pos)
        if length <= 0:
            continue
        sub_seed = rng.derive_subseed(seed, chunk_idx)
        chunk_idx += 1
        seg = Segment(kind=kind, start=pos, length=length,
                      source=payload if kind in ("markov", "periodic") else None,
                      word=tuple(map(int, payload)) if kind == "literal" else None,
                      sub_seed=sub_seed if kind == "markov" else None)
        word = regenerate_segment(seg, pool)
        if pos:
            cw = connecting_word(s, int(chunks[-1][-1]), int(word[0]))[:horizon - pos]
            if cw:
                segments.append(Segment(kind="bridge", start=pos, length=len(cw), word=cw))
                chunks.append(np.array(cw, dtype=np.int64))
                pos += len(cw)
            if pos >= horizon:
                break
        seg.start, seg.length = pos, min(length, horizon - pos)
        if seg.word is not None:
            seg.word = seg.word[:seg.length]
        segments.append(seg)
        chunks.append(word[:seg.length])
        pos += seg.length
    arr = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return arr, Schedule(horizon=horizon, segments=segments)


def regenerate_segment(seg: Segment, pool: list[InvariantMeasure]) -> np.ndarray:
    """The symbols a schedule segment stands for, as an int64 array: its own
    word (literal, bridge), the Thue-Morse prefix of its length, or a word
    typical for the pool measure it names (markov, periodic)."""
    if seg.kind == "thue_morse":
        return thue_morse_word(seg.length)
    if seg.kind in ("literal", "bridge"):
        return np.array(seg.word, dtype=np.int64)
    return sample_typical_word(pool[seg.source], seg.length, seg.sub_seed)


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


def _default_pin(s: ShiftSpace, sub_edges: frozenset, length: int) -> Word:
    """Lexicographically smallest admissible word of the given length that
    leaves the subgraph language (exists since the subgraph is proper)."""
    for w in iter_words(s, length):
        if any((a, b) not in sub_edges for a, b in zip(w, w[1:])):
            return w
    raise NoProperSubshift(f"every {length}-word stays inside the subgraph")


def _disjoint_cycle(s: ShiftSpace, sub_edges: frozenset, max_period: int = 6) -> Word:
    """Lexicographically first cycle edge-disjoint from the subgraph."""
    for cyc in primitive_cycles(s, max_period):
        edges = {(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}
        if not (edges & sub_edges):
            return cyc
    raise NoProperSubshift("no cycle disjoint from the subgraph")


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
    if lengths[-1] <= 0:
        lengths.pop()
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


def synthesize_witness(s: ShiftSpace, gap_class: GapClass, phi: Optional[Potential],
                       n: int, seed: int, pinned_prefix: Optional[Sequence[int]] = None,
                       cycle: Optional[Sequence[int]] = None) -> OrbitPrefix:
    """Build the witness stream and certificate for one gap class.

    All randomness flows from `seed` through the documented generator, so
    identical inputs reproduce identical streams byte for byte.
    """
    gap_class = GapClass(gap_class)
    if pinned_prefix is not None:
        pinned_prefix = tuple(int(c) for c in pinned_prefix)
        if not is_admissible(pinned_prefix, s):
            raise NotAdmissible("pinned prefix must be admissible")

    if CLASS_SHAPE[gap_class].potential:   # the classes built on a primitive ambient
        if not s.is_primitive:
            raise NotPrimitive(f"{gap_class.value} synthesis requires a primitive shift")
        if phi is None:
            raise ValueError(f"{gap_class.value} requires a potential")
        if (gap_class in (GapClass.W_NOT_QR, GapClass.V_NOT_W, GapClass.I_NOT_QW)
                and not has_irregular(s, phi)):
            raise IrregularityUnavailable("potential has constant cycle averages")

    if gap_class is GapClass.PERIODIC:
        return _build_periodic(s, n, seed, pinned_prefix, cycle)
    builder = {
        GapClass.W_NOT_QR: _build_w_not_qr,
        GapClass.V_NOT_W: _build_v_not_w,
        GapClass.QW_NOT_V: _build_qw_not_v,
        GapClass.I_NOT_QW: _build_i_not_qw,
        GapClass.QR_NOT_ERG_NOT_A: _build_qr_not_erg,
        GapClass.R_FULL_SUPPORT: _build_r_full_support,
        GapClass.ALMOST_PERIODIC_NOT_PER: _build_almost_periodic,
    }[gap_class]
    return builder(s, phi, n, seed, pinned_prefix)


def _with_prefix(pinned_prefix, requests):
    """Prepend a user-pinned prefix as the schedule's first literal segment."""
    if pinned_prefix:
        return [("literal", tuple(pinned_prefix), len(pinned_prefix))] + requests
    return requests


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


def _finish(s: ShiftSpace, gap_class: GapClass, requests, pool, extremes, chain_links,
            phi, n, seed, pinned_prefix, stats) -> OrbitPrefix:
    word, schedule = _render(s, requests, pool, seed, n)
    facts = [_measure_facts(m, s, phi) for m in pool]
    inf_h = _inf_over_k(facts, extremes, chain_links)
    cert = Certificate(gap_class=gap_class, pool=pool,
                       extremes=extremes, chain_links=chain_links, exact_facts=facts,
                       inf_entropy_over_K=inf_h, expected_statistics=stats,
                       pinned_prefix=tuple(pinned_prefix) if pinned_prefix else None,
                       horizon=n, seed=seed, phi=phi,
                       ambient_entropy=topological_entropy(s))
    return OrbitPrefix(word=word, schedule=schedule, certificate=cert, seed=seed, shift=s)


def _build_w_not_qr(s, phi, n, seed, pinned_prefix):
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
        {"check": "full_horizon_present", "horizon": n},
        {"check": "trace_attains", "targets": [a1, a2], "tol": 0.05, "window": 0.5},
        {"check": "cylinder_lower_min", "lengths": [1, 2], "threshold": 0.01},
    ]
    requests = _with_prefix(pinned_prefix, requests)
    return _finish(s, GapClass.W_NOT_QR, requests, pool, [0, 1], [],
                   phi, n, seed, pinned_prefix, stats)


def _build_v_not_w(s, phi, n, seed, pinned_prefix):
    mu, sub_edges = _sub_parry(s)
    full = parry_measure(s)
    pin = _default_pin(s, sub_edges, PIN_LENGTH)
    rho = periodic_measure(s, cycle_word_for(s, pin))
    theta = THETA_V_NOT_W
    w_full = WEIGHT_V_FULL
    w_rho = 1.0 - theta - w_full
    omega = mixture((theta, w_full, w_rho), (mu, full, rho))
    pool = [omega, mu, full, rho]
    prefix = tuple(pinned_prefix) if pinned_prefix else pin
    default_stats = pinned_prefix is None or tuple(pinned_prefix) == pin

    omega_parts = [("markov", 1, theta), ("markov", 2, w_full), ("periodic", 3, w_rho)]
    requests: list = [("literal", prefix, len(prefix))]
    exc_total = int(EXCURSION_FRACTION * n)
    exc_lengths = _geometric_lengths(exc_total, 6, 1.0)
    for i, length in enumerate(exc_lengths):
        tau = _triangle(i + 1, 12)  # rises toward 1 then back: interior traversal
        if tau <= 0:
            requests.append(("markov", 1, length))
        else:
            parts = [("markov", 1, 1 - tau * (1 - theta)),
                     ("markov", 2, tau * w_full), ("periodic", 3, tau * w_rho)]
            requests.extend(_mix_chunks(length, parts))
    mu_dwell = n // 2 - exc_total - len(prefix)
    requests.append(("markov", 1, mu_dwell))
    round_len = (n - n // 2) // DWELL_ROUNDS + 1
    for _ in range(DWELL_ROUNDS):
        requests.extend(_mix_chunks(round_len, omega_parts))

    stats = [{"check": "full_horizon_present", "horizon": n}]
    if default_stats:
        stats += [
            {"check": "self_lower_max", "length": len(pin), "max": 0.01},
            {"check": "self_upper_min", "length": len(pin), "min": 0.05},
        ]
    return _finish(s, GapClass.V_NOT_W, requests, pool, [0, 1], [],
                   phi, n, seed, prefix, stats)


def _build_qw_not_v(s, phi, n, seed, pinned_prefix):
    mu, sub_edges = _sub_parry(s)
    lengths = _linear_round_lengths(n, BLOCK_UNIT)
    cycles = primitive_cycles(s, 8)
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
    stats = [
        {"check": "full_horizon_present", "horizon": n},
        {"check": "coverage_counts", "length": 3, "min_visits": 8},
    ]
    requests = _with_prefix(pinned_prefix, requests)
    return _finish(s, GapClass.QW_NOT_V, requests, pool, list(range(len(pool))),
                   chain_links, phi, n, seed, pinned_prefix, stats)


def _build_i_not_qw(s, phi, n, seed, pinned_prefix):
    mu, sub_edges = _sub_parry(s)
    kappa = periodic_measure(s, _disjoint_cycle(s, sub_edges))
    theta = THETA_I_NOT_QW
    omega = mixture((theta, 1 - theta), (mu, kappa))
    pool = [mu, omega, kappa]
    pin = _default_pin(s, sub_edges, PIN_LENGTH)
    prefix = tuple(pinned_prefix) if pinned_prefix else pin
    default_stats = pinned_prefix is None or tuple(pinned_prefix) == pin

    gap = s.primitive_gap
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
    requests: list = [("literal", prefix, len(prefix)), ("literal", echo, len(echo))]
    # dwell switch sits past n/2 so the tail window's first checkpoints still
    # read the low phase; the cumulative trace then climbs through the dwell
    switch = int(0.55 * n)
    mu_dwell = switch - len(prefix) - len(echo) - 2 * gap
    requests.append(("markov", 0, mu_dwell))
    round_len = (n - switch) // DWELL_ROUNDS + 1
    for _ in range(DWELL_ROUNDS):
        requests.extend(_mix_chunks(round_len, [("markov", 0, theta), ("periodic", 2, 1 - theta)]))

    stats = [{"check": "full_horizon_present", "horizon": n},
             {"check": "trace_oscillation", "min_gap": 0.2, "window": 0.5}]
    if default_stats:
        stats.append({"check": "self_upper_decreasing", "lengths": [4, 8, 12], "final_max": 0.02})
    return _finish(s, GapClass.I_NOT_QW, requests, pool, [0, 1], [],
                   phi, n, seed, prefix, stats)


def _build_qr_not_erg(s, phi, n, seed, pinned_prefix):
    full = parry_measure(s)
    cyc = primitive_cycles(s, 4)[0]
    kappa = periodic_measure(s, cyc)
    theta = THETA_QR_MIX
    m = mixture((theta, 1 - theta), (full, kappa))
    pool = [m, full, kappa]
    lengths = _linear_round_lengths(n, BLOCK_UNIT)
    requests = []
    for length in lengths:
        requests.extend(_mix_chunks(length, [("markov", 1, theta), ("periodic", 2, 1 - theta)]))
    target = integrate(m, phi)
    stats = [
        {"check": "full_horizon_present", "horizon": n},
        {"check": "trace_converges", "target": target, "tol": 0.01, "osc_tol": 0.01,
         "window": 0.25},
    ]
    requests = _with_prefix(pinned_prefix, requests)
    return _finish(s, GapClass.QR_NOT_ERG_NOT_A, requests, pool, [0], [],
                   phi, n, seed, pinned_prefix, stats)


def _build_r_full_support(s, phi, n, seed, pinned_prefix):
    full = parry_measure(s)
    pool = [full]
    lengths = _linear_round_lengths(n, BLOCK_UNIT)
    requests = [("markov", 0, length) for length in lengths]
    target = integrate(full, phi)
    expected = [[list(w), markov_word_probability(full, w)] for w in iter_words(s, 3)]
    stats = [
        {"check": "full_horizon_present", "horizon": n},
        {"check": "trace_converges", "target": target, "tol": 0.01, "osc_tol": 0.01,
         "window": 0.25},
        {"check": "coverage_fraction_of_expected", "length": 3, "fraction": 0.2,
         "expected": expected},
    ]
    requests = _with_prefix(pinned_prefix, requests)
    return _finish(s, GapClass.R_FULL_SUPPORT, requests, pool, [0], [],
                   phi, n, seed, pinned_prefix, stats)


#: Thue-Morse repetition gaps per factor length, measured once at horizon 2^20
TM_GAP_BOUNDS = {1: 3, 2: 4, 3: 8, 4: 8, 5: 16, 6: 16, 7: 16, 8: 16}


def _build_almost_periodic(s, phi, n, seed, pinned_prefix):
    for w in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if not is_admissible(w, s):
            raise NotAdmissible("aperiodic minimal witness needs the full 2-shift inside the ambient")
    requests: list = [("thue_morse", None, n)]
    stats = [{"check": "full_horizon_present", "horizon": n},
             {"check": "not_eventually_periodic", "max_period": 1024}]
    if pinned_prefix is None:
        stats.append({"check": "max_gap_bounded",
                      "bounds": [[ell, TM_GAP_BOUNDS[ell]] for ell in range(1, 9)]})
    requests = _with_prefix(pinned_prefix, requests)
    return _finish(s, GapClass.ALMOST_PERIODIC_NOT_PER, requests, [], [], [],
                   None, n, seed, pinned_prefix, stats)


def _build_periodic(s, n, seed, pinned_prefix, cycle):
    if cycle is None:
        cycle = primitive_cycles(s, 4)[0]
    m = periodic_measure(s, tuple(cycle))
    pool = [m]
    requests = [("periodic", 0, n)]
    stats = [{"check": "full_horizon_present", "horizon": n}]
    if pinned_prefix is None:
        stats.append({"check": "periodic_density_exact", "period": len(m.cycle)})
    requests = _with_prefix(pinned_prefix, requests)
    return _finish(s, GapClass.PERIODIC, requests, pool, [0], [],
                   None, n, seed, pinned_prefix, stats)


# ---------------------------------------------------------------------------
# certification


def certify(o: OrbitPrefix, phi: Optional[Potential] = None) -> dict:
    """Recompute every certificate fact and validate the class structure.

    Raises CertificateMismatch at the first failing fact; returns a report
    dict when everything holds.
    """
    cert = o.certificate
    s = o.shift
    report = {"gap_class": cert.gap_class.value, "checked": []}

    if phi is None:
        phi = cert.phi
    fresh_facts = []
    for idx, (m, fact) in enumerate(zip(cert.pool, cert.exact_facts)):
        fresh = _measure_facts(m, s, phi)
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
        report["checked"].append(f"pool[{idx}]")

    fresh_inf = _inf_over_k(fresh_facts, cert.extremes, cert.chain_links)
    if abs(fresh_inf - cert.inf_entropy_over_K) > 1e-10:
        raise CertificateMismatch("inf_entropy_over_K",
                                  f"{fresh_inf} vs {cert.inf_entropy_over_K}")

    _check_class_structure(o, report)
    _check_word(o, report)
    return report


def _check_class_structure(o: OrbitPrefix, report: dict) -> None:
    cert = o.certificate
    s = o.shift
    gc = cert.gap_class
    pool = cert.pool

    if gc is GapClass.W_NOT_QR:
        m1, m2 = (pool[i] for i in cert.extremes)
        if not (has_full_support(m1, s) and has_full_support(m2, s)):
            raise CertificateMismatch("W_NOT_QR.supports", "both endpoints must have full support")

    elif gc is GapClass.V_NOT_W:
        omega, mu = (pool[i] for i in cert.extremes)
        if not has_full_support(omega, s):
            raise CertificateMismatch("V_NOT_W.omega_support", "omega must have full support")
        if has_full_support(mu, s):
            raise CertificateMismatch("V_NOT_W.mu_support", "mu support must be proper")
        if entropy(mu) <= 1e-12:
            raise CertificateMismatch("V_NOT_W.mu_entropy", "mu must carry entropy")

    elif gc is GapClass.QW_NOT_V:
        for i, m in enumerate(pool):
            if has_full_support(m, s):
                raise CertificateMismatch("QW_NOT_V.supports", f"pool[{i}] has full support")
        for theta, a, b in cert.chain_links:
            if not 0 < theta < 1:
                raise CertificateMismatch("QW_NOT_V.theta", str(theta))

    elif gc is GapClass.I_NOT_QW:
        mu, omega = (pool[i] for i in cert.extremes)
        if not isinstance(omega, Mixture):
            raise CertificateMismatch("I_NOT_QW.omega", "omega must be a mixture")
        attached = omega.components[-1]
        if not supports_disjoint(mu, attached):
            raise CertificateMismatch("I_NOT_QW.disjoint", "attached orbit must avoid mu's edges")

    elif gc is GapClass.QR_NOT_ERG_NOT_A:
        m = pool[cert.extremes[0]]
        if is_ergodic(m):
            raise CertificateMismatch("QR_NOT_ERG_NOT_A.ergodic", "measure must be non-ergodic")
        pieces = support_pieces(m)
        if all(piece_is_single_orbit(p) for p in pieces) and len(pieces) < 2:
            raise CertificateMismatch("QR_NOT_ERG_NOT_A.minimal", "support must be non-minimal")

    elif gc is GapClass.R_FULL_SUPPORT:
        m = pool[cert.extremes[0]]
        if not (is_ergodic(m) and has_full_support(m, s)):
            raise CertificateMismatch("R_FULL_SUPPORT.measure", "need ergodic full support")
        if abs(entropy(m) - cert.ambient_entropy) > 1e-9:
            raise CertificateMismatch("R_FULL_SUPPORT.entropy", "must be maximal entropy")

    elif gc is GapClass.ALMOST_PERIODIC_NOT_PER:
        if cert.pool or cert.inf_entropy_over_K != 0.0:
            raise CertificateMismatch("ALMOST_PERIODIC_NOT_PER.pool", "no measure pool expected")

    elif gc is GapClass.PERIODIC:
        if not isinstance(pool[cert.extremes[0]], PeriodicMeasure):
            raise CertificateMismatch("PERIODIC.measure", "singleton periodic measure expected")
        if cert.inf_entropy_over_K != 0.0:
            raise CertificateMismatch("PERIODIC.entropy", "periodic entropy must be 0")

    if gc in (GapClass.W_NOT_QR, GapClass.I_NOT_QW):
        i1, i2 = (cert.exact_facts[i]["integral"] for i in cert.extremes)
        if abs(i1 - i2) < 1e-9:
            raise CertificateMismatch(f"{gc.value}.integrals", "extreme integrals must differ")
    report["checked"].append("class_structure")


def _check_word(o: OrbitPrefix, report: dict) -> None:
    """Admissibility, pin, and gluing exactness on the available stream.

    Length shortfall is deliberately not an error here: a truncated stream
    is a statistical matter (the full_horizon_present verdict), not a
    certificate-arithmetic one.
    """
    cert = o.certificate
    s = o.shift
    word = o.word
    pairs_ok = np.all(np.array([[s.matrix[i][j] for j in range(s.k)] for i in range(s.k)])
                      [word[:-1], word[1:]] == 1)
    if not pairs_ok:
        raise CertificateMismatch("admissibility", "stream violates the transition matrix")
    if cert.pinned_prefix is not None and len(word) >= len(cert.pinned_prefix):
        pin = np.array(cert.pinned_prefix, dtype=np.int64)
        if not np.array_equal(word[:len(pin)], pin):
            raise CertificateMismatch("pinned_prefix", "stream does not start with the pin")
    for seg in o.schedule.segments:
        if seg.start + seg.length > len(word):
            break
        expected = regenerate_segment(seg, cert.pool)
        if not np.array_equal(word[seg.start:seg.start + seg.length], expected):
            raise CertificateMismatch("schedule_window",
                                      f"segment at {seg.start} does not match its source")
    report["checked"].append("word")
