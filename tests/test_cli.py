import argparse
import ast
import dataclasses
import itertools
import json
import math
import os
import shutil
import subprocess
import symtable
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import cli, io, shifts, synthesis
from shiftlab.classify import CHECKS, evaluate_certificate
from shiftlab.cli import build_parser, main
from shiftlab.errors import RangeMismatch, SchemaError
from shiftlab.measures import indicator_potential
from shiftlab.shifts import SYMBOL_DTYPE, full_shift, golden_mean_shift, sft_from_matrix
from shiftlab.synthesis import CLASSES, Certificate, GapClass, synthesize_witness

from conftest import EVERY_CHECK


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    io.write_json(d / "golden.json", io.shift_to_doc(golden_mean_shift()))
    io.write_json(d / "full2.json", io.shift_to_doc(full_shift(2)))
    phi = indicator_potential(full_shift(2), (1,))
    io.write_json(d / "phi.json", io.potential_to_doc(phi))
    return d


@pytest.fixture(scope="module")
def v_not_w_orbit(tmp_path_factory):
    """A small orbit whose schedule has markov, periodic, literal and bridge segments."""
    s = full_shift(2)
    o = synthesize_witness(s, GapClass.V_NOT_W, indicator_potential(s, (1,)), 4096, seed=1)
    out = tmp_path_factory.mktemp("cert") / "orbit"
    io.write_orbit_dir(o, out)
    return out


@pytest.fixture(scope="module")
def thue_morse_orbit(tmp_path_factory):
    """A small orbit of one thue_morse segment."""
    o = synthesize_witness(full_shift(2), GapClass.ALMOST_PERIODIC_NOT_PER, None, 4096, seed=1)
    out = tmp_path_factory.mktemp("tm") / "orbit"
    io.write_orbit_dir(o, out)
    return out


@pytest.fixture(scope="module")
def periodic_orbit(tmp_path_factory):
    o = synthesize_witness(full_shift(2), GapClass.PERIODIC, None, 4096, seed=1)
    out = tmp_path_factory.mktemp("per") / "orbit"
    io.write_orbit_dir(o, out)
    return out


@pytest.fixture(scope="module")
def qw_not_v_orbit(tmp_path_factory):
    s = full_shift(2)
    o = synthesize_witness(s, GapClass.QW_NOT_V, indicator_potential(s, (1,)), 4096, seed=1)
    out = tmp_path_factory.mktemp("qw") / "orbit"
    io.write_orbit_dir(o, out)
    return out


@pytest.fixture(scope="module")
def w_not_qr_orbit(tmp_path_factory):
    s = full_shift(2)
    o = synthesize_witness(s, GapClass.W_NOT_QR, indicator_potential(s, (1,)), 4096, seed=1)
    out = tmp_path_factory.mktemp("wq") / "orbit"
    io.write_orbit_dir(o, out)
    return out


V1_ORBITS = Path(__file__).parent / "data" / "v1"
V2_ORBITS = Path(__file__).parent / "data" / "v2"


@pytest.fixture(scope="module")
def v2_orbit():
    """The V_NOT_W orbit of v_not_w_orbit's inputs as schema 2 wrote it: one
    object per segment, with its start and sub_seed."""
    return V2_ORBITS / "v_not_w"


def _first(doc: dict, kind: str) -> dict:
    """The first segment object of a kind in a schema 2 schedule."""
    return next(seg for seg in doc["schedule"] if seg["kind"] == kind)


def _segments(doc: dict) -> list[dict]:
    """The segments of a schema 3 schedule's columns, each with its kind
    letter, start, length and source: a start is the sum of the lengths
    before it."""
    columns = doc["schedule"]
    sources = iter(columns["sources"])
    starts = itertools.accumulate(columns["lengths"], initial=0)
    return [{"kind": kind, "start": start, "length": length,
             "source": next(sources) if kind in "mp" else None}
            for kind, start, length in zip(columns["kinds"], starts, columns["lengths"])]


def _index(doc: dict, column: str, kind: str) -> int:
    """The index in a schema 3 sources or words column of the first segment of a kind."""
    takes = "mp" if column == "sources" else "lb"
    return [k for k in doc["schedule"]["kinds"] if k in takes].index(kind)


def _check(doc: dict, kind: str) -> dict:
    return next(chk for chk in doc["expected_statistics"] if chk["check"] == kind)


def _add(doc: dict, **check) -> None:
    doc["expected_statistics"].append(check)


@dataclass
class _Files:
    """What a mutation writes instead of the edited document: another JSON
    value, and the stream symbol it flips, if any."""
    doc: object
    flip: Optional[int] = None


@dataclass
class _On:
    """A mutation of the named orbit fixture instead of the V_NOT_W one."""
    orbit: str
    mutate: Callable


def _v2(mutate: Callable) -> _On:
    """A mutation of the schema 2 orbit's segment objects."""
    return _On("v2_orbit", mutate)


def _without_potential(doc: dict) -> None:
    doc["potential"] = None
    for fact in doc["exact_facts"]:
        fact["integral"] = None


def _flip(orbit, i: int) -> None:
    """Flip binary stream symbol i (the stream wraps at 120 symbols a line)."""
    text = (orbit / "stream.txt").read_text()
    at = i + i // 120
    (orbit / "stream.txt").write_text(text[:at] + "10"[int(text[at])] + text[at + 1:])


def _mutated_copy(orbit, tmp_path, mutate):
    """A copy of the orbit directory whose certificate document went through
    mutate; a mutation that returns _Files replaces the document and may
    flip a stream symbol."""
    out = tmp_path / "orbit"
    shutil.copytree(orbit, out)
    doc = json.loads((out / "certificate.json").read_text())
    files = mutate(doc)
    if not isinstance(files, _Files):
        files = _Files(doc)
    (out / "certificate.json").write_text(json.dumps(files.doc))
    if files.flip is not None:
        _flip(out, files.flip)
    return out


MALFORMED_CERTIFICATES = {
    "no_schedule": lambda d: d.pop("schedule"),
    "no_pool": lambda d: d.pop("pool"),
    "unknown_kind": _v2(lambda d: _first(d, "markov").update(kind="bogus")),
    "markov_source_null": _v2(lambda d: _first(d, "markov").update(source=None)),
    "markov_source_text": _v2(lambda d: _first(d, "markov").update(source="0")),
    "markov_source_outside_pool": _v2(lambda d: _first(d, "markov").update(source=99)),
    "markov_sub_seed_null": _v2(lambda d: _first(d, "markov").update(sub_seed=None)),
    "markov_sub_seed_float": _v2(lambda d: _first(d, "markov").update(sub_seed=2.5)),
    "literal_word_null": _v2(lambda d: _first(d, "literal").update(word=None)),
    "bridge_word_null": _v2(lambda d: _first(d, "bridge").update(word=None)),
    "periodic_source_null": _v2(lambda d: _first(d, "periodic").update(source=None)),
    "periodic_source_outside_pool": _v2(lambda d: _first(d, "periodic").update(source=4)),
    "periodic_source_markov": _v2(lambda d: _first(d, "periodic").update(source=1)),
    "markov_source_periodic": _v2(lambda d: _first(d, "markov").update(source=3)),
    "literal_word_short": _v2(lambda d: _first(d, "literal").update(word=[0])),
    "bridge_word_symbol_outside_alphabet": _v2(lambda d: _first(d, "bridge").update(word=[2])),
    "markov_length_10_to_12_past_flipped_symbol": _v2(lambda d: _Files(
        (_first(d, "markov").update(length=10 ** 12), d)[1], flip=3000)),
    "segment_length_0": _v2(lambda d: _first(d, "markov").update(length=0)),
    "segment_start_text": _v2(lambda d: _first(d, "periodic").update(start="0")),
    "segment_overlaps_previous": _v2(lambda d: _first(d, "periodic").update(
        start=_first(d, "periodic")["start"] - 1)),
    "schedule_short_of_horizon": _v2(lambda d: d["schedule"].pop()),
    "schedule_entry_not_object": _v2(lambda d: d["schedule"].__setitem__(1, 5)),
    "columns_kinds_longer_than_lengths": lambda d: d["schedule"]["lengths"].pop(),
    "kinds_letter_unknown": lambda d: d["schedule"].update(kinds="x" + d["schedule"]["kinds"][1:]),
    "sources_markov_names_periodic":
        lambda d: d["schedule"]["sources"].__setitem__(_index(d, "sources", "m"), 3),
    "words_too_few": lambda d: d["schedule"]["words"].pop(),
    "words_too_many": lambda d: d["schedule"]["words"].append([0]),
    "words_bridge_too_long":
        lambda d: d["schedule"]["words"].__setitem__(_index(d, "words", "b"), [0, 0]),
    "lengths_0": lambda d: d["schedule"]["lengths"].__setitem__(2, 0),
    "lengths_short_of_horizon": lambda d: d["schedule"]["lengths"].__setitem__(
        -1, d["schedule"]["lengths"][-1] - 1),
    "schedule_list_in_schema_3": lambda d: d.update(schedule=_segments(d)),
    "certificate_not_object": lambda d: _Files([d]),
    "exact_facts_short": lambda d: d["exact_facts"].pop(),
    "extremes_outside_pool": lambda d: d.update(extremes=[0, 99]),
    "chain_link_outside_pool": lambda d: d.update(chain_links=[[0.5, 1, 99]]),
    "pool_entry_not_object": lambda d: d["pool"].__setitem__(3, "periodic"),
    "markov_P_nan": lambda d: d["pool"][2]["P"][0].__setitem__(0, float("nan")),
    "mixture_weight_10_to_400": lambda d: d["pool"][0]["weights"].__setitem__(0, 10 ** 400),
    "self_lower_max_no_length": lambda d: _check(d, "self_lower_max").pop("length"),
    "self_lower_max_length_null": lambda d: _check(d, "self_lower_max").update(length=None),
    "self_lower_max_max_text": lambda d: _check(d, "self_lower_max").update(max="x"),
    "self_lower_max_max_null": lambda d: _check(d, "self_lower_max").update(max=None),
    "full_horizon_present_horizon_null":
        lambda d: _check(d, "full_horizon_present").update(horizon=None),
    "cylinder_lower_min_lengths_int": lambda d: d["expected_statistics"].append(
        {"check": "cylinder_lower_min", "lengths": 3, "threshold": 0.01}),
    "markov_pi_not_unique": lambda d: d["pool"][2].update(P=[[1.0, 0.0], [0.0, 1.0]], pi=None),
    "self_lower_max_length_0": lambda d: _check(d, "self_lower_max").update(length=0),
    "self_lower_max_length_negative": lambda d: _check(d, "self_lower_max").update(length=-1),
    "max_gap_bounded_length_0": lambda d: _add(d, check="max_gap_bounded", bounds=[[0, 5]]),
    "coverage_counts_length_negative":
        lambda d: _add(d, check="coverage_counts", length=-2, min_visits=8),
    "self_upper_decreasing_no_lengths":
        lambda d: _add(d, check="self_upper_decreasing", lengths=[], final_max=0.02),
    "trace_check_without_potential": lambda d: (
        d.update(potential=None), [f.update(integral=None) for f in d["exact_facts"]],
        _add(d, check="trace_oscillation", min_gap=0.2)),
    "coverage_counts_length_0": lambda d: _add(d, check="coverage_counts", length=0, min_visits=8),
    "cylinder_lower_min_length_0":
        lambda d: _add(d, check="cylinder_lower_min", lengths=[0], threshold=0.01),
    "periodic_density_exact_period_0": lambda d: _add(d, check="periodic_density_exact", period=0),
    "not_eventually_periodic_max_period_negative":
        lambda d: _add(d, check="not_eventually_periodic", max_period=-5),
    "check_kind_unknown": lambda d: _check(d, "self_lower_max").update(check="bogus_check"),
    "cylinder_lower_min_no_lengths":
        lambda d: _add(d, check="cylinder_lower_min", lengths=[], threshold=0.01),
    "trace_oscillation_window_2": lambda d: _add(d, check="trace_oscillation", min_gap=0.2,
                                                 window=2.0),
    "periodic_extremes_empty": _On("periodic_orbit", lambda d: d.update(extremes=[])),
    "periodic_structure_chain": _On("periodic_orbit", lambda d: d.update(structure="chain")),
    "qw_not_v_chain_links_empty": _On("qw_not_v_orbit", lambda d: d.update(chain_links=[])),
    "w_not_qr_potential_null": _On("w_not_qr_orbit", _without_potential),
    "potential_null": _without_potential,
    "exact_facts_no_entropy": lambda d: d["exact_facts"][0].pop("entropy"),
    "exact_facts_entropy_text": lambda d: d["exact_facts"][0].update(entropy="x"),
    "exact_facts_no_ergodic": lambda d: d["exact_facts"][0].pop("ergodic"),
    "horizon_4096_5": lambda d: d.update(horizon=4096.5),
    "seed_float": lambda d: d.update(seed=1.5),
    "inf_entropy_over_K_nan": lambda d: d.update(inf_entropy_over_K=float("nan")),
    "ambient_entropy_nan": lambda d: d.update(ambient_entropy=float("nan")),
    "potential_word_5": _On("w_not_qr_orbit", lambda d: d["potential"]["entries"].__setitem__(
        0, [[5], 0.0])),
    "potential_range_40": _On("w_not_qr_orbit", lambda d: d["potential"].update(range=40)),
    "potential_word_dropped": _On("w_not_qr_orbit", lambda d: d["potential"]["entries"].pop()),
    "potential_word_000_in_range_1": _On("w_not_qr_orbit", lambda d: d["potential"]["entries"]
                                         .append([[0, 0, 0], 0.0])),
    "potential_range_2_with_range_1_words":
        _On("w_not_qr_orbit", lambda d: d["potential"].update(range=2)),
    "cylinder_lower_min_2_to_the_40_codes":
        lambda d: _add(d, check="cylinder_lower_min", lengths=[40], threshold=0.01),
    "coverage_counts_2_to_the_40_codes":
        lambda d: _add(d, check="coverage_counts", length=40, min_visits=8),
    "pinned_prefix_text": lambda d: d.update(pinned_prefix="".join(map(str, d["pinned_prefix"]))),
    "pinned_prefix_fraction": lambda d: d["pinned_prefix"].__setitem__(0, 0.4),
    "pinned_prefix_booleans": lambda d: d.update(pinned_prefix=list(map(bool, d["pinned_prefix"]))),
    "pinned_prefix_symbol_7": lambda d: d.update(pinned_prefix=[7]),
    "exact_facts_support_symbols_text": lambda d: d["exact_facts"][0].update(
        support_symbols=list(map(str, d["exact_facts"][0]["support_symbols"]))),
    "exact_facts_support_edges_text": lambda d: d["exact_facts"][0].update(
        support_edges=[f"{a}{b}" for a, b in d["exact_facts"][0]["support_edges"]]),
    "mixture_weight_text": lambda d: d["pool"][0]["weights"].__setitem__(
        0, str(d["pool"][0]["weights"][0])),
    "periodic_cycle_booleans":
        lambda d: d["pool"][3].update(cycle=list(map(bool, d["pool"][3]["cycle"]))),
    "markov_P_booleans": lambda d: d["pool"][2].update(P=[[True, False], [False, True]]),
    "shift_labels_text": lambda d: d["shift"].update(labels="ab"),
    "shift_labels_integers": lambda d: d["shift"].update(labels=[1, 2]),
    "shift_matrix_booleans":
        lambda d: d["shift"].update(matrix=[list(map(bool, row)) for row in d["shift"]["matrix"]]),
    "chain_link_theta_text": _On("qw_not_v_orbit", lambda d: d["chain_links"][0].__setitem__(
        0, str(d["chain_links"][0][0]))),
    "chain_link_theta_nan": _On("qw_not_v_orbit", lambda d: d["chain_links"][0].__setitem__(
        0, float("nan"))),
    "markov_pi_sum_1_4": lambda d: d["pool"][1].update(pi=[0.7, 0.7]),
    "markov_pi_not_stationary": lambda d: d["pool"][1].update(pi=[0.5, 0.5]),
    "mixture_weight_negative": lambda d: d["pool"][0]["weights"].__setitem__(0, -0.25),
    "mixture_weights_short": lambda d: d["pool"][0]["weights"].pop(),
    "self_lower_max_unknown_parameter": lambda d: _check(d, "self_lower_max").update(bogus=1),
    "periodic_trace_check": _On("periodic_orbit", lambda d: _add(d, check="trace_oscillation",
                                                                 min_gap=0.2)),
    "self_lower_max_length_6_0": lambda d: _check(d, "self_lower_max").update(length=6.0),
    "self_lower_max_max_true": lambda d: _check(d, "self_lower_max").update(max=True),
    "qw_not_v_min_visits_8_0": _On("qw_not_v_orbit", lambda d: _check(d, "coverage_counts").update(
        min_visits=8.0)),
    "v_not_w_checks_cut_and_pin_null": lambda d: d.update(
        pinned_prefix=None, expected_statistics=d["expected_statistics"][:1]),
    "v_not_w_checks_cut_and_pin_0": lambda d: d.update(
        pinned_prefix=[0], expected_statistics=d["expected_statistics"][:1]),
    "qw_not_v_chain_link_theta_0_6": _On("qw_not_v_orbit", lambda d: d["chain_links"][1]
                                         .__setitem__(0, 0.6)),
    "qw_not_v_extremes_short": _On("qw_not_v_orbit", lambda d: d["extremes"].pop()),
    "exact_facts_unknown_key": lambda d: d["exact_facts"][0].update(bogus=1),
    "qw_not_v_chain_link_theta_1e_12_up": _On("qw_not_v_orbit", lambda d: d["chain_links"][1]
                                              .__setitem__(0, d["chain_links"][1][0] + 1e-12)),
    "w_not_qr_threshold_1e_12_up": _On("w_not_qr_orbit", lambda d: _check(
        d, "cylinder_lower_min").update(threshold=_check(d, "cylinder_lower_min")["threshold"]
                                        + 1e-12)),
}

#: the cases that edit a derived field (synthesis.DERIVED: K's structure and
#: shape, the exact facts, both entropies and expected_statistics) or the pin
#: the checks are derived from, and the fact that verify names: certify
#: compares each with what the recorded inputs give and exits 4, before any
#: statistic is computed and before any report is written
FORGED_CHECKS = {
    "self_lower_max_no_length": "expected_statistics[1].length",
    "self_lower_max_length_null": "expected_statistics[1].length",
    "self_lower_max_max_text": "expected_statistics[1].max",
    "self_lower_max_max_null": "expected_statistics[1].max",
    "full_horizon_present_horizon_null": "expected_statistics[0].horizon",
    "cylinder_lower_min_lengths_int": "expected_statistics[3] (4 entries stored, 3 derived)",
    "self_lower_max_length_0": "expected_statistics[1].length",
    "self_lower_max_length_negative": "expected_statistics[1].length",
    "max_gap_bounded_length_0": "expected_statistics[3]",
    "coverage_counts_length_negative": "expected_statistics[3]",
    "self_upper_decreasing_no_lengths": "expected_statistics[3]",
    "coverage_counts_length_0": "expected_statistics[3]",
    "cylinder_lower_min_length_0": "expected_statistics[3]",
    "periodic_density_exact_period_0": "expected_statistics[3]",
    "not_eventually_periodic_max_period_negative": "expected_statistics[3]",
    "check_kind_unknown": "expected_statistics[1].check",
    "cylinder_lower_min_no_lengths": "expected_statistics[3]",
    "trace_oscillation_window_2": "expected_statistics[3]",
    "cylinder_lower_min_2_to_the_40_codes": "expected_statistics[3]",
    "coverage_counts_2_to_the_40_codes": "expected_statistics[3]",
    "self_lower_max_unknown_parameter": "expected_statistics[1].bogus (stored 1, derived 'absent')",
    "periodic_trace_check": "expected_statistics[2] (3 entries stored, 2 derived)",
    "self_lower_max_length_6_0": "expected_statistics[1].length (stored 6.0, derived 6)",
    "self_lower_max_max_true": "expected_statistics[1].max (stored True, derived 0.01)",
    "qw_not_v_min_visits_8_0": "expected_statistics[1].min_visits (stored 8.0, derived 8)",
    # a null pin counts as the default pin, whose checks the cut list lacks
    "v_not_w_checks_cut_and_pin_null": "expected_statistics[1] (1 entries stored, 3 derived)",
    # the cut list is right for the pin [0], which the schedule does not begin with
    "v_not_w_checks_cut_and_pin_0": "pinned_prefix (pin (0,) is not the schedule's leading literal)",
    "qw_not_v_chain_link_theta_0_6": "chain_links[1] (stored [0.6, 0, 2], derived "
                                     "[0.6666666666666667, 0, 2])",
    "qw_not_v_extremes_short": "extremes[11] (11 entries stored, 12 derived)",
    "periodic_extremes_empty": "extremes[0] (0 entries stored, 1 derived)",
    "qw_not_v_chain_links_empty": "chain_links[0] (0 entries stored, 11 derived)",
    "exact_facts_short": "exact_facts[3] (3 entries stored, 4 derived)",
    "extremes_outside_pool": "extremes[1] (stored 99, derived 1)",
    "chain_link_outside_pool": "chain_links[0] (1 entries stored, 0 derived)",
    "periodic_structure_chain": "structure (stored 'chain', derived 'singleton')",
    "exact_facts_no_entropy": "exact_facts[0].entropy (stored 'absent', derived 0.1896",
    "exact_facts_entropy_text": "exact_facts[0].entropy (stored 'x', derived 0.1896",
    "exact_facts_no_ergodic": "exact_facts[0].ergodic (stored 'absent', derived False)",
    "inf_entropy_over_K_nan": "inf_entropy_over_K (stored nan, derived 0.1896",
    "ambient_entropy_nan": "ambient_entropy (stored nan, derived 0.6931",
    "exact_facts_support_symbols_text":
        "exact_facts[0].support_symbols (stored ['0', '1'], derived [0, 1])",
    "exact_facts_support_edges_text":
        "exact_facts[0].support_edges (stored ['00', '01', '10', '11'], derived [[0, 0]",
    "chain_link_theta_text": "chain_links[0] (stored ['0.5', 0, 1], derived [0.5, 0, 1])",
    "chain_link_theta_nan": "chain_links[0] (stored [nan, 0, 1], derived [0.5, 0, 1])",
    # a fact with a key no fact has, not ignored
    "exact_facts_unknown_key": "exact_facts[0].bogus (stored 1, derived 'absent')",
    # only the exact facts and both entropies compare within 1e-10
    "qw_not_v_chain_link_theta_1e_12_up": "chain_links[1] (stored ",
    "w_not_qr_threshold_1e_12_up": "expected_statistics[2].threshold (stored 0.010000000001, "
                                   "derived 0.01)",
}

#: the message of each case that is there to reach one particular check; the
#: others are checked for "error:" only
MALFORMED_CERTIFICATE_ERRORS = {
    "markov_pi_sum_1_4": "pi must be 2 finite numbers summing to 1",
    "markov_pi_not_stationary": "pi is not stationary for P",
    "mixture_weight_negative": "weights must be positive",
    "mixture_weights_short": "weights and components must align",
    "columns_kinds_longer_than_lengths": "schedule has 87 kinds and 86 lengths",
    "kinds_letter_unknown": "schedule kinds is 'xbmbm",
    "sources_markov_names_periodic": "schedule sources[0] is 3, not the index of a Markov measure",
    "words_too_few": "schedule has 43 words for 44 segments that take one",
    "words_too_many": "schedule has 45 words for 44 segments that take one",
    "words_bridge_too_long": "schedule words[1] has 2 symbols, not its segment's 1",
    "lengths_0": "schedule lengths is [6, 1, 0, 1",
    "lengths_short_of_horizon": "schedule lengths sum to 4095, not to the horizon 4096",
    "schedule_list_in_schema_3": "certificate schedule is [{",
}


GOOD_SHIFT = {"schema": "shiftlab/shift/1", "k": 2, "matrix": [[1, 1], [1, 1]]}
GOOD_POTENTIAL = {"schema": "shiftlab/potential/1", "range": 1,
                  "entries": [[[0], 0.0], [[1], 1.0]]}

#: documents that replace the valid shift or potential of a spectrum run,
#: and the field the error message names
MALFORMED_DOCUMENTS = {
    "shift_array": ({"shift": [GOOD_SHIFT]}, "shift document"),
    "shift_k_text": ({"shift": {**GOOD_SHIFT, "k": "2"}}, "shift k"),
    "shift_matrix_text_and_fraction": ({"shift": {**GOOD_SHIFT, "matrix": [[1, "1"], [0.5, 1]]}},
                                       "matrix entries"),
    "potential_array": ({"potential": [GOOD_POTENTIAL]}, "potential document"),
    "potential_range_text": ({"potential": {**GOOD_POTENTIAL, "range": "1"}}, "potential range"),
    "potential_entry_infinity": ({"potential": {**GOOD_POTENTIAL, "entries": [
        [[0], 0.0], [[1], float("inf")]]}}, "potential entries"),
    "potential_entries_1e308": ({"potential": {**GOOD_POTENTIAL, "entries": [
        [[0], -1e308], [[1], 1e308]]}}, "potential entries"),
    **{f"potential_word_{name}": ({"potential": {**GOOD_POTENTIAL, "entries": [
        [[symbol], 0.0], [[1], 1.0]]}}, "potential entries")
       for name, symbol in (("text", "0"), ("fraction", 0.7), ("true", True))},
    "potential_value_text": ({"potential": {**GOOD_POTENTIAL, "entries": [
        [[0], "0.5"], [[1], 1.0]]}}, "potential entries"),
    "potential_word_twice": ({"potential": {**GOOD_POTENTIAL, "entries": [
        [[0], 0.0], [[1], 1.0], [[1], 2.0]]}}, "potential entries"),
    "potential_empty_range_10_to_9": ({"potential": {**GOOD_POTENTIAL, "range": 10 ** 9,
                                                     "entries": []}}, "potential table"),
    "shift_labels_text": ({"shift": {**GOOD_SHIFT, "labels": "ab"}}, "shift labels"),
    "shift_matrix_booleans": ({"shift": {**GOOD_SHIFT, "matrix": [[True, True], [True, True]]}},
                              "matrix entries"),
    "potential_word_forbidden": ({"shift": {**GOOD_SHIFT, "matrix": [[1, 1], [1, 0]]},
                                  "potential": {**GOOD_POTENTIAL, "range": 2, "entries": [
                                      [[0, 0], 0.0], [[0, 1], 0.0], [[1, 0], 0.0],
                                      [[1, 1], 1.0]]}}, "potential word"),
}


class TestRoundTrips:
    def test_shift_json(self, files, golden):
        doc = io.read_json(files / "golden.json")
        assert io.shift_from_doc(doc) == golden
        assert io.shift_to_doc(io.shift_from_doc(doc)) == doc

    def test_potential_json(self, files, full2):
        doc = io.read_json(files / "phi.json")
        phi = io.potential_from_doc(doc, full2)
        assert io.potential_to_doc(phi) == doc

    def test_potential_read_builds_no_characteristic_polynomial(self, monkeypatch):
        """A range-1 potential on a 150-node cycle with a loop at 0 is read
        without chi_A, which takes seconds at that size: the potential check
        counts the table's words by enumerating them."""
        k = 150
        s = sft_from_matrix(k, [[int(j == (i + 1) % k or i == j == 0) for j in range(k)]
                                for i in range(k)])

        def refuse(matrix):
            raise AssertionError("characteristic polynomial built")

        monkeypatch.setattr(shifts, "characteristic_polynomial", refuse)
        doc = {"schema": io.POTENTIAL_SCHEMA, "range": 1,
               "entries": [[[i], float(i == 0)] for i in range(k)]}
        phi = io.potential_from_doc(doc, s)
        assert io.potential_to_doc(phi) == doc
        with pytest.raises(RangeMismatch, match="lists 149 words"):
            io.potential_from_doc({**doc, "entries": doc["entries"][1:]}, s)

    def test_labels_roundtrip(self, tmp_path):
        from shiftlab.shifts import sft_from_matrix
        s = sft_from_matrix(2, [[1, 1], [1, 0]], labels=("a", "b"))
        io.write_json(tmp_path / "s.json", io.shift_to_doc(s))
        again = io.shift_from_doc(io.read_json(tmp_path / "s.json"))
        assert again.labels == ("a", "b")

    def test_measure_roundtrip(self, full2):
        from shiftlab.measures import mixture, parry_measure, periodic_measure
        m = mixture((0.25, 0.75), (parry_measure(full2), periodic_measure(full2, (0, 1))))
        doc = io.measure_to_doc(m)
        again = io.measure_from_doc(doc, full2)
        assert io.measure_to_doc(again) == doc

    @pytest.mark.parametrize("gap_class", [gc.value for gc in GapClass])
    def test_orbit_roundtrip(self, tmp_path, full2, phi_full2, gap_class):
        """Every document the writers produce passes its table and reads back
        to the same certificate document."""
        phi = phi_full2 if CLASSES[GapClass(gap_class)].potential else None
        o = synthesize_witness(full2, GapClass(gap_class), phi, 1 << 12, seed=5)
        io.write_orbit_dir(o, tmp_path / "orbit")
        again = io.read_orbit_dir(tmp_path / "orbit")
        assert (again.word == o.word).all()
        assert again.certificate.inf_entropy_over_K == o.certificate.inf_entropy_over_K
        assert io.certificate_to_doc(again) == io.certificate_to_doc(o)

    def test_stream_format(self, tmp_path, full2, phi_full2):
        o = synthesize_witness(full2, GapClass.PERIODIC, None, 300, seed=0)
        data = io.stream_to_text(o.word).tobytes()
        lines = data.strip().split(b"\n")
        assert all(len(line) <= 120 for line in lines)
        (tmp_path / "stream.txt").write_bytes(data)
        assert (io._read_stream(tmp_path / "stream.txt", 2) == o.word).all()

    @pytest.mark.parametrize("n", [0, 1, 119, 120, 121, 240])
    def test_stream_rows(self, n):
        """The full rows and the partial last one: the grid's bytes are the
        digits joined, a newline after every 120th and after the last."""
        symbols = [i * 7 % 10 for i in range(n)]
        digits = "".join(map(str, symbols))
        lines = [digits[i:i + 120] for i in range(0, n, 120)] or [""]
        stream = io.stream_to_text(np.array(symbols, dtype=SYMBOL_DTYPE))
        assert stream.tobytes() == "".join(line + "\n" for line in lines).encode("ascii")

    def test_write_orbit_dir_memory(self, tmp_path, full2):
        """Writing a 2^20-symbol orbit holds one copy of its stream, the line
        grid, besides what was live: no text or bytes copy of it."""
        o = synthesize_witness(full2, GapClass.PERIODIC, None, 1 << 20, seed=1)
        tracemalloc.start()
        try:
            io.write_orbit_dir(o, tmp_path / "orbit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (1 << 20)
        assert (io.read_orbit_dir(tmp_path / "orbit").word == o.word).all()


class TestEntropyCommand:
    def test_beta_2_full_shift(self):
        rc, out, _ = run_cli("entropy", "--beta", "2")
        assert rc == 0
        assert "0.693147180560" in out
        assert "# log base: natural (nats)" in out

    def test_golden_spectral(self, files):
        rc, out, _ = run_cli("entropy", "--shift", str(files / "golden.json"),
                             "--method", "spectral")
        assert rc == 0
        assert "0.481211825" in out

    def test_periodic_without_points_exits_2(self, tmp_path):
        """With no point of period dividing n the periodic estimate does not
        exist: exit 2 naming n, with nothing on stdout, not a printed -inf.
        The 60-node cycle with a chord closing a 23-cycle has closed walks of
        lengths 60a + 23b only, so none of length 24."""
        cycle = [[int(j == (i + 1) % 60 or (i, j) == (0, 38)) for j in range(60)]
                 for i in range(60)]
        for name, matrix, n, method in (("chord", cycle, 24, []),
                                        ("swap", [[0, 1], [1, 0]], 3, ["--method", "periodic"])):
            path = tmp_path / f"{name}.json"
            io.write_json(path, io.shift_to_doc(sft_from_matrix(len(matrix), matrix)))
            rc, out, err = run_cli("entropy", "--shift", str(path), "--n", str(n), *method)
            assert (rc, out) == (2, "")
            assert f"n={n}" in err and "Traceback" not in err

    def test_golden_words_close_to_spectral(self, files):
        rc, out, _ = run_cli("entropy", "--shift", str(files / "golden.json"),
                             "--method", "words", "--n", "24")
        val = float(out.strip().splitlines()[-1].split(":")[1])
        assert abs(val - 0.4812118250596035) <= 0.03

    def test_beta_manifest_carries_digit_stream(self, files, tmp_path):
        manifest = tmp_path / "m.json"
        rc, _, _ = run_cli("entropy", "--beta", "1.8", "--manifest", str(manifest))
        assert rc == 0
        doc = json.loads(manifest.read_text())
        assert doc["schema"] == "shiftlab/manifest/1"
        assert doc["inputs"]["digit_stream"]["preperiod"][:4] == [1, 1, 0, 1]
        assert doc["log_base"] == "natural (nats)"
        assert doc["timestamps"] is None

    def test_invalid_input_exit2(self, tmp_path):
        rc, _, err = run_cli("entropy", "--shift", str(tmp_path / "missing.json"))
        assert rc == 2

    @pytest.mark.parametrize("args,field", [
        (["--beta", "1e400"], "beta = 1e400"),
        (["--beta", "1"], "beta = 1 is not a number above 1"),
        (["--beta", "0.5"], "beta = 0.5 is not a number above 1"),
        (["--beta", "1.00000000000000000000000000000001"], "integer beta must be >= 2"),
        (["--beta", "2", "--n", "0"], "--n"),
        (["--shift", "golden.json", "--n", "0"], "--n"),
    ], ids=["beta_1e400", "beta_1", "beta_0_5", "beta_snapped_to_1", "beta_n_0", "shift_n_0"])
    def test_bad_argument_exit2(self, files, args, field):
        rc, _, err = run_cli("entropy", *[str(files / a) if a.endswith(".json") else a
                                          for a in args])
        assert rc == 2
        assert "Traceback" not in err and field in err

    @pytest.mark.parametrize("args", [[], ["--beta", "2", "--shift", "golden.json"]],
                             ids=["neither", "both"])
    def test_shift_or_beta_exit2(self, files, args):
        """Exactly one of --shift and --beta is required: neither one, or
        both, is a usage error, not a traceback or a silent choice."""
        rc, out, err = run_cli("entropy", *[str(files / a) if a.endswith(".json") else a
                                            for a in args])
        assert rc == 2 and out == ""
        assert "usage: shiftlab entropy" in err and "Traceback" not in err

    @pytest.mark.parametrize("args,flag", [
        (["--beta", "1.8", "--method", "periodic"], "--method"),
        (["--shift", "full2.json", "--raw-digits", "--method", "spectral"], "--raw-digits"),
    ], ids=["beta_method", "shift_raw_digits"])
    def test_flag_of_the_other_source_exit2(self, files, args, flag):
        """--method goes with --shift and --raw-digits with --beta: the
        other source's flag is refused before anything prints, not ignored."""
        rc, out, err = run_cli("entropy", *[str(files / a) if a.endswith(".json") else a
                                            for a in args])
        assert rc == 2 and out == ""
        assert "Traceback" not in err and f"{flag} goes with" in err

    def test_integer_beta_1e20(self):
        """An alphabet of 10^20 symbols counts as fast as two."""
        proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", "entropy", "--beta", "1e20"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "log beta:                    46.051701859881" in proc.stdout
        assert "word-count estimate (n=22): 46.051701859881" in proc.stdout

    @pytest.mark.parametrize("n", [2, 3])
    def test_beta_within_digit_snap_of_an_integer_is_that_integer(self, capsys, n):
        """beta = n + 1e-27 is n: its second remainder is below the digit
        snap, so left unsnapped it would read as the one-digit expansion n."""
        beta = f"{n}.{'0' * 26}1"
        assert main(["entropy", "--beta", beta]) == 0
        out = capsys.readouterr().out
        assert f"beta = {beta}  alphabet = {n}\n" in out
        assert f"word-count estimate (n=22): {math.log(n):.12f}" in out

    @pytest.mark.parametrize("n,estimate", [(2, "0.724653865167"), (3, "1.117042520854")])
    def test_beta_past_digit_snap_of_an_integer_keeps_its_digits(self, capsys, n, estimate):
        """beta = n + 1e-24 is not n: its expansion n 0 0 ... needs n + 1 symbols."""
        beta = f"{n}.{'0' * 23}1"
        assert main(["entropy", "--beta", beta]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"beta = {beta}  alphabet = {n + 1}",
            f"word-count estimate (n=22): {estimate}",
            f"log beta:                    {math.log(n):.12f}"]

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]], ids=["short", "long"])
    def test_label_count_mismatch_exit2(self, tmp_path, capsys, labels):
        io.write_json(tmp_path / "shift.json", {"schema": "shiftlab/shift/1", "k": 2,
                                                "matrix": [[1, 1], [1, 0]], "labels": labels})
        assert main(["entropy", "--shift", str(tmp_path / "shift.json")]) == 2
        assert "labels for 2 symbols" in capsys.readouterr().err


class TestPipeline:
    def test_spectrum_csv(self, files, tmp_path):
        out_csv = tmp_path / "curve.csv"
        rc, out, _ = run_cli("spectrum", "--shift", str(files / "golden.json"),
                             "--potential", str(files / "phi.json"),
                             "--points", "9", "--out", str(out_csv))
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "a,psi,q_star"
        assert len(lines) >= 10
        psis = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(p > 0 for p in psis)

    def test_synthesize_verify_ok(self, files, tmp_path):
        orbit = tmp_path / "orbit"
        rc, out, _ = run_cli("synthesize", "--shift", str(files / "full2.json"),
                             "--class", "QW_NOT_V", "--potential", str(files / "phi.json"),
                             "--horizon", str(1 << 15), "--seed", "99",
                             "--out", str(orbit))
        assert rc == 0
        manifest = json.loads((orbit / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (orbit / name).stat().st_size > 0
        rc, out, _ = run_cli("verify", "--orbit", str(orbit))
        assert rc == 0

    def test_verify_writes_report(self, files, tmp_path):
        orbit = tmp_path / "orbit"
        run_cli("synthesize", "--shift", str(files / "full2.json"),
                "--class", "PERIODIC", "--horizon", "4096", "--seed", "1",
                "--out", str(orbit))
        report = tmp_path / "report.json"
        rc, out, _ = run_cli("verify", "--orbit", str(orbit), "--report", str(report))
        assert rc == 0 and out.endswith("verified\n")
        doc = json.loads(report.read_text())
        assert doc["schema"] == "shiftlab/report/1"
        assert doc["all_pass"] is True

    @pytest.mark.parametrize("cycle", ["001", "0000000000001"])
    def test_periodic_cycle_verifies(self, files, tmp_path, capsys, cycle):
        """A symbol that recurs within the cycle, and a period above the
        longest ladder length (12)."""
        orbit = tmp_path / "orbit"
        assert main(["synthesize", "--shift", str(files / "full2.json"), "--class", "PERIODIC",
                     "--cycle", cycle, "--horizon", "4096", "--seed", "1",
                     "--out", str(orbit)]) == 0
        assert main(["verify", "--orbit", str(orbit)]) == 0
        assert capsys.readouterr().out.endswith("verified\n")

    @pytest.mark.parametrize("gap_class", ["PERIODIC", "QR_NOT_ERG_NOT_A"])
    def test_shortest_cycle_of_period_5_builds(self, tmp_path, gap_class):
        """A primitive shift whose cycles are the 5-cycle 0..4 and the 6-cycle
        through 5: both classes glue in its least cycle, (0, 1, 2, 3, 4)."""
        s = sft_from_matrix(6, [[int(j == i + 1) for j in range(6)] for i in range(4)]
                            + [[1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0]])
        io.write_json(tmp_path / "shift.json", io.shift_to_doc(s))
        io.write_json(tmp_path / "phi.json", io.potential_to_doc(indicator_potential(s, (0,))))
        orbit = tmp_path / "orbit"
        assert main(["synthesize", "--shift", str(tmp_path / "shift.json"), "--class", gap_class,
                     "--potential", str(tmp_path / "phi.json"), "--horizon", "4096",
                     "--seed", "1", "--out", str(orbit)]) == 0
        assert main(["verify", "--orbit", str(orbit)]) == 0

    def test_verify_full_support_report(self, files, tmp_path):
        """coverage_fraction_of_expected verdicts are JSON booleans."""
        orbit, report = tmp_path / "orbit", tmp_path / "report.json"
        assert main(["synthesize", "--shift", str(files / "full2.json"),
                     "--class", "R_FULL_SUPPORT", "--potential", str(files / "phi.json"),
                     "--horizon", str(1 << 14), "--seed", "4", "--out", str(orbit)]) == 0
        assert main(["verify", "--orbit", str(orbit), "--report", str(report)]) == 0
        verdicts = json.loads(report.read_text())["verdicts"]
        assert [v["passed"] for v in verdicts if v["check"] ==
                "coverage_fraction_of_expected"] == [True]

    def test_truncated_stream_exit5(self, files, tmp_path):
        orbit = tmp_path / "orbit"
        run_cli("synthesize", "--shift", str(files / "full2.json"),
                "--class", "R_FULL_SUPPORT", "--potential", str(files / "phi.json"),
                "--horizon", str(1 << 14), "--seed", "4", "--out", str(orbit))
        chars = "".join((orbit / "stream.txt").read_text().split())[: (1 << 14) // 4]
        (orbit / "stream.txt").write_text(
            "\n".join(chars[i:i + 120] for i in range(0, len(chars), 120)) + "\n")
        rc, _, _ = run_cli("verify", "--orbit", str(orbit))
        assert rc == 5

    def test_corrupted_certificate_exit4(self, files, tmp_path):
        orbit = tmp_path / "orbit"
        run_cli("synthesize", "--shift", str(files / "full2.json"),
                "--class", "W_NOT_QR", "--potential", str(files / "phi.json"),
                "--horizon", str(1 << 14), "--seed", "4", "--out", str(orbit))
        doc = json.loads((orbit / "certificate.json").read_text())
        doc["inf_entropy_over_K"] += 0.001
        (orbit / "certificate.json").write_text(json.dumps(doc))
        rc, _, _ = run_cli("verify", "--orbit", str(orbit))
        assert rc == 4
        report, manifest = tmp_path / "report.json", tmp_path / "manifest.json"
        rc, out, err = run_cli("verify", "--orbit", str(orbit), "--report", str(report),
                               "--manifest", str(manifest))
        assert rc == 4 and out == ""
        assert "certificate fact failed: inf_entropy_over_K" in err
        assert not report.exists() and not manifest.exists()

    @pytest.mark.parametrize("report", [False, True], ids=["verify", "verify_report"])
    @pytest.mark.parametrize("bad", ["7", "x"])
    def test_stream_symbol_outside_alphabet_exit2(self, files, tmp_path, report, bad):
        orbit = tmp_path / "orbit"
        run_cli("synthesize", "--shift", str(files / "full2.json"),
                "--class", "PERIODIC", "--horizon", "4096", "--seed", "1",
                "--out", str(orbit))
        text = (orbit / "stream.txt").read_text()
        (orbit / "stream.txt").write_text(bad + text[1:])
        args = ["--report", str(tmp_path / "report.json")] if report else []
        rc, _, err = run_cli("verify", "--orbit", str(orbit), *args)
        assert rc == 2
        assert "Traceback" not in err and "not a digit below 2" in err
        assert not (tmp_path / "report.json").exists()

    def test_alphabet_above_ten_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """The stream format holds one digit per symbol: an 11-symbol shift
        is refused as soon as it is read, before the potential's check builds
        chi_A, before any synthesis and before the output directory is made."""
        s = full_shift(11)
        io.write_json(tmp_path / "shift.json", io.shift_to_doc(s))
        io.write_json(tmp_path / "phi.json", io.potential_to_doc(indicator_potential(s, (1,))))
        orbit = tmp_path / "orbit"
        called = []
        monkeypatch.setattr(cli, "synthesize_witness", lambda *a, **kw: called.append("synthesis"))
        monkeypatch.setattr(shifts, "characteristic_polynomial",
                            lambda *a, **kw: called.append("chi_A"))
        assert main(["synthesize", "--shift", str(tmp_path / "shift.json"),
                     "--class", "R_FULL_SUPPORT", "--potential", str(tmp_path / "phi.json"),
                     "--horizon", "4096", "--seed", "1", "--out", str(orbit)]) == 2
        assert "alphabet <= 10" in capsys.readouterr().err
        assert not orbit.exists()
        assert called == []

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
    def test_malformed_document_exit2(self, tmp_path, capsys, case):
        replaced, field = MALFORMED_DOCUMENTS[case]
        for name, doc in {"shift": GOOD_SHIFT, "potential": GOOD_POTENTIAL, **replaced}.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert main(["spectrum", "--shift", str(tmp_path / "shift.json"),
                     "--potential", str(tmp_path / "potential.json"), "--points", "5",
                     "--out", str(tmp_path / "curve.csv")]) == 2
        assert field in capsys.readouterr().err

    @staticmethod
    def _malformed_orbit(request, tmp_path, case):
        mutate = MALFORMED_CERTIFICATES[case]
        base = "v_not_w_orbit"
        if isinstance(mutate, _On):
            base, mutate = mutate.orbit, mutate.mutate
        return _mutated_copy(request.getfixturevalue(base), tmp_path, mutate)

    @staticmethod
    def _refused(rc: int, err: str, case: str) -> None:
        """Exit 2 naming the field, or for a FORGED_CHECKS case exit 4 naming
        the fact that FORGED_CHECKS gives."""
        if case in FORGED_CHECKS:
            assert rc == 4 and f"certificate fact failed: {FORGED_CHECKS[case]}" in err
        else:
            assert rc == 2 and "error:" in err and MALFORMED_CERTIFICATE_ERRORS.get(case, "") in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_malformed_certificate_exit2(self, request, tmp_path, capsys, case):
        """Refused with exit 2, or with exit 4 for a FORGED_CHECKS case."""
        orbit = self._malformed_orbit(request, tmp_path, case)
        rc = main(["verify", "--orbit", str(orbit)])
        captured = capsys.readouterr()
        self._refused(rc, captured.err, case)
        assert captured.out == ""

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_malformed_certificate_classify_exit2(self, request, tmp_path, capsys, case):
        """verify --report, whose report classify.evaluate_certificate builds,
        refuses the same certificates with the same exit code, naming the
        same field, and writes no report."""
        orbit = self._malformed_orbit(request, tmp_path, case)
        rc = main(["verify", "--orbit", str(orbit), "--report", str(tmp_path / "r.json")])
        self._refused(rc, capsys.readouterr().err, case)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("fact,edit", [
        ("exact_facts[1].integral (stored None, derived 0.2763",
         lambda d: d["exact_facts"][1].update(integral=None)),
        ("exact_facts[1].support_edges", lambda d: d["exact_facts"][1]["support_edges"].pop()),
        ("exact_facts[1].ergodic", lambda d: d["exact_facts"][1].update(ergodic=False)),
    ], ids=["integral_null", "support_edges_short", "ergodic_flipped"])
    def test_edited_exact_facts_exit4(self, v_not_w_orbit, tmp_path, capsys, fact, edit):
        """A well-formed exact fact that differs from its recomputed value:
        a missing integral although there is a potential, a dropped support
        edge, a flipped ergodicity."""
        orbit = _mutated_copy(v_not_w_orbit, tmp_path, edit)
        assert main(["verify", "--orbit", str(orbit)]) == 4
        assert f"certificate fact failed: {fact}" in capsys.readouterr().err

    def test_flipped_symbol_exit4(self, v_not_w_orbit, tmp_path, capsys):
        """The stream edit of markov_length_10_to_12_past_flipped_symbol, alone."""
        orbit = _mutated_copy(v_not_w_orbit, tmp_path, lambda d: _Files(d, flip=3000))
        assert main(["verify", "--orbit", str(orbit)]) == 4
        assert "schedule_window" in capsys.readouterr().err

    def test_stream_past_the_horizon_exit4(self, v_not_w_orbit, tmp_path, capsys):
        """100 rows of 1s appended: no segment stands for those symbols, and
        the verdicts would read them."""
        orbit = tmp_path / "orbit"
        shutil.copytree(v_not_w_orbit, orbit)
        with open(orbit / "stream.txt", "a") as fh:
            fh.write(("1" * 120 + "\n") * 100)
        assert main(["verify", "--orbit", str(orbit)]) == 4
        assert "16096 symbols, past the horizon 4096" in capsys.readouterr().err

    @pytest.mark.parametrize("report", [False, True], ids=["verify", "verify_report"])
    @pytest.mark.parametrize("layout", ["orbit_is_a_file", "certificate_is_a_directory",
                                        "stream_is_a_directory"])
    def test_unreadable_input_exit2(self, v_not_w_orbit, tmp_path, capsys, report, layout):
        orbit = tmp_path / "orbit"
        if layout == "orbit_is_a_file":
            orbit.write_text("not an orbit directory\n")
        else:
            shutil.copytree(v_not_w_orbit, orbit)
            name = "certificate.json" if layout == "certificate_is_a_directory" else "stream.txt"
            (orbit / name).unlink()
            (orbit / name).mkdir()
        args = ["--report", str(tmp_path / "r.json")] if report else []
        assert main(["verify", "--orbit", str(orbit), *args]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_first_mismatch_reported(self, v_not_w_orbit, tmp_path, capsys):
        """Two corrupted Markov segments of one source: verify names the earlier."""
        orbit = tmp_path / "orbit"
        shutil.copytree(v_not_w_orbit, orbit)
        segments = _segments(json.loads((orbit / "certificate.json").read_text()))
        source = next(seg["source"] for seg in segments if seg["kind"] == "m")
        same = [seg for seg in segments if seg["kind"] == "m" and seg["source"] == source]
        earlier, later = same[1], same[-1]
        for seg in (later, earlier):
            _flip(orbit, seg["start"] + seg["length"] // 2)
        assert main(["verify", "--orbit", str(orbit)]) == 4
        err = capsys.readouterr().err
        assert f"segment at {earlier['start']} does not match" in err
        assert f"segment at {later['start']}" not in err

    def test_truncated_stream_checks_whole_segments(self, v_not_w_orbit, tmp_path, capsys):
        """A stream cut inside a Markov segment is checked on the segments it
        holds whole: a flip in the cut segment is not a mismatch, one in an
        earlier segment is."""
        orbit = tmp_path / "orbit"
        shutil.copytree(v_not_w_orbit, orbit)
        segments = _segments(json.loads((orbit / "certificate.json").read_text()))
        markov = [seg for seg in segments if seg["kind"] == "m"]
        cut_seg = max(markov, key=lambda seg: seg["length"])
        cut = cut_seg["start"] + cut_seg["length"] // 2
        _flip(orbit, cut - 1)
        chars = "".join((orbit / "stream.txt").read_text().split())[:cut]
        (orbit / "stream.txt").write_text(
            "\n".join(chars[i:i + 120] for i in range(0, len(chars), 120)) + "\n")
        assert main(["verify", "--orbit", str(orbit)]) == 5
        earlier = markov[0]
        _flip(orbit, earlier["start"])
        assert main(["verify", "--orbit", str(orbit)]) == 4
        assert f"segment at {earlier['start']} does not match" in capsys.readouterr().err

    def test_not_primitive_exit3(self, tmp_path, files):
        io.write_json(tmp_path / "diag.json",
                      {"schema": "shiftlab/shift/1", "k": 2, "matrix": [[1, 0], [0, 1]]})
        rc, _, _ = run_cli("synthesize", "--shift", str(tmp_path / "diag.json"),
                           "--class", "R_FULL_SUPPORT", "--potential", str(files / "phi.json"),
                           "--horizon", "4096", "--seed", "1",
                           "--out", str(tmp_path / "x"))
        assert rc == 3

    def test_edited_ambient_entropy_exit4(self, w_not_qr_orbit, tmp_path, capsys):
        orbit = _mutated_copy(w_not_qr_orbit, tmp_path, lambda d: d.update(ambient_entropy=5.0))
        assert main(["verify", "--orbit", str(orbit)]) == 4
        assert "certificate fact failed: ambient_entropy" in capsys.readouterr().err

    def test_edited_threshold_message_once(self, w_not_qr_orbit, tmp_path, capsys):
        """The cylinder_lower_min threshold edited from 0.01 to 0.005: verify
        exits 4, and stderr is the mismatch once, on one line."""
        def halve(doc):
            check = doc["expected_statistics"][2]
            assert check["check"] == "cylinder_lower_min" and check["threshold"] == 0.01
            check["threshold"] = 0.005
        orbit = _mutated_copy(w_not_qr_orbit, tmp_path, halve)
        assert main(["verify", "--orbit", str(orbit)]) == 4
        err = capsys.readouterr().err
        assert err == ("certificate fact failed: expected_statistics[2].threshold "
                       "(stored 0.005, derived 0.01)\n")
        assert err.count("certificate fact failed") == 1

    def test_cycle_outside_periodic_exit2(self, files, tmp_path, capsys):
        """Only PERIODIC reads --cycle; another class refuses it rather than
        record an input it dropped."""
        assert main(["synthesize", "--shift", str(files / "full2.json"), "--class", "W_NOT_QR",
                     "--potential", str(files / "phi.json"), "--cycle", "0111",
                     "--horizon", "4096", "--seed", "1", "--out", str(tmp_path / "x")]) == 2
        assert "only by PERIODIC" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("horizon", [64, 100])
    def test_cycle_not_shorter_than_horizon_exit2(self, files, tmp_path, capsys, horizon):
        """A 100-symbol cycle needs a horizon above 100: synthesize refuses a
        shorter one, naming both lengths, and writes nothing."""
        out = tmp_path / "orbit"
        assert main(["synthesize", "--shift", str(files / "full2.json"), "--class", "PERIODIC",
                     "--cycle", "0" * 99 + "1", "--horizon", str(horizon), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"a cycle of 100 symbols needs a horizon above it, not {horizon}" in err
        assert not out.exists()

    @pytest.mark.parametrize("gap_class,horizon", [
        ("QW_NOT_V", 28), ("QW_NOT_V", 999), ("R_FULL_SUPPORT", 28), ("R_FULL_SUPPORT", 999),
        ("W_NOT_QR", 28), ("W_NOT_QR", 64)])
    def test_short_ten_symbol_witness_fails_a_verdict(self, tmp_path, capsys, gap_class,
                                                      horizon):
        """On the full 10-shift, horizons too short for a stream to hold every
        word its checks count (3-words below 1000 symbols, 2-words below 100):
        synthesize writes the witness, and verify scores it, with a failing
        verdict (exit 5)."""
        s = full_shift(10)
        io.write_json(tmp_path / "full10.json", io.shift_to_doc(s))
        io.write_json(tmp_path / "phi.json", io.potential_to_doc(indicator_potential(s, (1,))))
        out = tmp_path / "orbit"
        assert main(["synthesize", "--shift", str(tmp_path / "full10.json"), "--class", gap_class,
                     "--potential", str(tmp_path / "phi.json"), "--horizon", str(horizon),
                     "--seed", "1", "--out", str(out)]) == 0
        assert main(["verify", "--orbit", str(out)]) == 5
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("gap_class,height", [("W_NOT_QR", 1e-6), ("I_NOT_QW", 1e-9)])
    def test_narrow_potential_refused_writes_nothing(self, files, tmp_path, capsys,
                                                     gap_class, height):
        """A potential so narrow that the class's extreme measures' integrals
        differ by less than its integrals rule allows is refused by
        synthesize, which names the rule, rather than written for verify to
        refuse."""
        io.write_json(tmp_path / "phi.json", {"schema": "shiftlab/potential/1", "range": 1,
                                              "entries": [[[0], 0.0], [[1], height]]})
        out = tmp_path / "orbit"
        assert main(["synthesize", "--shift", str(files / "full2.json"), "--class", gap_class,
                     "--potential", str(tmp_path / "phi.json"), "--horizon", str(1 << 16),
                     "--seed", "1", "--out", str(out)]) == 2
        assert (f"certificate fact failed: {gap_class}.integrals (extreme integrals must differ)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_potential_class_without_potential_exit2(self, files, tmp_path, capsys):
        out = tmp_path / "orbit"
        assert main(["synthesize", "--shift", str(files / "full2.json"), "--class", "W_NOT_QR",
                     "--horizon", "4096", "--seed", "1", "--out", str(out)]) == 2
        assert "W_NOT_QR requires a potential" in capsys.readouterr().err
        assert not out.exists()

    def test_w_not_qr_range_3_potential_exit2(self, files, tmp_path, capsys):
        """W_NOT_QR's tilted measure weighs edges, so a potential of range 3
        is refused before anything is written."""
        io.write_json(tmp_path / "phi3.json",
                      io.potential_to_doc(indicator_potential(full_shift(2), (1, 1, 0))))
        out = tmp_path / "orbit"
        assert main(["synthesize", "--shift", str(files / "full2.json"), "--class", "W_NOT_QR",
                     "--potential", str(tmp_path / "phi3.json"), "--horizon", "4096",
                     "--seed", "1", "--out", str(out)]) == 2
        assert "tilted measure needs a range <= 2 potential" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_two_points_exit2(self, files, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["spectrum", "--shift", str(files / "full2.json"),
                     "--potential", str(files / "phi.json"), "--points", "2",
                     "--out", str(out)]) == 2
        assert "npoints >= 3 required" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_points_past_the_limit_exit2(self, files, tmp_path, capsys):
        """One point past spectrum.MAX_POINTS is refused at once, naming the
        bound, with nothing printed and no CSV written."""
        out = tmp_path / "curve.csv"
        start = time.perf_counter()
        assert main(["spectrum", "--shift", str(files / "full2.json"),
                     "--potential", str(files / "phi.json"), "--points", "100001",
                     "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert "above the limit MAX_POINTS = 100000" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_negative_horizon_exit2(self, files, tmp_path, capsys):
        """synthesize refuses a horizon its own verify would refuse, negative
        or 0, for every class, before writing anything."""
        for gap_class in GapClass:
            for horizon in (-3, 0):
                out = tmp_path / f"{gap_class.value}_{horizon}"
                assert main(["synthesize", "--shift", str(files / "full2.json"),
                             "--class", gap_class.value, "--potential", str(files / "phi.json"),
                             "--horizon", str(horizon), "--seed", "1", "--out", str(out)]) == 2
                assert f"horizon is {horizon}, not an integer >= 1" in capsys.readouterr().err
                assert not out.exists()

    def test_horizon_past_the_limit_exit2(self, files, tmp_path, capsys):
        """A horizon above 2^26 is refused at once, naming the limit, before
        anything is written (10^9 used to end in a MemoryError)."""
        out = tmp_path / "orbit"
        start = time.perf_counter()
        assert main(["synthesize", "--shift", str(files / "full2.json"), "--class", "V_NOT_W",
                     "--potential", str(files / "phi.json"), "--horizon", str((1 << 26) + 1),
                     "--seed", "1", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 5
        assert "horizon is 67108865, above the limit 2^26 = 67108864" in capsys.readouterr().err
        assert not out.exists()

    def test_too_short_orbit_exit2(self, files, tmp_path):
        """A stream with fewer than 16 evidence times past the longest ladder
        length is refused, with or without a report, before any sweep."""
        orbit = tmp_path / "orbit"
        rc, _, _ = run_cli("synthesize", "--shift", str(files / "full2.json"),
                           "--class", "W_NOT_QR", "--potential", str(files / "phi.json"),
                           "--horizon", "20", "--seed", "1", "--out", str(orbit))
        assert rc == 0
        for args in ([], ["--report", str(tmp_path / "report.json")]):
            rc, _, err = run_cli("verify", "--orbit", str(orbit), *args)
            assert rc == 2
            assert "Traceback" not in err and "too short" in err
        assert not (tmp_path / "report.json").exists()


def _call(argv: list[str], capsys) -> tuple[int, str, str]:
    """main(argv) in this process: its exit code, argparse's SystemExit
    code included, and what it printed."""
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    return rc, out, err


def _fresh(argv: list[str], capsys) -> tuple[int, str, str]:
    """The same call made on a newly built parser."""
    build_parser.cache_clear()
    return _call(argv, capsys)


@pytest.mark.parametrize("command", ["entropy", "spectrum", "synthesize", "verify"])
def test_timestamps_option_gone(files, v_not_w_orbit, tmp_path, capsys, command):
    """No option stamps a manifest (its "timestamps" field stays null):
    --timestamps is an unknown argument, refused before anything is written."""
    argv = {"entropy": ["--beta", "1.8"],
            "spectrum": ["--shift", str(files / "golden.json"), "--potential",
                         str(files / "phi.json"), "--out", str(tmp_path / "curve.csv")],
            "synthesize": ["--shift", str(files / "full2.json"), "--class", "PERIODIC",
                           "--seed", "1", "--out", str(tmp_path / "orbit")],
            "verify": ["--orbit", str(v_not_w_orbit), "--report", str(tmp_path / "report.json")]}
    rc, _, err = _call([command, *argv[command], "--timestamps"], capsys)
    assert rc == 2 and "unrecognized arguments: --timestamps" in err
    assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """main builds its parser on the first call and reuses it: a call after
    any sequence of others gives what it gives on a new parser."""

    def test_spectrum_default_points_after_129(self, files, tmp_path, capsys):
        def spectrum(out, *points):
            return ["spectrum", "--shift", str(files / "golden.json"),
                    "--potential", str(files / "phi.json"), *points, "--out", str(tmp_path / out)]

        assert _call(spectrum("129.csv", "--points", "129"), capsys)[0] == 0
        after = _call(spectrum("default.csv"), capsys)
        fresh = _fresh(spectrum("33.csv", "--points", "33"), capsys)
        assert after == fresh and after[0] == 0
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "33.csv").read_bytes()
        assert (tmp_path / "default.csv").read_bytes() != (tmp_path / "129.csv").read_bytes()

    def test_entropy_all_methods_after_one(self, files, capsys):
        shift = ["entropy", "--shift", str(files / "golden.json")]
        assert _call(shift + ["--method", "words", "--n", "5"], capsys)[0] == 0
        after = _call(shift, capsys)
        assert after == _fresh(shift, capsys)
        assert after[0] == 0
        assert [line.split(":")[0] for line in after[1].splitlines()[1:]] == [
            "spectral", "words (n=24)", "periodic (n=24)"]

    @pytest.mark.parametrize("argv,code", [
        (["synthesize", "--shift", "full2.json", "--class", "NOPE", "--seed", "1",
          "--out", "x"], 2),
        (["--help"], 0),
    ], ids=["rejected_class", "help"])
    def test_verify_after_argparse_exit(self, files, v_not_w_orbit, capsys, argv, code):
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        verify = ["verify", "--orbit", str(v_not_w_orbit)]
        fresh_exit = _fresh(argv, capsys)
        fresh_verify = _fresh(verify, capsys)
        assert fresh_exit[0] == code and fresh_verify[0] == 0
        assert _call(argv, capsys) == fresh_exit
        assert _call(verify, capsys) == fresh_verify

    def test_later_calls_build_no_parser(self, files, v_not_w_orbit, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        calls = [["verify", "--orbit", str(v_not_w_orbit)],
                 ["entropy", "--beta", "1.8"],
                 ["entropy", "--shift", str(files / "golden.json"), "--method", "spectral"],
                 ["verify", "--orbit", str(v_not_w_orbit)]]
        assert _call(calls[0], capsys)[0] == 0
        first = len(built)
        assert first == 5  # the top-level parser and one per command
        for argv in calls[1:]:
            assert _call(argv, capsys)[0] == 0
        assert len(built) == first


class TestSchemaV1:
    """Orbit directories written with shiftlab/certificate/1 still verify."""

    @pytest.mark.parametrize("name", ["v_not_w", "almost_periodic_not_per"])
    def test_v1_orbit_verifies(self, capsys, name):
        assert main(["verify", "--orbit", str(V1_ORBITS / name)]) == 0
        assert capsys.readouterr().out.endswith("verified\n")

    def test_v1_reads_as_the_v2_orbit(self, full2):
        """The v1 periodic words are dropped on reading; what is left is the
        orbit the same inputs give now."""
        again = io.read_orbit_dir(V1_ORBITS / "v_not_w")
        o = synthesize_witness(full2, GapClass.V_NOT_W, indicator_potential(full2, (1,)), 4096,
                               seed=1)
        assert (again.word == o.word).all()
        assert io.certificate_to_doc(again) == io.certificate_to_doc(o)


class TestSchemaV2:
    """Orbit directories written with shiftlab/certificate/2, one object per
    segment with its start and sub_seed, read as the orbit the same inputs
    give now."""

    @pytest.mark.parametrize("name", ["v_not_w", "almost_periodic_not_per"])
    def test_v2_orbit_verifies(self, capsys, name):
        assert main(["verify", "--orbit", str(V2_ORBITS / name)]) == 0
        assert capsys.readouterr().out.endswith("verified\n")

    @pytest.mark.parametrize("name", ["v_not_w", "almost_periodic_not_per"])
    def test_v2_reads_as_the_fresh_orbit(self, full2, tmp_path, name):
        """Same stream bytes, every Segment field (the starts and sub-seeds
        the v2 file stored, derived now) and every Certificate field."""
        again = io.read_orbit_dir(V2_ORBITS / name)
        o = synthesize_witness(full2, GapClass(name.upper()), indicator_potential(full2, (1,)),
                               4096, seed=1)
        io.write_orbit_dir(o, tmp_path)
        stream = (V2_ORBITS / name / "stream.txt").read_bytes()
        assert (tmp_path / "stream.txt").read_bytes() == stream
        assert [dataclasses.astuple(seg) for seg in again.schedule.segments] == \
            [dataclasses.astuple(seg) for seg in o.schedule.segments]
        for field in dataclasses.fields(Certificate):
            read, fresh = (getattr(x.certificate, field.name) for x in (again, o))
            if field.name == "pool":   # a Markov measure holds arrays, so compare documents
                read, fresh = ([io.measure_to_doc(m) for m in pool] for pool in (read, fresh))
            assert read == fresh, field.name

    def test_sub_seed_not_derived_exit4(self, v2_orbit, tmp_path, capsys):
        """A stored Markov sub_seed that is not the one the seed's stream
        gives is refused, though it is well formed."""
        orbit = _mutated_copy(v2_orbit, tmp_path, lambda d: _first(d, "markov").update(
            sub_seed=_first(d, "markov")["sub_seed"] ^ 1))
        assert main(["verify", "--orbit", str(orbit)]) == 4
        assert "certificate fact failed: sub_seed (segment at 7 " in capsys.readouterr().err

    def test_sub_seed_not_derived_report_exit4(self, v2_orbit, tmp_path, capsys):
        """The reader refuses that sub_seed, so no report is written."""
        orbit = _mutated_copy(v2_orbit, tmp_path, lambda d: _first(d, "markov").update(
            sub_seed=_first(d, "markov")["sub_seed"] ^ 1))
        report = tmp_path / "report.json"
        assert main(["verify", "--orbit", str(orbit), "--report", str(report)]) == 4
        assert "certificate fact failed: sub_seed (segment at 7 " in capsys.readouterr().err
        assert not report.exists()

    def test_verify_derives_sub_seeds_once(self, v_not_w_orbit, capsys, monkeypatch):
        """A schema 3 orbit stores no sub-seed, and verify derives them once,
        for the schedule check."""
        calls = []
        derive = synthesis.sub_seeds

        def counting(*args):
            calls.append(args)
            return derive(*args)

        for module in (synthesis, io):
            monkeypatch.setattr(module, "sub_seeds", counting)
        assert main(["verify", "--orbit", str(v_not_w_orbit)]) == 0
        assert capsys.readouterr().out.endswith("verified\n")
        assert len(calls) == 1


class TestRawDigitsFlag:
    def test_raw_mode_larger_language(self, tmp_path):
        # literal terminating stream admits more words than the normalized one
        rc, out_norm, _ = run_cli("entropy", "--beta",
                                  "1.61803398874989484820458683436563811772", "--n", "8")
        rc2, out_raw, _ = run_cli("entropy", "--beta",
                                  "1.61803398874989484820458683436563811772", "--n", "8",
                                  "--raw-digits")
        assert rc == rc2 == 0
        norm = float(out_norm.splitlines()[2].split(":")[1])
        raw = float(out_raw.splitlines()[2].split(":")[1])
        assert raw > norm


class TestScripts:
    def test_witness_gallery(self, tmp_path):
        proc = subprocess.run([sys.executable, "scripts/witness_gallery.py",
                               "--horizon", "16384", "--seed", "2",
                               "--out", str(tmp_path / "g")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (tmp_path / "g" / "periodic" / "stream.txt").exists()

    def test_spectrum_scan(self, tmp_path):
        proc = subprocess.run([sys.executable, "scripts/spectrum_scan.py",
                               "--points", "7", "--out", str(tmp_path / "s")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (tmp_path / "s" / "golden_mean.csv").read_text().startswith("a,psi,q_star")


REPO = Path(__file__).resolve().parents[1]


def _reads(path: Path) -> tuple[set, set]:
    """The names path's code reads, as (name, owner) pairs, owner being the
    top-level def or class the read sits in (None at module level): first
    every `from ... import` name and attribute, then every load of a module
    global, resolved by symtable so that a local of the same name is not one."""
    source = path.read_text()
    named = set()
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom):
                named.update((alias.name, owner) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                named.add((node.attr, owner))
    top = symtable.symtable(source, str(path), "exec")
    loads = {(sym.get_name(), None) for sym in top.get_symbols() if sym.is_referenced()}
    for child in top.get_children():
        tables = [child]
        while tables:
            table = tables.pop()
            tables.extend(table.get_children())
            loads.update((sym.get_name(), child.get_name()) for sym in table.get_symbols()
                         if sym.is_global() and sym.is_referenced())
    return named, loads


class TestProgramCallers:
    def test_every_public_function_has_a_program_caller(self):
        """Every public module-level function of the package is read by the
        program (src/, scripts/ or benchmark/) outside its own def: imported
        by name, reached as an attribute, or loaded as a global of its own
        module.  A function only tests reach is not part of the program."""
        program = [path for part in ("src", "scripts", "benchmark")
                   for path in sorted((REPO / part).rglob("*.py"))]
        reads = {path: _reads(path) for path in program}
        named = {(path, n, o) for path, (pairs, _) in reads.items() for n, o in pairs}
        uncalled = []
        for path in sorted((REPO / "src" / "shiftlab").glob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
                    continue
                f = stmt.name
                if not (any(n == f and (p, o) != (path, f) for p, n, o in named)
                        or any(n == f and o != f for n, o in reads[path][1])):
                    uncalled.append(f"{path.stem}.{f}")
        assert uncalled == []


_json_scalars = (st.none() | st.booleans() | st.text(max_size=8)
                 | st.integers(-(10 ** 30), 10 ** 30) | st.floats(allow_nan=True, allow_infinity=True)
                 | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 2 ** 64, "é☃\U0001f600"]))
_json_keys = (st.text(max_size=6) | st.integers(-(10 ** 20), 10 ** 20) | st.floats()
              | st.booleans() | st.none())
_json_docs = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(_json_keys, inner, max_size=6)),
    max_leaves=40)


class TestJsonWriter:
    @given(doc=_json_docs)
    @settings(max_examples=300, deadline=None)
    def test_same_text_as_dumps(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "hypothesis_doc.json"
        io.write_json(path, doc)
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode("ascii")

    def test_write_json_file(self, tmp_path):
        doc = {"a": [1, 2.5, None], 3: {"b": ()}, None: [[], {}], "c": [{"d": [True]}]}
        io.write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == json.dumps(doc) + "\n"

    def test_unsupported_key_raises_like_dumps(self, tmp_path):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            io.write_json(tmp_path / "doc.json", {(1, 2): 0})
        assert not list(tmp_path.iterdir())


class TestOutputFiles:
    def test_mode_of_open(self, files, tmp_path):
        """Each output gets the mode open() gives a new file, 0o666 less the
        umask, not the 0o600 of the temporary file it was written to."""
        orbit, out = tmp_path / "orbit", tmp_path / "out"
        out.mkdir()
        umask = os.umask(0o022)
        try:
            assert main(["synthesize", "--shift", str(files / "full2.json"), "--class", "PERIODIC",
                         "--horizon", "4096", "--seed", "1", "--out", str(orbit)]) == 0
            assert main(["spectrum", "--shift", str(files / "golden.json"),
                         "--potential", str(files / "phi.json"), "--points", "5",
                         "--out", str(out / "curve.csv"), "--manifest", str(out / "s.json")]) == 0
            assert main(["verify", "--orbit", str(orbit), "--report", str(out / "report.json"),
                         "--manifest", str(out / "v.json")]) == 0
            for d in (orbit, out):
                open(d / "by_open", "w").close()
        finally:
            os.umask(umask)
        written = sorted(p for d in (orbit, out) for p in d.iterdir() if p.name != "by_open")
        assert [p.name for p in written] == ["certificate.json", "manifest.json", "stream.txt",
                                             "curve.csv", "report.json", "s.json", "v.json"]
        assert {p.name: oct(p.stat().st_mode) for p in written} == {
            p.name: oct((p.parent / "by_open").stat().st_mode) for p in written}

    @pytest.mark.parametrize("case", ["spectrum_out_dir", "spectrum_manifest_dir",
                                      "entropy_manifest_dir", "synthesize_out_file",
                                      "verify_report_dir"])
    def test_unusable_output_path_exit2(self, files, v_not_w_orbit, tmp_path, case):
        """An output file that is a directory, or an output directory that is
        a file: exit 2 with a message that names the path, no traceback,
        nothing printed, and no temporary file left."""
        target = tmp_path / "target"
        if case == "synthesize_out_file":
            target.write_text("a file\n")
        else:
            target.mkdir()
        args = {
            "spectrum_out_dir": ["spectrum", "--shift", str(files / "golden.json"),
                                 "--potential", str(files / "phi.json"), "--points", "5", "--out"],
            "spectrum_manifest_dir": ["spectrum", "--shift", str(files / "golden.json"),
                                      "--potential", str(files / "phi.json"), "--points", "5",
                                      "--out", str(tmp_path / "curve.csv"), "--manifest"],
            "entropy_manifest_dir": ["entropy", "--beta", "2", "--manifest"],
            "synthesize_out_file": ["synthesize", "--shift", str(files / "full2.json"), "--class",
                                    "PERIODIC", "--horizon", "4096", "--seed", "1", "--out"],
            "verify_report_dir": ["verify", "--orbit", str(v_not_w_orbit), "--report"],
        }[case]
        rc, out, err = run_cli(*args, str(target))
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"'{target}'" in err and "target." not in err
        assert [p.name for p in tmp_path.iterdir() if p.name != "curve.csv"] == ["target"]


def _paths(value, path=()):
    """Every path into a check entry, through its lists too."""
    if path:
        yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def check_edits(draw):
    """(entry index, edit, path, new value): one edit to an EVERY_CHECK entry."""
    i = draw(st.integers(0, len(EVERY_CHECK) - 1))
    entry = EVERY_CHECK[i]
    paths = list(_paths(entry))
    edit = draw(st.sampled_from(["drop", "retype", "integer", "empty", "rename", "no_potential"]))
    ints = [p for p in paths if type(_at(entry, p)) is int]
    lists = [p for p in paths if type(_at(entry, p)) is list]
    if edit == "drop":
        return i, edit, (draw(st.sampled_from(sorted(entry))),), None
    if edit == "rename":
        return i, edit, ("check",), draw(st.sampled_from(sorted(CHECKS)) | st.text(max_size=8))
    if edit == "no_potential":
        return i, edit, (), None
    if edit == "integer" and ints:
        return i, edit, draw(st.sampled_from(ints)), draw(st.sampled_from(
            [0, -1, -(2 ** 70), 2 ** 31, 2 ** 63, 10 ** 400]))
    if edit == "empty" and lists:
        return i, edit, draw(st.sampled_from(lists)), []
    return i, "retype", draw(st.sampled_from(paths)), draw(st.sampled_from(
        [None, "x", "", 2.5, 0.0, -1.0, float("nan"), float("inf"), [], [1], [[0, 1]]]))


def _apply_edit(doc: dict, edit) -> None:
    i, kind, path, value = edit
    if kind == "no_potential":
        doc["potential"] = None
        return
    parent = _at(doc["expected_statistics"][i], path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


class TestMutatedChecks:
    """Any edit to a certificate's checks ends in a documented exit code."""

    @pytest.fixture(scope="class")
    @staticmethod
    def every_check_orbit(v_not_w_orbit, tmp_path_factory):
        return _mutated_copy(v_not_w_orbit, tmp_path_factory.mktemp("checks"),
                             lambda d: d.update(expected_statistics=EVERY_CHECK))

    def test_every_kind_scores(self, every_check_orbit):
        """Every kind scores in-process; verify refuses this list (exit 4),
        since no class states it."""
        assert {chk["check"] for chk in EVERY_CHECK} == set(CHECKS)
        o = io.read_orbit_dir(every_check_orbit)
        result = evaluate_certificate(o.word, o.shift, EVERY_CHECK, phi=o.certificate.phi)
        assert [v["check"] for v in result["verdicts"]] == [chk["check"] for chk in EVERY_CHECK]
        assert not result["all_pass"]   # the EVERY_CHECK thresholds fail some verdicts

    @given(edits=st.lists(check_edits(), min_size=1, max_size=3, unique_by=lambda e: e[0]))
    @settings(max_examples=60, deadline=None)
    def test_edited_checks_exit_documented_code(self, every_check_orbit, edits):
        doc = json.loads((every_check_orbit / "certificate.json").read_text())
        for edit in edits:
            _apply_edit(doc, edit)
        orbit = every_check_orbit.parent / "edited"
        orbit.mkdir(exist_ok=True)
        shutil.copy(every_check_orbit / "stream.txt", orbit / "stream.txt")
        (orbit / "certificate.json").write_text(json.dumps(doc))
        _exits_documented_code(orbit)


#: the single-value edits of a gallery certificate that verify accepts, and
#: why: PERIODIC and ALMOST_PERIODIC_NOT_PER draw no Markov segment, so
#: nothing reads their seed
AUDIT_ALLOWED = {("PERIODIC", ("seed",)), ("ALMOST_PERIODIC_NOT_PER", ("seed",))}


def _numbers(value, path=()):
    """(path, number) of each integer and float in a JSON value, booleans
    left out; a list longer than six is sampled at its first two and last items."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = [(i, value[i]) for i in (range(len(value)) if len(value) <= 6
                                         else (0, 1, len(value) - 1))]
    else:
        items = []
        if type(value) in (int, float):
            yield path, value
    for key, item in items:
        yield from _numbers(item, path + (key,))


def _single_edits(text: str):
    """(label, edited document) for each single-value edit of a certificate's
    text: each number moved by ±1 if an integer and by ±0.001·max(1, |x|) if
    a float (labelled by its path), and each expected_statistics entry
    dropped or appended a second time."""
    doc = json.loads(text)
    for path, x in _numbers(doc):
        for sign in (1, -1):
            edited = json.loads(text)
            _at(edited, path[:-1])[path[-1]] = (x + sign if type(x) is int
                                                else x + sign * 0.001 * max(1.0, abs(x)))
            yield path, edited
    for i, entry in enumerate(doc["expected_statistics"]):
        for edit in ("dropped", "appended"):
            edited = json.loads(text)
            if edit == "dropped":
                del edited["expected_statistics"][i]
            else:
                edited["expected_statistics"].append(entry)
            yield ("expected_statistics", i, edit), edited


class TestCertificateAudit:
    """A certificate cannot set its own bar: every single-value edit of a
    gallery certificate at 2^14 (scripts/witness_gallery.py's ambient,
    potential and seed) ends verify in exit 2 or 4, but those AUDIT_ALLOWED
    names, which verify."""

    @pytest.mark.parametrize("gap_class", list(GapClass))
    def test_single_value_edits_refused(self, tmp_path, gap_class):
        s = full_shift(2)
        o = synthesize_witness(s, gap_class, indicator_potential(s, (1,)), 1 << 14,
                               seed=20250809)
        orbit = tmp_path / "orbit"
        io.write_orbit_dir(o, orbit)
        accepted, edits = [], 0
        for path, doc in _single_edits((orbit / "certificate.json").read_text()):
            (orbit / "certificate.json").write_text(json.dumps(doc))
            rc = main(["verify", "--orbit", str(orbit)])
            edits += 1
            if (gap_class.value, path) in AUDIT_ALLOWED:
                assert rc == 0, path
            elif rc not in (2, 4):
                accepted.append((path, rc))
        assert accepted == [] and edits > 20


#: certificate fields whose entries get edits of their own
_ENTRIES = ("schedule", "pool", "exact_facts", "chain_links")


@st.composite
def orbit_edits(draw, doc: dict):
    """(edit, path, new value): one edit to a certificate document, at a
    top-level field or inside it: its shift, its potential, or one entry of
    its schedule, pool, exact_facts or chain_links."""
    name = draw(st.sampled_from(sorted(doc)))
    root = (name,)
    if name in _ENTRIES and type(doc[name]) is list and doc[name] and draw(st.booleans()):
        root += (draw(st.integers(0, len(doc[name]) - 1)),)
    paths = [root] + [root + p for p in _paths(_at(doc, root))]
    edit = draw(st.sampled_from(["drop", "retype", "integer"]))
    keys = [p for p in paths if isinstance(_at(doc, p[:-1]), dict)]
    ints = [p for p in paths if type(_at(doc, p)) is int]
    if edit == "drop" and keys:
        return edit, draw(st.sampled_from(keys)), None
    if edit == "integer" and ints:
        return edit, draw(st.sampled_from(ints)), draw(st.sampled_from(
            [0, -1, 2 ** 63, 10 ** 400]))
    return "retype", draw(st.sampled_from(paths)), draw(st.sampled_from(
        [None, True, "x", "", "0", 2.5, -1.0, float("nan"), [], [1], [[0, 1]], {}]))


def _edited_orbit(tmp_path_factory, doc: dict, stream: str):
    """One orbit directory, rewritten for each example."""
    orbit = tmp_path_factory.getbasetemp() / "edited_orbit"
    orbit.mkdir(exist_ok=True)
    (orbit / "stream.txt").write_text(stream)
    (orbit / "certificate.json").write_text(json.dumps(doc))
    return orbit


def _exits_documented_code(orbit) -> None:
    """verify --report ends in a documented exit code, and writes its report
    exactly when the orbit certifies (exit 0, or 5 for a failing verdict)."""
    report = orbit / "r.json"
    report.unlink(missing_ok=True)
    rc = main(["verify", "--orbit", str(orbit), "--report", str(report)])
    assert rc in (0, 2, 4, 5)
    assert report.exists() == (rc in (0, 5))


class TestMutatedOrbits:
    """Any edit to a certificate document ends in a documented exit code."""

    @pytest.mark.parametrize("base", ["v_not_w_orbit", "thue_morse_orbit", "qw_not_v_orbit",
                                      "v2_orbit"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_edited_orbit_exits_documented_code(self, request, tmp_path_factory, base, data):
        base_orbit = request.getfixturevalue(base)
        doc = json.loads((base_orbit / "certificate.json").read_text())
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            edit, path, value = data.draw(orbit_edits(doc))
            parent = _at(doc, path[:-1])
            if edit == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        _exits_documented_code(_edited_orbit(tmp_path_factory, doc,
                                             (base_orbit / "stream.txt").read_text()))


@st.composite
def stream_edits(draw, text: str) -> str:
    """The stream text truncated at a drawn point, with a row dropped, with
    one character overwritten by a non-digit or a digit >= k (k = 2), or
    with rows of symbols appended."""
    edit = draw(st.sampled_from(["truncate", "drop_row", "symbol", "append"]))
    if edit == "append":
        return text + draw(st.text("01", min_size=1, max_size=300)) + "\n"
    if edit == "truncate" or not text:
        return text[:draw(st.integers(0, len(text)))]
    rows = text.splitlines(keepends=True)
    if edit == "drop_row":
        i = draw(st.integers(0, len(rows) - 1))
        return "".join(rows[:i] + rows[i + 1:])
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + draw(st.sampled_from(list("29x-/:a.") + ["é", "\x00"])) + text[i + 1:]


class TestMutatedStreams:
    """Any edit to the stream text ends in a documented exit code."""

    @pytest.mark.parametrize("base", ["v_not_w_orbit", "thue_morse_orbit"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_edited_stream_exits_documented_code(self, request, tmp_path_factory, base, data):
        base_orbit = request.getfixturevalue(base)
        stream = (base_orbit / "stream.txt").read_text()
        for _ in range(data.draw(st.integers(1, 2), label="edits")):
            stream = data.draw(stream_edits(stream))
        doc = json.loads((base_orbit / "certificate.json").read_text())
        orbit = _edited_orbit(tmp_path_factory, doc, stream)
        _exits_documented_code(orbit)
        if len("".join(stream.split())) > doc["horizon"]:   # past the horizon: never verified
            assert main(["verify", "--orbit", str(orbit)]) != 0

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data[:5] + "\u00a0".encode() + data[7:], "is 'Â', not a digit below 2"),
        (lambda data: data[:5] + b"/" + data[6:], "is '/', not a digit below 2"),
        (lambda data: data[:5] + b"\xff" + data[6:], "error:"),
    ], ids=["no_break_space_for_two_digits", "slash", "byte_ff"])
    def test_stream_character_not_a_digit_exit2(self, periodic_orbit, tmp_path, capsys,
                                                edit, message):
        """Only ASCII whitespace is skipped: U+00A0 is refused, not read as
        a gap, and named by its first byte; '/' wraps to 255 in one byte and
        is still named as '/'."""
        orbit = tmp_path / "orbit"
        shutil.copytree(periodic_orbit, orbit)
        (orbit / "stream.txt").write_bytes(edit((orbit / "stream.txt").read_bytes()))
        assert main(["verify", "--orbit", str(orbit)]) == 2
        assert message in capsys.readouterr().err

    def test_crlf_and_tabs_read(self, periodic_orbit, tmp_path):
        orbit = tmp_path / "orbit"
        shutil.copytree(periodic_orbit, orbit)
        data = (orbit / "stream.txt").read_bytes()
        (orbit / "stream.txt").write_bytes(b"\t" + data.replace(b"\n", b"\r\n\t"))
        assert main(["verify", "--orbit", str(orbit)]) == 0
        (tmp_path / "ws.txt").write_bytes(b"0\t1\r\n1 \x0b0\x0c\r")
        assert io._read_stream(tmp_path / "ws.txt", 10).tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64, 1 << 16])
    def test_whitespace_across_decode_chunks(self, tmp_path, monkeypatch, chunk):
        """Read a few bytes at a time, whitespace runs (CRLF, spaces, tabs)
        that straddle the chunk edges are dropped as in one read, and a bad
        byte just past an edge is named by its symbol index."""
        digits = [i * 7 % 10 for i in range(300)]
        gaps = [b"", b"\r\n", b" ", b"  \t", b"\r", b"\n\x0b\x0c"]
        data = b"".join(str(d).encode() + gaps[i % len(gaps)] for i, d in enumerate(digits))
        (tmp_path / "stream.txt").write_bytes(data)
        monkeypatch.setattr(io, "SAMPLE_CHUNK", chunk)
        assert io._read_stream(tmp_path / "stream.txt", 10).tolist() == digits
        for at in sorted({min(chunk, len(data) - 1), 2 * chunk % len(data), len(data) - 1}):
            bad = data[:at] + b"x" + data[at + 1:]
            index = len(data[:at].translate(None, b" \t\n\r\v\f"))
            (tmp_path / "stream.txt").write_bytes(bad)
            with pytest.raises(SchemaError, match=f"stream symbol {index} is 'x'"):
                io._read_stream(tmp_path / "stream.txt", 10)


class TestVerifyMemory:
    """verify keeps one array the size of the stream file, one byte a symbol;
    everything else it holds is a chunk (SAMPLE_CHUNK symbols) or a
    certificate.  Before the chunked pass, its window codes, visit times,
    decoded copies and regenerated segments took 10 to 18 bytes a symbol on
    W_NOT_QR, QW_NOT_V, R_FULL_SUPPORT, ALMOST_PERIODIC_NOT_PER and PERIODIC."""

    @pytest.mark.parametrize("gap_class", list(GapClass))
    def test_peak_per_symbol(self, witnesses, tmp_path, capsys, gap_class):
        o = witnesses[0][gap_class]
        io.write_orbit_dir(o, tmp_path / "orbit")
        n = len(o.word)
        tracemalloc.start()
        try:
            rc = main(["verify", "--orbit", str(tmp_path / "orbit")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 2 * n + (4 << 20), f"{peak / n:.2f} bytes a symbol"
