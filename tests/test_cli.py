import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import io
from shiftlab.classify import CHECKS
from shiftlab.cli import main
from shiftlab.measures import indicator_potential
from shiftlab.shifts import full_shift, golden_mean_shift
from shiftlab.synthesis import CLASS_SHAPE, GapClass, synthesize_witness


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


def _first(doc: dict, kind: str) -> dict:
    return next(seg for seg in doc["schedule"] if seg["kind"] == kind)


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
    "unknown_kind": lambda d: _first(d, "markov").update(kind="bogus"),
    "markov_source_null": lambda d: _first(d, "markov").update(source=None),
    "markov_source_text": lambda d: _first(d, "markov").update(source="0"),
    "markov_source_outside_pool": lambda d: _first(d, "markov").update(source=99),
    "markov_sub_seed_null": lambda d: _first(d, "markov").update(sub_seed=None),
    "markov_sub_seed_float": lambda d: _first(d, "markov").update(sub_seed=2.5),
    "literal_word_null": lambda d: _first(d, "literal").update(word=None),
    "bridge_word_null": lambda d: _first(d, "bridge").update(word=None),
    "periodic_source_null": lambda d: _first(d, "periodic").update(source=None),
    "periodic_source_outside_pool": lambda d: _first(d, "periodic").update(source=4),
    "periodic_source_markov": lambda d: _first(d, "periodic").update(source=1),
    "markov_source_periodic": lambda d: _first(d, "markov").update(source=3),
    "literal_word_short": lambda d: _first(d, "literal").update(word=[0]),
    "bridge_word_symbol_outside_alphabet": lambda d: _first(d, "bridge").update(word=[2]),
    "markov_length_10_to_12_past_flipped_symbol": lambda d: _Files(
        (_first(d, "markov").update(length=10 ** 12), d)[1], flip=3000),
    "segment_length_0": lambda d: _first(d, "markov").update(length=0),
    "segment_start_text": lambda d: _first(d, "periodic").update(start="0"),
    "segment_overlaps_previous": lambda d: _first(d, "periodic").update(
        start=_first(d, "periodic")["start"] - 1),
    "schedule_short_of_horizon": lambda d: d["schedule"].pop(),
    "schedule_entry_not_object": lambda d: d["schedule"].__setitem__(1, 5),
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
        phi = phi_full2 if CLASS_SHAPE[GapClass(gap_class)].potential else None
        o = synthesize_witness(full2, GapClass(gap_class), phi, 1 << 12, seed=5)
        io.write_orbit_dir(o, tmp_path / "orbit")
        again = io.read_orbit_dir(tmp_path / "orbit")
        assert (again.word == o.word).all()
        assert again.certificate.inf_entropy_over_K == o.certificate.inf_entropy_over_K
        assert io.certificate_to_doc(again) == io.certificate_to_doc(o)

    def test_stream_format(self, full2, phi_full2):
        o = synthesize_witness(full2, GapClass.PERIODIC, None, 300, seed=0)
        text = io.stream_to_text(o.word)
        lines = text.strip().split("\n")
        assert all(len(line) <= 120 for line in lines)
        assert (io.stream_from_text(text) == o.word).all()


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
        (["--beta", "2", "--n", "0"], "--n"),
        (["--shift", "golden.json", "--n", "0"], "--n"),
    ], ids=["beta_1e400", "beta_n_0", "shift_n_0"])
    def test_bad_argument_exit2(self, files, args, field):
        rc, _, err = run_cli("entropy", *[str(files / a) if a.endswith(".json") else a
                                          for a in args])
        assert rc == 2
        assert "Traceback" not in err and field in err

    def test_integer_beta_1e20(self):
        """An alphabet of 10^20 symbols counts as fast as two."""
        proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", "entropy", "--beta", "1e20"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "log beta:                    46.051701859881" in proc.stdout
        assert "word-count estimate (n=22): 46.051701859881" in proc.stdout

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

    def test_classify_writes_report(self, files, tmp_path):
        orbit = tmp_path / "orbit"
        run_cli("synthesize", "--shift", str(files / "full2.json"),
                "--class", "PERIODIC", "--horizon", "4096", "--seed", "1",
                "--out", str(orbit))
        report = tmp_path / "report.json"
        rc, out, _ = run_cli("classify", "--orbit", str(orbit), "--out", str(report))
        assert rc == 0
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

    def test_classify_full_support_report(self, files, tmp_path):
        """coverage_fraction_of_expected verdicts are JSON booleans."""
        orbit, report = tmp_path / "orbit", tmp_path / "report.json"
        assert main(["synthesize", "--shift", str(files / "full2.json"),
                     "--class", "R_FULL_SUPPORT", "--potential", str(files / "phi.json"),
                     "--horizon", str(1 << 14), "--seed", "4", "--out", str(orbit)]) == 0
        assert main(["classify", "--orbit", str(orbit), "--out", str(report)]) == 0
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

    @pytest.mark.parametrize("command", ["verify", "classify"])
    @pytest.mark.parametrize("bad", ["7", "x"])
    def test_stream_symbol_outside_alphabet_exit2(self, files, tmp_path, command, bad):
        orbit = tmp_path / "orbit"
        run_cli("synthesize", "--shift", str(files / "full2.json"),
                "--class", "PERIODIC", "--horizon", "4096", "--seed", "1",
                "--out", str(orbit))
        text = (orbit / "stream.txt").read_text()
        (orbit / "stream.txt").write_text(bad + text[1:])
        args = ["--out", str(tmp_path / "report.json")] if command == "classify" else []
        rc, _, err = run_cli(command, "--orbit", str(orbit), *args)
        assert rc == 2
        assert "Traceback" not in err and "not a digit below 2" in err

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

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_malformed_certificate_exit2(self, request, tmp_path, capsys, case):
        orbit = self._malformed_orbit(request, tmp_path, case)
        assert main(["verify", "--orbit", str(orbit)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_malformed_certificate_classify_exit2(self, request, tmp_path, capsys, case):
        orbit = self._malformed_orbit(request, tmp_path, case)
        assert main(["classify", "--orbit", str(orbit), "--out", str(tmp_path / "r.json")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_flipped_symbol_exit4(self, v_not_w_orbit, tmp_path, capsys):
        """The stream edit of markov_length_10_to_12_past_flipped_symbol, alone."""
        orbit = _mutated_copy(v_not_w_orbit, tmp_path, lambda d: _Files(d, flip=3000))
        assert main(["verify", "--orbit", str(orbit)]) == 4
        assert "schedule_window" in capsys.readouterr().err

    def test_not_primitive_exit3(self, tmp_path, files):
        io.write_json(tmp_path / "diag.json",
                      {"schema": "shiftlab/shift/1", "k": 2, "matrix": [[1, 0], [0, 1]]})
        rc, _, _ = run_cli("synthesize", "--shift", str(tmp_path / "diag.json"),
                           "--class", "R_FULL_SUPPORT", "--potential", str(files / "phi.json"),
                           "--horizon", "4096", "--seed", "1",
                           "--out", str(tmp_path / "x"))
        assert rc == 3


V1_ORBITS = Path(__file__).parent / "data" / "v1"


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
    def test_same_text_as_indented_dumps(self, doc):
        assert io._json_text(doc) == json.dumps(doc, indent=2)

    def test_write_json_file(self, tmp_path):
        doc = {"a": [1, 2.5, None], 3: {"b": ()}, None: [[], {}], "c": [{"d": [True]}]}
        io.write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2) + "\n"

    def test_unsupported_key_raises_like_dumps(self):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            io._json_text({(1, 2): 0})


#: one valid entry of every check kind, for the 4096-symbol V_NOT_W orbit
EVERY_CHECK = [
    {"check": "full_horizon_present", "horizon": 4096},
    {"check": "trace_attains", "targets": [0.3, 0.5], "tol": 0.05, "window": 0.5},
    {"check": "trace_converges", "target": 0.5, "tol": 0.01, "osc_tol": 0.01, "window": 0.25},
    {"check": "trace_oscillation", "min_gap": 0.2, "window": 0.5},
    {"check": "cylinder_lower_min", "lengths": [1, 2], "threshold": 0.01},
    {"check": "self_lower_max", "length": 6, "max": 0.01},
    {"check": "self_upper_min", "length": 6, "min": 0.05},
    {"check": "self_upper_decreasing", "lengths": [4, 8, 12], "final_max": 0.02},
    {"check": "coverage_counts", "length": 3, "min_visits": 8},
    {"check": "max_gap_bounded", "bounds": [[1, 3], [2, 4.5]]},
    {"check": "coverage_fraction_of_expected", "length": 2, "fraction": 0.2,
     "expected": [[[0, 0], 0.25], [[0, 1], 0.25], [[1, 0], 0.25], [[1, 1], 0.25]]},
    {"check": "not_eventually_periodic", "max_period": 1024},
    {"check": "periodic_density_exact", "period": 3},
]


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

    def test_every_kind_scores(self, every_check_orbit, tmp_path):
        assert {chk["check"] for chk in EVERY_CHECK} == set(CHECKS)
        report = tmp_path / "report.json"
        assert main(["classify", "--orbit", str(every_check_orbit), "--out", str(report)]) == 0
        verdicts = json.loads(report.read_text())["verdicts"]
        assert [v["check"] for v in verdicts] == [chk["check"] for chk in EVERY_CHECK]

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
        assert main(["verify", "--orbit", str(orbit)]) in (0, 2, 4, 5)
        assert main(["classify", "--orbit", str(orbit), "--out", str(orbit / "r.json")]) in (0, 2)


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
    assert main(["verify", "--orbit", str(orbit)]) in (0, 2, 4, 5)
    assert main(["classify", "--orbit", str(orbit), "--out", str(orbit / "r.json")]) in (0, 2)


class TestMutatedOrbits:
    """Any edit to a certificate document ends in a documented exit code."""

    @pytest.mark.parametrize("base", ["v_not_w_orbit", "thue_morse_orbit", "qw_not_v_orbit"])
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
    """The stream text truncated at a drawn point, with a row dropped, or with
    one character overwritten by a non-digit or a digit >= k (k = 2)."""
    edit = draw(st.sampled_from(["truncate", "drop_row", "symbol"]))
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
        _exits_documented_code(_edited_orbit(tmp_path_factory, doc, stream))
