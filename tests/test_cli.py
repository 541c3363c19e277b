import json
import shutil
import subprocess
import sys

import pytest

from shiftlab import io, shifts
from shiftlab.cli import main
from shiftlab.measures import indicator_potential
from shiftlab.shifts import full_shift, golden_mean_shift
from shiftlab.synthesis import GapClass, synthesize_witness


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


def _first(doc: dict, kind: str) -> dict:
    return next(seg for seg in doc["schedule"] if seg["kind"] == kind)


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
    "periodic_word_null": lambda d: _first(d, "periodic").update(word=None),
}


class TestRoundTrips:
    def test_shift_json(self, files, golden):
        doc = io.read_json(files / "golden.json")
        assert io.shift_from_doc(doc) == golden
        assert io.shift_to_doc(io.shift_from_doc(doc)) == doc

    def test_potential_json(self, files, full2):
        doc = io.read_json(files / "phi.json")
        phi = io.potential_from_doc(doc)
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

    def test_orbit_roundtrip(self, tmp_path, full2, phi_full2):
        o = synthesize_witness(full2, GapClass.V_NOT_W, phi_full2, 1 << 12, seed=5)
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

    def test_unconverged_perron_exit2(self, files, monkeypatch, capsys):
        # golden's row sums differ, so its spectral entropy needs a Perron solve
        monkeypatch.setattr(shifts._perron_pair, "__defaults__", (1e-13, 1))
        rc = main(["entropy", "--shift", str(files / "golden.json"), "--method", "spectral"])
        assert rc == 2
        assert "did not converge" in capsys.readouterr().err


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

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_malformed_certificate_exit2(self, v_not_w_orbit, tmp_path, capsys, case):
        orbit = tmp_path / "orbit"
        shutil.copytree(v_not_w_orbit, orbit)
        doc = json.loads((orbit / "certificate.json").read_text())
        MALFORMED_CERTIFICATES[case](doc)
        (orbit / "certificate.json").write_text(json.dumps(doc))
        assert main(["verify", "--orbit", str(orbit)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_not_primitive_exit3(self, tmp_path, files):
        io.write_json(tmp_path / "diag.json",
                      {"schema": "shiftlab/shift/1", "k": 2, "matrix": [[1, 0], [0, 1]]})
        rc, _, _ = run_cli("synthesize", "--shift", str(tmp_path / "diag.json"),
                           "--class", "R_FULL_SUPPORT", "--potential", str(files / "phi.json"),
                           "--horizon", "4096", "--seed", "1",
                           "--out", str(tmp_path / "x"))
        assert rc == 3


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
