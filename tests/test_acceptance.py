"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print.  Witnesses are synthesized once per session at the full 2^20
horizon and reused across the certificate and evidence criteria.
"""

import hashlib
import math
import subprocess
import sys
import time

from shiftlab import io
from shiftlab.beta import beta_count_words, beta_entropy_estimate, quasi_greedy_normalize
from shiftlab.classify import evaluate_certificate
from shiftlab.measures import indicator_potential
from shiftlab.shifts import (count_periodic, count_words, format_word, full_shift,
                             is_admissible, iter_words,
                             largest_proper_scc_subgraph, primitive_cycles,
                             sft_from_matrix, topological_entropy)
from shiftlab.spectrum import check_concavity, has_irregular, spectrum_curve, sup_equals_htop
from shiftlab.synthesis import (THETA_I_NOT_QW, THETA_V_NOT_W, GapClass, certify,
                                synthesize_witness)

import oracle
from conftest import ACCEPTANCE_SEED, FULL3_QUARTERS, constant_potential, psi_at

PHI = (1 + math.sqrt(5)) / 2
GOLDEN_BETA = "1.61803398874989484820458683436563811772"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"[{criterion}] {'PASS' if passed else 'FAIL'}" + (f"  {detail}" if detail else "")
    print(line)
    assert passed, line


def test_c1_entropy_triple_agreement(golden):
    t0 = time.time()
    spectral = topological_entropy(golden)
    words = math.log(count_words(golden, 24)) / 24
    periodic = math.log(count_periodic(golden, 30)) / 30
    elapsed = time.time() - t0
    ok = (abs(spectral - math.log(PHI)) <= 1e-9
          and abs(words - math.log(PHI)) <= 0.03
          and abs(periodic - math.log(PHI)) <= 0.02
          and elapsed < 1.0)
    report("C1 entropy triple agreement", ok,
           f"spectral_err={abs(spectral - math.log(PHI)):.2e} "
           f"words_err={abs(words - math.log(PHI)):.4f} "
           f"periodic_err={abs(periodic - math.log(PHI)):.4f} t={elapsed:.2f}s")


def test_c2_exact_combinatorics(golden, full2, full3, random4):
    ok = True
    for s in (golden, full2, full3, random4):
        for n in range(1, 13):
            ok = ok and count_words(s, n) == oracle.brute_count_words(s, n)
            ok = ok and count_periodic(s, n) == oracle.brute_count_cycles(s, n)
    report("C2 exact combinatorics", ok, "4 shifts, n <= 12, words + cycles")


def test_c3_beta_entropy(golden):
    t0 = time.time()
    errs = {}
    for beta in ("1.8", GOLDEN_BETA, "2.5"):
        spec = quasi_greedy_normalize(beta)
        errs[beta[:6]] = abs(beta_entropy_estimate(spec, 22) - math.log(spec.beta))
    ok = all(e <= 0.02 for e in errs.values())

    g_spec = quasi_greedy_normalize(GOLDEN_BETA)
    lang_ok = True
    for n in range(1, 11):
        lang_ok = lang_ok and beta_count_words(g_spec, n) == count_words(golden, n)
        for w in iter_words(full_shift(2), n):
            lang_ok = lang_ok and oracle.beta_admissible(w, g_spec) == is_admissible(w, golden)
    elapsed = time.time() - t0
    ok = ok and lang_ok and elapsed < 10.0
    report("C3 beta-shift entropy", ok,
           f"errs={ {k: round(v, 4) for k, v in errs.items()} } "
           f"golden_language_exact={lang_ok} t={elapsed:.1f}s")


def test_c4_variational_spectrum(golden, phi_golden):
    t0 = time.time()
    max_diff = 0.0
    for i in range(1, 10):
        a = 0.5 * i / 10
        psi, _ = psi_at(golden, phi_golden, a)
        brute = oracle.brute_constrained_entropy(golden, phi_golden, a, 40)
        max_diff = max(max_diff, abs(psi - brute))
    curve = spectrum_curve(golden, phi_golden, 33)
    concave = check_concavity(curve)
    sup_ok = sup_equals_htop(curve)
    elapsed = time.time() - t0
    ok = max_diff <= 0.02 and concave and sup_ok and elapsed < 30.0
    report("C4 variational spectrum", ok,
           f"max|psi-oracle|={max_diff:.4f} concave={concave} sup={sup_ok} t={elapsed:.1f}s")


def test_c5_irregularity_detector(golden, full2, full3, random4):
    shifts = [golden, full2, full3, random4]
    ok = True
    for s in shifts:
        ok = ok and not has_irregular(s, constant_potential(s, 1.0))
        ok = ok and has_irregular(s, indicator_potential(s, (1,)))
    # exhaustive cycle-mean comparison on every k <= 4 test shift
    for s in shifts:
        if s.k > 4:
            continue
        phi = indicator_potential(s, (1,))
        means = [sum(1.0 for c in cyc if c == 1) / len(cyc)
                 for cyc in primitive_cycles(s, s.k)]
        exhaustive = max(means) - min(means) > 1e-12
        ok = ok and has_irregular(s, phi) == exhaustive
    report("C5 irregularity detector", ok, f"{len(shifts)} shifts")


def test_c6_certificate_entropy_bounds(witnesses, full2):
    """Certificates recompute exactly; entropy infima meet per-class floors.

    Full-support classes reach 0.9 * ambient entropy.  Proper-support
    classes are capped by the largest proper subgraph's entropy (times the
    class's mixture weight), so their floors are stated against that cap;
    the two zero-entropy classes must claim exactly zero.
    """
    orbits, _ = witnesses
    h_top = topological_entropy(full2)
    _, _, h_sub = largest_proper_scc_subgraph(full2)
    floors = {
        GapClass.W_NOT_QR: 0.9 * h_top,
        GapClass.QR_NOT_ERG_NOT_A: 0.9 * h_top,
        GapClass.R_FULL_SUPPORT: 0.9 * h_top,
        GapClass.V_NOT_W: 0.9 * THETA_V_NOT_W * h_sub,
        GapClass.QW_NOT_V: 0.9 * 0.5 * h_sub,
        GapClass.I_NOT_QW: 0.9 * THETA_I_NOT_QW * h_sub,
    }
    ok = True
    details = []
    for gc, o in orbits.items():
        certify(o)  # recomputes every stored fact to 1e-10
        inf_h = o.certificate.inf_entropy_over_K
        if gc in floors:
            good = inf_h >= floors[gc]
        else:
            good = inf_h == 0.0
        ok = ok and good
        details.append(f"{gc.value}={inf_h:.3f}")
    report("C6 certificate entropy bounds", ok, " ".join(details))


def test_c7_witness_evidence_suite(witnesses, full2, phi_full2):
    orbits, synth_time = witnesses
    t0 = time.time()
    ok = True
    details = []
    for gc, o in orbits.items():
        rep = evaluate_certificate(o.word, full2, o.certificate.expected_statistics,
                                   phi=phi_full2)
        failed = [v["check"] for v in rep.verdicts if not v["passed"]]
        ok = ok and not failed
        details.append(f"{gc.value}:{'ok' if not failed else failed}")
    # negative control: cross-scored schedules must fail at least one verdict
    a, b = orbits[GapClass.R_FULL_SUPPORT], orbits[GapClass.I_NOT_QW]
    cross1 = evaluate_certificate(a.word, full2, b.certificate.expected_statistics,
                                  phi=phi_full2)
    cross2 = evaluate_certificate(b.word, full2, a.certificate.expected_statistics,
                                  phi=phi_full2)
    negative_ok = (not cross1.all_pass) and (not cross2.all_pass)
    ok = ok and negative_ok
    elapsed = synth_time + (time.time() - t0)
    ok = ok and elapsed < 180.0
    report("C7 witness evidence suite", ok,
           f"negative_control={negative_ok} total_t={elapsed:.1f}s " + " ".join(details))


def test_c8_prefix_pinning(full2, phi_full2):
    words_by_len = {L: list(iter_words(full2, L)) for L in range(1, 9)}
    us = oracle.uniform_stream(ACCEPTANCE_SEED, 200)
    prefixes = []
    i = 0
    while len(prefixes) < 50:
        length = 1 + int(float(us[i]) * 8) % 8
        pool = words_by_len[length]
        prefixes.append(pool[int(float(us[i + 1]) * len(pool)) % len(pool)])
        i += 2
    ok = True
    per_class = {gc: 0 for gc in GapClass}
    for idx, prefix in enumerate(prefixes):
        gc = list(GapClass)[idx % len(GapClass)]
        o = synthesize_witness(full2, gc, phi_full2, 1 << 14,
                               seed=ACCEPTANCE_SEED + idx, pinned_prefix=prefix)
        ok = ok and tuple(o.word.tolist())[:len(prefix)] == prefix
        certify(o)
        per_class[gc] += 1
    # every class must appear and at least 50 prefixes must have been pinned
    ok = ok and all(v > 0 for v in per_class.values())
    report("C8 density / prefix pinning", ok, f"50 prefixes across {len(GapClass)} classes")


def test_c9_cli_determinism(tmp_path, full2, phi_full2):
    d = tmp_path
    io.write_json(d / "full2.json", io.shift_to_doc(full2))
    io.write_json(d / "phi.json", io.potential_to_doc(phi_full2))

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    outs = []
    for tag in ("a", "b"):
        run("synthesize", "--shift", str(d / "full2.json"), "--class", "V_NOT_W",
            "--potential", str(d / "phi.json"), "--horizon", str(1 << 15),
            "--seed", "7", "--out", str(d / f"orbit_{tag}"))
        run("spectrum", "--shift", str(d / "full2.json"), "--potential",
            str(d / "phi.json"), "--points", "9", "--out", str(d / f"curve_{tag}.csv"))
    same = all(
        (d / "orbit_a" / name).read_bytes() == (d / "orbit_b" / name).read_bytes()
        for name in ("stream.txt", "certificate.json", "manifest.json"))
    same = same and (d / "curve_a.csv").read_bytes() == (d / "curve_b.csv").read_bytes()
    report("C9 determinism", same, "synthesize + spectrum byte-identical")


#: sha256 of (stream.txt, certificate.json) for the default witnesses on the
#: full 2-shift: horizon 2^20, the acceptance seed, range-1 indicator of 1
WITNESS_DIGESTS = {
    "W_NOT_QR": ("84219daab7c0a03a94cf8c6728be8d24be80217450438b4fb70bf20b80578cab",
                 "57d0f468951f57040c8ab077d9b1934f3cb3fec523b56d5b76b6e984019f36d3"),
    "V_NOT_W": ("35402fc142c6f5cdf10abba053e890c949ddaa5d6f3290a176a191c5da6937a3",
                "57e0161a073bbe8cee649cf89bb9e197315f2d1b262105c3edc9f6623fc0939d"),
    "QW_NOT_V": ("b97c5000ced580da3d968bd2da00e119b2ff017bfb324aa1c6938a94ed59b279",
                 "afaa64eab367fcee9674aa7dea2d51155717ecce09d8bc5fd46af8633f3c972f"),
    "I_NOT_QW": ("13e97655dc92ab4608880c550c79d913843faa5a08dd75e87469acf598a7ee5a",
                 "3c5400a443d173b31e400d409a1f071c6e61cfe17a2c24d8bcadb8f68e83b283"),
    "QR_NOT_ERG_NOT_A": ("64479e36436adc138a3a04131a2e57f7171b91053dd1339a14c184ba4f8f2718",
                         "75e5097161589f6767ec15343b41b746d1f04c4821d71492a5d750faab654604"),
    "R_FULL_SUPPORT": ("bf1e93d2bed4705ff8cf8dfccb573effa221825e06071e20443337ca7fdf03d4",
                       "c176b120f7610553dcb3357f7d94b4ded5b045d23e9102a3eb73aad54ebd6e28"),
    "ALMOST_PERIODIC_NOT_PER": ("9fa42011d7843b28a2ce44fe94c0b52e0550ae65d348973c2a644444ff514c10",
                                "368836796f85f4e23cf73142ec571e8717f66fd72321cf1ea47fa3200c1195ae"),
    "PERIODIC": ("1f1bd8a395b409683bf7bccd3f8aeff7bfe1d24942109a59b18af2a1d22988b2",
                 "9f66850b3bdf5b9072ad7985ea80fd9b52a67fe2db5edabd19810c2b8582ce4d"),
}


def test_witness_bytes_pinned(witnesses, tmp_path):
    """Streams and certificates of the default witnesses stay byte-identical."""
    orbits, _ = witnesses
    changed = []
    for gc, o in orbits.items():
        io.write_orbit_dir(o, tmp_path / gc.value)
        got = tuple(hashlib.sha256((tmp_path / gc.value / name).read_bytes()).hexdigest()
                    for name in ("stream.txt", "certificate.json"))
        if got != WITNESS_DIGESTS[gc.value]:
            changed.append(gc.value)
    report("witness digests", not changed and len(orbits) == len(WITNESS_DIGESTS),
           f"changed: {changed}" if changed else f"{len(orbits)} classes byte-identical")


#: sha256 of the classify report JSON of each default witness (as above),
#: scored against its own certificate with the indicator of 1
REPORT_DIGESTS = {
    "W_NOT_QR": "7a27a2e0985ff1830423f64a25e57ce4bf17f0a6555abe45e787e0a66936ec4c",
    "V_NOT_W": "effca4e0ac652b015653ec300e1a790700c705c2fe450af6151afcc8cae54f87",
    "QW_NOT_V": "5b7e0f5a40add8ab481af21d667bfc5d0d85c6a27e2e6d2cacfe98f9b1e68e39",
    "I_NOT_QW": "4eff97f1ffbba97b23c8d08f237b38192df851b402f0e2a001b0318dbc3a54e8",
    "QR_NOT_ERG_NOT_A": "409e1dc2d85c861883560576c5e3ecd09db92a7e03e43b86ed746fb609d00a52",
    "R_FULL_SUPPORT": "1dc55deb9e45082dbac61adfdedf8f2a21d67b3cefd04c00e149ed2c04f68989",
    "ALMOST_PERIODIC_NOT_PER": "40823fbbfb993fdc30536370f41d2a9de89237f31d43e38134f82c98742d218b",
    "PERIODIC": "ca7fdb69ede1c5412752b3b214ca48f0032ecc07ea9a04bdaffa1b0731f3a8d3",
}


def test_report_bytes_pinned(witnesses, full2, phi_full2, tmp_path):
    """Classify reports of the default witnesses stay byte-identical."""
    orbits, _ = witnesses
    changed = []
    for gc, o in orbits.items():
        rep = evaluate_certificate(o.word, full2, o.certificate.expected_statistics,
                                   phi=phi_full2)
        io.write_json(tmp_path / f"{gc.value}.json", io.report_to_doc(rep))
        got = hashlib.sha256((tmp_path / f"{gc.value}.json").read_bytes()).hexdigest()
        if got != REPORT_DIGESTS[gc.value]:
            changed.append(gc.value)
    report("report digests", not changed and len(orbits) == len(REPORT_DIGESTS),
           f"changed: {changed}" if changed else f"{len(orbits)} reports byte-identical")


#: sha256 of the report file the command writes for each default witness.  It
#: scores against the certificate's own potential: the six classes with one
#: equal REPORT_DIGESTS, and the two without one write a report with no trace
CLI_REPORT_DIGESTS = {
    **{gc: REPORT_DIGESTS[gc] for gc in ("W_NOT_QR", "V_NOT_W", "QW_NOT_V", "I_NOT_QW",
                                         "QR_NOT_ERG_NOT_A", "R_FULL_SUPPORT")},
    "ALMOST_PERIODIC_NOT_PER": "db613ac22fd47b1e29faff1022e211f09b6428e95eb32dfb9a4703f0cf65a455",
    "PERIODIC": "775d4c4046224c0c67f9ebed4a17e00752460ff826db155d8dbce4d1a8063519",
}


def test_cli_report_bytes_pinned(witnesses, tmp_path):
    """The report files the command writes stay byte-identical."""
    from shiftlab.cli import main

    orbits, _ = witnesses
    changed = []
    for gc, o in orbits.items():
        io.write_orbit_dir(o, tmp_path / gc.value)
        out = tmp_path / f"{gc.value}.json"
        rc = main(["verify", "--orbit", str(tmp_path / gc.value), "--report", str(out)])
        got = hashlib.sha256(out.read_bytes()).hexdigest() if rc == 0 else f"exit {rc}"
        if got != CLI_REPORT_DIGESTS[gc.value]:
            changed.append(gc.value)
    report("CLI report digests", not changed and len(orbits) == len(CLI_REPORT_DIGESTS),
           f"changed: {changed}" if changed else f"{len(orbits)} reports byte-identical")


#: sha256 of (stream.txt, certificate.json) for the classes built on a proper
#: subshift, on two 3-symbol ambients: horizon 2^12, the acceptance seed,
#: range-1 indicator of 0.  The full 3-shift has tied subgraph entropies.
AMBIENT_WITNESS_DIGESTS = {
    ("full3", "V_NOT_W"): ("9b26857518d01189c4dd42c09d3151ecf233a47ba80657d788d23df450aaed8e",
                           "15343ebac5ff0531b88c48cff8b038d2fe6a73fd1c7967ddb930ecd3e36d3553"),
    ("full3", "QW_NOT_V"): ("b28615713a9bcf7e068b203a46df1a4df2e6b47cfe1c64bc701919a82aba5ad4",
                            "990180f48e1c8bc2515ba5c72ed032b170274156ec41ca53237e2759dede2fa1"),
    ("full3", "I_NOT_QW"): ("e54a3d6c6dcc3fd09db0307744402b3531790d00e47797d1c53a2b5444e2a6dd",
                            "4496c235e938009a22bb4dc4564ef0a00eb61fed1fe4b7f9d1ece47d3507ff7b"),
    ("three_symbol", "V_NOT_W"): ("f4012b6d795a36a453fed6df87fdf302173aec41a38ebe55f759f4e4a5def938",
                                  "0e5fa8da184d4c16dead31580493f829b013544c4847f6772ce1f75b0a96887c"),
    ("three_symbol", "QW_NOT_V"): ("2f3e6e42860f593c9f26ac21222ed82040b817ee8768ce7c855afcbde574db43",
                                   "03eab75d00615e72581d3825d44d638916f911361057512821a0504eaf335de4"),
    ("three_symbol", "I_NOT_QW"): ("96e0cc13fbecf4989203018c73a7cd99872a20001c37fcba0973d367ca9b01e3",
                                   "71aa987b046728af4d6952fc72dfc14e1bc9a801cde8522adf142b2abb8b6e62"),
}


def test_ambient_witness_bytes_pinned(full3, tmp_path):
    """Witnesses that build on the largest proper subshift stay byte-identical."""
    ambients = {"full3": full3,
                "three_symbol": sft_from_matrix(3, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])}
    changed = []
    for (name, gc), digests in AMBIENT_WITNESS_DIGESTS.items():
        s = ambients[name]
        o = synthesize_witness(s, GapClass(gc), indicator_potential(s, (0,)), 1 << 12,
                               seed=ACCEPTANCE_SEED)
        out = tmp_path / name / gc
        io.write_orbit_dir(o, out)
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("stream.txt", "certificate.json"))
        if got != digests:
            changed.append(f"{name}/{gc}")
    report("ambient witness digests", not changed,
           f"changed: {changed}" if changed else
           f"{len(AMBIENT_WITNESS_DIGESTS)} witnesses byte-identical")


#: sha256 of (curve CSV, manifest) written by `shiftlab spectrum --points 9`
#: with relative paths; the manifest records the interval's extreme cycles.
#: The CSVs carry the q_star of the Newton solver (PINNED_POINTS holds the
#: golden-section values they replaced; a and psi are byte-identical)
SPECTRUM_DIGESTS = {
    ("golden", (1,)): ("424d93c24ca83e0e4c8833271431dd3f08eb673b39a6296a8bf128dd15ea458e",
                       "0432fa3796a45ef52c46bdde05d23e7e3d7eaf9f546061f856d3371f374f6968"),
    ("full2", (1,)): ("f2c0b02cdad6d4fc069a71691f8bd5c65c05f6d0fc1cce5a7a89549ebcc29dc4",
                      "e1d29ebb442fb20cf0bf63f7b22dfc2b9ce4f49cc0743a83a39851b146c9030c"),
    ("full2", (1, 1, 1, 1, 1)): ("09f915109c7bc4cf00c32b3ec93f4e3a919b2e033aa67ecddd3f5c201012b4be",
                                 "a4c4d11906379d4a9d57c03966b1835fea04cc8bac2018e7f72b6c72abdf7b1f"),
    ("full3", "quarters"): ("eac4b25ba4c8471cd6eb1818d92cc6813127b3d93deb45a6db6e6b7bef6dd84d",
                            "2c726729683a2d42717eff726a12cee427581579ed85e84ec15e6287429f76f1"),
}

#: named non-indicator potentials of SPECTRUM_DIGESTS
SPECTRUM_POTENTIALS = {"quarters": FULL3_QUARTERS}


def test_spectrum_bytes_pinned(golden, full2, full3, tmp_path, monkeypatch):
    """Spectrum CSVs and manifests stay byte-identical."""
    from shiftlab.cli import main

    monkeypatch.chdir(tmp_path)
    shifts = {"golden": golden, "full2": full2, "full3": full3}
    changed = []
    for (name, target), digests in SPECTRUM_DIGESTS.items():
        s = shifts[name]
        if isinstance(target, str):
            tag, phi = f"{name}_{target}", SPECTRUM_POTENTIALS[target]
        else:
            tag = name if len(target) == 1 else f"{name}_{format_word(target)}"
            phi = indicator_potential(s, target)
        io.write_json(f"{tag}.shift.json", io.shift_to_doc(s))
        io.write_json(f"{tag}.phi.json", io.potential_to_doc(phi))
        rc = main(["spectrum", "--shift", f"{tag}.shift.json", "--potential", f"{tag}.phi.json",
                   "--points", "9", "--out", f"{tag}.csv", "--manifest", f"{tag}.manifest.json"])
        got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in (f"{tag}.csv", f"{tag}.manifest.json"))
        if rc != 0 or got != digests:
            changed.append(tag)
    report("spectrum digests", not changed,
           f"changed: {changed}" if changed else f"{len(SPECTRUM_DIGESTS)} curves byte-identical")


#: (a, psi, q_star) of the SPECTRUM_DIGESTS curves as the golden-section
#: solver computed them before the Newton solver replaced it; the golden
#: Parry average a* is the dense Perron solve's (5 - sqrt 5)/10, one ulp
#: above the correctly rounded value (the power iteration was 1.4e-15 off)
PINNED_POINTS = {
    ("golden", (1,)): [
        (0.05, 0.1958824481015703, -2.836304574836209),
        (0.1, 0.3139488862587288, -1.9616585238856152),
        (0.15, 0.39609936841688637, -1.3462889605139252),
        (0.2, 0.4498681156950467, -0.8109302331309862),
        (0.25, 0.4773856262211095, -0.2876820655670851),
        (0.27639320225002106, 0.4812118250596034, 1.3756372308875706e-08),
        (0.3, 0.4780356732903301, 0.2719336940047284),
        (0.35, 0.44862068941222255, 0.9273405624581639),
        (0.4, 0.38190850097688755, 1.7917594661534189),
        (0.45, 0.26077662218181064, 3.208825438487462),
    ],
    ("full2", (1,)): [
        (0.1, 0.32508297339144826, -2.1972245349419572),
        (0.2, 0.5004024235381878, -1.3862943603407762),
        (0.3, 0.6108643020548936, -0.8472978856747418),
        (0.4, 0.6730116670092565, -0.4054651270340889),
        (0.5, 0.6931471805599453, -9.957955693120812e-09),
        (0.6, 0.6730116670092564, 0.40546512270467444),
        (0.7, 0.6108643020548935, 0.8472978835675262),
        (0.8, 0.5004024235381879, 1.386294343774939),
        (0.9, 0.32508297339144865, 2.1972246273930036),
    ],
    ("full2", (1, 1, 1, 1, 1)): [
        (0.03125, 0.6931471805599443, 6.876584305432209e-09),
        (0.1, 0.6774794188534192, 0.3616718594102837),
        (0.2, 0.6323388951488542, 0.5184990204916287),
        (0.3, 0.5760435986160118, 0.6014939865786595),
        (0.4, 0.5127785639996789, 0.6615331192635157),
        (0.5, 0.4440269724539472, 0.7126796610677759),
        (0.6, 0.37030917594229773, 0.7617989114591008),
        (0.7, 0.2915446074578272, 0.8146821847306076),
        (0.8, 0.2069603207810392, 0.880337186888265),
        (0.9, 0.11425804855926647, 0.9851400538368962),
    ],
}


def test_spectrum_points_match_golden_section(golden, full2):
    """Newton on the exact P' lands on the points the old golden-section
    search found: psi within 1e-12, q_star within its old 1e-6 error."""
    shifts = {"golden": golden, "full2": full2}
    worst_psi = worst_q = 0.0
    for (name, target), pinned in PINNED_POINTS.items():
        s = shifts[name]
        curve = spectrum_curve(s, indicator_potential(s, target), 9)
        assert [a for a, _, _ in curve.points] == [a for a, _, _ in pinned]
        for (_, psi, q), (_, old_psi, old_q) in zip(curve.points, pinned):
            worst_psi = max(worst_psi, abs(psi - old_psi))
            worst_q = max(worst_q, abs(q - old_q))
    report("spectrum points", worst_psi <= 1e-12 and worst_q <= 1e-6,
           f"max|dpsi|={worst_psi:.2e} max|dq*|={worst_q:.2e}")
