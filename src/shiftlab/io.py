"""Versioned JSON schemas and file formats.

Every document carries a "schema" field.  Writes are atomic (temp file +
rename) and deterministic: no timestamps unless explicitly requested, keys
emitted in construction order.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import SchemaError
from .measures import (InvariantMeasure, MarkovMeasure, PeriodicMeasure, Potential,
                       markov_measure, mixture, periodic_measure, validate_potential)
from .shifts import ShiftSpace, sft_from_matrix
from .synthesis import (CLASS_STRUCTURE, STRUCTURE_EXTREMES, Certificate, GapClass, OrbitPrefix,
                        Schedule, Segment)

SHIFT_SCHEMA = "shiftlab/shift/1"
POTENTIAL_SCHEMA = "shiftlab/potential/1"
CERTIFICATE_SCHEMA = "shiftlab/certificate/2"
#: certificate schemas read; /1 also stored each periodic segment's symbols
CERTIFICATE_SCHEMAS = ("shiftlab/certificate/1", CERTIFICATE_SCHEMA)
REPORT_SCHEMA = "shiftlab/report/1"
MANIFEST_SCHEMA = "shiftlab/manifest/1"

#: largest |value| a potential document may give.  psi is a difference of
#: terms of size q*phi: on a 3-symbol shift psi of c*phi is off by 2e-13 at
#: c = 1e6, 4e-7 at 1e9 and 0.3 at 1e12; near 1e308 the arithmetic overflows.
POTENTIAL_BOUND = 1e6

STREAM_LINE_WIDTH = 120
SEGMENT_KINDS = ("markov", "periodic", "thue_morse", "literal", "bridge")
#: the pool measure type each by-reference segment kind regenerates from
SEGMENT_SOURCES = {"markov": MarkovMeasure, "periodic": PeriodicMeasure}


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: Union[str, Path], doc: dict) -> None:
    atomic_write_text(path, _json_text(doc) + "\n")


_CONTAINERS = (list, tuple, dict)
_KEY_TYPES = (str, int, float, bool, type(None))


def _json_text(obj, pad: str = "") -> str:
    """Exactly `json.dumps(obj, indent=2)`, with every list of scalars
    encoded by the C encoder (indent makes json.dumps encode in Python)."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{_json_key(k)}: {_json_text(v, inner)}" for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if not any(issubclass(t, _CONTAINERS) for t in set(map(type, obj))):
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
            return "[\n" + inner + body + "\n" + pad + "]"
        items = (_json_text(v, inner) for v in obj)
    else:
        return json.dumps(obj)
    opener, closer = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    return opener + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + closer


def _json_key(key) -> str:
    """A dict key as json.dumps writes it: non-string keys become their JSON text."""
    if not isinstance(key, _KEY_TYPES):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


def read_json(path: Union[str, Path]) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} document is not a JSON object")
    return doc


# --- shift spaces ----------------------------------------------------------


def shift_to_doc(s: ShiftSpace) -> dict:
    doc = {"schema": SHIFT_SCHEMA, "k": s.k, "matrix": [list(row) for row in s.matrix]}
    if s.labels is not None:
        doc["labels"] = list(s.labels)
    return doc


def shift_from_doc(doc: dict) -> ShiftSpace:
    if _object(doc, "shift").get("schema", SHIFT_SCHEMA) != SHIFT_SCHEMA:
        raise SchemaError(f"expected {SHIFT_SCHEMA}, got {doc.get('schema')}")
    k = doc.get("k")
    if type(k) is not int:
        raise SchemaError(f"shift k {k!r} is not an integer")
    try:
        return sft_from_matrix(k, doc["matrix"], doc.get("labels"))
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad shift document: {e}")


# --- potentials ------------------------------------------------------------


def potential_to_doc(phi: Potential) -> dict:
    entries = sorted((list(w), float(v)) for w, v in phi.table.items())
    return {"schema": POTENTIAL_SCHEMA, "range": phi.range,
            "entries": [[w, v] for w, v in entries]}


def potential_from_doc(doc: dict, s: ShiftSpace) -> Potential:
    """The potential of a document, which must list each admissible
    range-word of s once, as a list of integers, with its value."""
    if _object(doc, "potential").get("schema", POTENTIAL_SCHEMA) != POTENTIAL_SCHEMA:
        raise SchemaError(f"expected {POTENTIAL_SCHEMA}, got {doc.get('schema')}")
    r, entries = doc.get("range"), doc.get("entries")
    if type(r) is not int or r < 1:
        raise SchemaError(f"potential range {r!r} is not an integer >= 1")
    if type(entries) is not list:
        raise SchemaError("potential entries are not a list")
    for entry in entries:
        w, v = entry if type(entry) is list and len(entry) == 2 else (None, None)
        if type(w) is not list or not all(type(c) is int for c in w):
            raise SchemaError(f"potential entries item {entry!r} is not a [word, value] pair "
                              "with the word a list of integers")
        if type(v) not in (int, float) or not abs(v) <= POTENTIAL_BOUND:
            raise SchemaError(f"potential entries value {v!r} at {w} is not a number "
                              f"within ±{POTENTIAL_BOUND:g}")
    table = {tuple(w): float(v) for w, v in entries}
    if len(table) != len(entries):
        raise SchemaError("potential entries list a word twice")
    phi = Potential(range=r, table=table)
    validate_potential(s, phi)
    return phi


# --- measures --------------------------------------------------------------


def measure_to_doc(m: InvariantMeasure) -> dict:
    if isinstance(m, MarkovMeasure):
        return {"type": "markov", "P": [list(row) for row in m.P], "pi": list(m.pi)}
    if isinstance(m, PeriodicMeasure):
        return {"type": "periodic", "cycle": list(m.cycle)}
    return {"type": "mixture", "weights": list(m.weights),
            "components": [measure_to_doc(c) for c in m.components]}


def measure_from_doc(doc: dict, s: ShiftSpace) -> InvariantMeasure:
    if not isinstance(doc, dict):
        raise SchemaError(f"measure {doc!r} is not an object")
    kind = doc.get("type")
    if kind == "markov":
        return markov_measure(s, doc["P"], doc["pi"])
    if kind == "periodic":
        return periodic_measure(s, doc["cycle"])
    if kind == "mixture":
        return mixture(doc["weights"], [measure_from_doc(c, s) for c in doc["components"]])
    raise SchemaError(f"unknown measure type {kind!r}")


# --- symbol streams --------------------------------------------------------


def stream_to_text(word) -> str:
    """One ASCII digit per symbol, STREAM_LINE_WIDTH digits per line, each
    line ending in a newline; the empty stream is a single newline."""
    symbols = np.asarray(word, dtype=np.int64)
    n = symbols.size
    if n and (symbols.min() < 0 or symbols.max() > 9):
        raise ValueError("stream format holds one ASCII digit per symbol (alphabet <= 10)")
    width = STREAM_LINE_WIDTH
    rows = max(1, -(-n // width))
    grid = np.full((rows, width + 1), ord("\n"), dtype=np.uint8)
    digits = np.zeros(rows * width, dtype=np.uint8)
    digits[:n] = symbols + ord("0")
    grid[:, :width] = digits.reshape(rows, width)
    grid[-1, n - (rows - 1) * width] = ord("\n")
    return grid.tobytes()[:n + rows].decode("ascii")


def stream_from_text(text: str) -> np.ndarray:
    chars = "".join(text.split())
    return np.frombuffer(chars.encode(), dtype=np.uint8).astype(np.int64) - ord("0")


# --- certificates and orbit directories ------------------------------------


def _segment_to_doc(seg: Segment) -> dict:
    return {"kind": seg.kind, "start": seg.start, "length": seg.length,
            "source": seg.source,
            "word": list(seg.word) if seg.word is not None else None,
            "sub_seed": seg.sub_seed}


def _pool_index(value, pool: list, what: str) -> int:
    if type(value) is not int or not 0 <= value < len(pool):
        raise SchemaError(f"{what} {value!r} is not an index into the pool of {len(pool)} measures")
    return value


def _segment_from_doc(doc: dict, pool: list[InvariantMeasure], k: int) -> Segment:
    """Markov segments name (source, sub_seed), periodic ones a source,
    thue_morse ones only their length; literal and bridge segments carry
    their word.  A periodic word (schema /1 stored its source's tile) is ignored."""
    if not isinstance(doc, dict):
        raise SchemaError(f"schedule entry {doc!r} is not an object")
    kind = doc.get("kind")
    if kind not in SEGMENT_KINDS:
        raise SchemaError(f"segment kind {kind!r} is not one of {', '.join(SEGMENT_KINDS)}")
    start, length = doc.get("start"), doc.get("length")
    if type(start) is not int or type(length) is not int or length < 1:
        raise SchemaError(f"{kind} segment start {start!r} and length {length!r} "
                          "are not an integer and a positive integer")
    source = word = sub_seed = None
    if kind in SEGMENT_SOURCES:
        source = _pool_index(doc.get("source"), pool, f"{kind} segment source")
        if not isinstance(pool[source], SEGMENT_SOURCES[kind]):
            raise SchemaError(f"{kind} segment source {source} is not a {kind} measure")
    if kind == "markov":
        sub_seed = doc.get("sub_seed")
        if type(sub_seed) is not int:
            raise SchemaError(f"markov segment sub_seed {sub_seed!r} is not an integer")
    if kind in ("literal", "bridge"):
        word = doc.get("word")
        if (not isinstance(word, list) or len(word) != length
                or not all(type(c) is int and 0 <= c < k for c in word)):
            raise SchemaError(f"{kind} segment word is not a list of {length} symbols below {k}")
        word = tuple(word)
    return Segment(kind=kind, start=start, length=length, source=source, word=word,
                   sub_seed=sub_seed)


def _schedule_from_doc(docs: list, pool: list[InvariantMeasure], k: int,
                       horizon: int) -> Schedule:
    """The segments, which must tile [0, horizon) in order."""
    segments = [_segment_from_doc(d, pool, k) for d in docs]
    end = 0
    for seg in segments:
        if seg.start != end:
            raise SchemaError(f"segment at {seg.start} does not start where the last ends, {end}")
        end += seg.length
    if end != horizon:
        raise SchemaError(f"schedule ends at {end}, not at the horizon {horizon}")
    return Schedule(horizon=horizon, segments=segments)


def certificate_to_doc(o: OrbitPrefix) -> dict:
    cert = o.certificate
    return {
        "schema": CERTIFICATE_SCHEMA,
        "gap_class": cert.gap_class.value,
        "structure": CLASS_STRUCTURE[cert.gap_class],
        "shift": shift_to_doc(o.shift),
        "pool": [measure_to_doc(m) for m in cert.pool],
        "extremes": list(cert.extremes),
        "chain_links": [[th, a, b] for th, a, b in cert.chain_links],
        "exact_facts": cert.exact_facts,
        "inf_entropy_over_K": cert.inf_entropy_over_K,
        "expected_statistics": cert.expected_statistics,
        "pinned_prefix": list(cert.pinned_prefix) if cert.pinned_prefix else None,
        "horizon": cert.horizon,
        "seed": cert.seed,
        "potential": potential_to_doc(cert.phi) if cert.phi is not None else None,
        "ambient_entropy": cert.ambient_entropy,
        "schedule": [_segment_to_doc(seg) for seg in o.schedule.segments],
    }


def orbit_from_docs(cert_doc: dict, stream_text: str) -> OrbitPrefix:
    if _object(cert_doc, "certificate").get("schema") not in CERTIFICATE_SCHEMAS:
        raise SchemaError(f"expected {CERTIFICATE_SCHEMA}, got {cert_doc.get('schema')}")
    try:
        return _orbit_from_docs(cert_doc, stream_text)
    except KeyError as e:
        raise SchemaError(f"certificate document has no {e} key")
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"bad certificate document: {e}")


def _is_real(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _fact_from_doc(doc, i: int) -> dict:
    """A pool measure's exact facts; the integral is null without a potential."""
    doc = _object(doc, f"exact_facts[{i}]")
    for key, valid in (("entropy", _is_real), ("integral", lambda x: x is None or _is_real(x)),
                       ("full_support", lambda x: type(x) is bool),
                       ("ergodic", lambda x: type(x) is bool)):
        if not valid(doc.get(key)):
            raise SchemaError(f"exact_facts[{i}] {key} {doc.get(key)!r} is not valid")
    fact = dict(doc)
    fact["support_symbols"] = [int(x) for x in doc["support_symbols"]]
    fact["support_edges"] = [tuple(e) for e in doc["support_edges"]]
    return fact


def _orbit_from_docs(cert_doc: dict, stream_text: str) -> OrbitPrefix:
    s = shift_from_doc(cert_doc["shift"])
    pool = [measure_from_doc(d, s) for d in cert_doc["pool"]]
    phi = potential_from_doc(cert_doc["potential"], s) if cert_doc.get("potential") else None
    facts = [_fact_from_doc(f, i) for i, f in enumerate(cert_doc["exact_facts"])]
    if len(facts) != len(pool):
        raise SchemaError(f"{len(facts)} exact facts for a pool of {len(pool)} measures")
    gap_class = GapClass(cert_doc["gap_class"])
    if phi is None and gap_class not in (GapClass.PERIODIC, GapClass.ALMOST_PERIODIC_NOT_PER):
        raise SchemaError(f"a {gap_class.value} certificate has no potential")
    structure = cert_doc["structure"]
    if structure != CLASS_STRUCTURE[gap_class]:
        raise SchemaError(f"structure {structure!r} is not {CLASS_STRUCTURE[gap_class]!r}, "
                          f"the structure of {gap_class.value}")
    extremes = [_pool_index(i, pool, "extreme") for i in cert_doc["extremes"]]
    chain_links = [(float(th), _pool_index(a, pool, "link"), _pool_index(b, pool, "link"))
                   for th, a, b in cert_doc["chain_links"]]
    if (len(extremes) != STRUCTURE_EXTREMES.get(structure, len(extremes))
            or (structure == "chain") != bool(chain_links)):
        raise SchemaError(f"{len(extremes)} extremes and {len(chain_links)} chain_links "
                          f"do not fit a {structure} certificate")
    horizon, seed = cert_doc["horizon"], cert_doc["seed"]
    if type(horizon) is not int or horizon < 0 or type(seed) is not int:
        raise SchemaError(f"certificate horizon {horizon!r} and seed {seed!r} are not "
                          "a nonnegative integer and an integer")
    if not (_is_real(cert_doc["inf_entropy_over_K"]) and _is_real(cert_doc["ambient_entropy"])):
        raise SchemaError("certificate inf_entropy_over_K and ambient_entropy are not both numbers")
    cert = Certificate(
        gap_class=gap_class,
        pool=pool,
        extremes=extremes,
        chain_links=chain_links,
        exact_facts=facts,
        inf_entropy_over_K=float(cert_doc["inf_entropy_over_K"]),
        expected_statistics=cert_doc["expected_statistics"],
        pinned_prefix=tuple(cert_doc["pinned_prefix"]) if cert_doc.get("pinned_prefix") else None,
        horizon=horizon,
        seed=seed,
        phi=phi,
        ambient_entropy=float(cert_doc["ambient_entropy"]),
    )
    word = stream_from_text(stream_text)
    limit = min(s.k, 10)
    if word.size and (word.min() < 0 or word.max() >= limit):
        bad = int(np.flatnonzero((word < 0) | (word >= limit))[0])
        raise SchemaError(f"stream symbol {bad} is {chr(int(word[bad]) + ord('0'))!r}, "
                          f"not a digit below {limit}")
    schedule = _schedule_from_doc(cert_doc["schedule"], pool, s.k, cert.horizon)
    return OrbitPrefix(word=word, schedule=schedule, certificate=cert,
                       seed=cert.seed, shift=s)


def write_orbit_dir(o: OrbitPrefix, out_dir: Union[str, Path]) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "stream.txt", stream_to_text(o.word))
    write_json(out / "certificate.json", certificate_to_doc(o))
    return ["stream.txt", "certificate.json"]


def read_orbit_dir(orbit_dir: Union[str, Path]) -> OrbitPrefix:
    orbit = Path(orbit_dir)
    cert_doc = read_json(orbit / "certificate.json")
    with open(orbit / "stream.txt") as fh:
        stream_text = fh.read()
    return orbit_from_docs(cert_doc, stream_text)


# --- reports and manifests --------------------------------------------------


def report_to_doc(report) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "horizon": report.horizon,
        "ladder": {
            str(ell): {
                "target": report.prefix[:ell],
                "visits": st.visits,
                "lower_density_est": st.lower_density_est,
                "upper_density_est": st.upper_density_est,
                "max_gap": st.max_gap,
            } for ell, st in report.ladder_stats.items()
        },
        "trace": [[n, v] for n, v in report.trace],
        "oscillation": list(report.oscillation),
        "cylinder_coverage": {str(k): v for k, v in report.cylinder_coverage.items()},
        "verdicts": report.verdicts,
        "all_pass": report.all_pass,
    }


def manifest_doc(command: str, inputs: dict, outputs: Sequence[str],
                 timestamps: Optional[dict] = None) -> dict:
    from . import __version__

    return {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "inputs": inputs,
        "library_version": __version__,
        "log_base": "natural (nats)",
        "outputs": list(outputs),
        "timestamps": timestamps,
    }
