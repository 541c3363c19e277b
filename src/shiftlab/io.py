"""Versioned JSON schemas and file formats.

Every document carries a "schema" field.  Writes are atomic (temp file +
rename) and deterministic: no timestamps unless explicitly requested, keys
emitted in construction order.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import SchemaError
from .measures import (InvariantMeasure, MarkovMeasure, PeriodicMeasure, Potential,
                       markov_measure, mixture, periodic_measure)
from .shifts import ShiftSpace, sft_from_matrix
from .synthesis import Certificate, GapClass, OrbitPrefix, Schedule, Segment

SHIFT_SCHEMA = "shiftlab/shift/1"
POTENTIAL_SCHEMA = "shiftlab/potential/1"
CERTIFICATE_SCHEMA = "shiftlab/certificate/1"
REPORT_SCHEMA = "shiftlab/report/1"
MANIFEST_SCHEMA = "shiftlab/manifest/1"

STREAM_LINE_WIDTH = 120
SEGMENT_KINDS = ("markov", "periodic", "literal", "bridge")


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


# --- shift spaces ----------------------------------------------------------


def shift_to_doc(s: ShiftSpace) -> dict:
    doc = {"schema": SHIFT_SCHEMA, "k": s.k, "matrix": [list(row) for row in s.matrix]}
    if s.labels is not None:
        doc["labels"] = list(s.labels)
    return doc


def shift_from_doc(doc: dict) -> ShiftSpace:
    if doc.get("schema", SHIFT_SCHEMA) != SHIFT_SCHEMA:
        raise SchemaError(f"expected {SHIFT_SCHEMA}, got {doc.get('schema')}")
    try:
        return sft_from_matrix(int(doc["k"]), doc["matrix"], doc.get("labels"))
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad shift document: {e}")


# --- potentials ------------------------------------------------------------


def potential_to_doc(phi: Potential) -> dict:
    entries = sorted((list(w), float(v)) for w, v in phi.table.items())
    return {"schema": POTENTIAL_SCHEMA, "range": phi.range,
            "entries": [[w, v] for w, v in entries]}


def potential_from_doc(doc: dict) -> Potential:
    if doc.get("schema", POTENTIAL_SCHEMA) != POTENTIAL_SCHEMA:
        raise SchemaError(f"expected {POTENTIAL_SCHEMA}, got {doc.get('schema')}")
    try:
        table = {tuple(int(c) for c in w): float(v) for w, v in doc["entries"]}
        return Potential(range=int(doc["range"]), table=table)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad potential document: {e}")


# --- measures --------------------------------------------------------------


def measure_to_doc(m: InvariantMeasure) -> dict:
    if isinstance(m, MarkovMeasure):
        return {"type": "markov", "P": [list(row) for row in m.P], "pi": list(m.pi)}
    if isinstance(m, PeriodicMeasure):
        return {"type": "periodic", "cycle": list(m.cycle)}
    return {"type": "mixture", "weights": list(m.weights),
            "components": [measure_to_doc(c) for c in m.components]}


def measure_from_doc(doc: dict, s: ShiftSpace) -> InvariantMeasure:
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


def _segment_from_doc(doc: dict, pool_size: int) -> Segment:
    """Markov segments regenerate from (source, sub_seed), the others replay word."""
    kind = doc.get("kind")
    if kind not in SEGMENT_KINDS:
        raise SchemaError(f"segment kind {kind!r} is not one of {', '.join(SEGMENT_KINDS)}")
    word = doc.get("word")
    if kind == "markov":
        for key in ("source", "sub_seed"):
            if type(doc.get(key)) is not int:
                raise SchemaError(f"markov segment {key} {doc.get(key)!r} is not an integer")
        if not 0 <= doc["source"] < pool_size:
            raise SchemaError(f"markov segment source {doc['source']} outside the pool")
    elif word is None:
        raise SchemaError(f"{kind} segment has no word")
    return Segment(kind=kind, start=int(doc["start"]), length=int(doc["length"]),
                   source=doc.get("source"),
                   word=tuple(word) if word is not None else None,
                   sub_seed=doc.get("sub_seed"))


def certificate_to_doc(o: OrbitPrefix) -> dict:
    cert = o.certificate
    return {
        "schema": CERTIFICATE_SCHEMA,
        "gap_class": cert.gap_class.value,
        "structure": cert.structure,
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
    if cert_doc.get("schema") != CERTIFICATE_SCHEMA:
        raise SchemaError(f"expected {CERTIFICATE_SCHEMA}, got {cert_doc.get('schema')}")
    try:
        return _orbit_from_docs(cert_doc, stream_text)
    except KeyError as e:
        raise SchemaError(f"certificate document has no {e} key")
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad certificate document: {e}")


def _orbit_from_docs(cert_doc: dict, stream_text: str) -> OrbitPrefix:
    s = shift_from_doc(cert_doc["shift"])
    pool = [measure_from_doc(d, s) for d in cert_doc["pool"]]
    phi = potential_from_doc(cert_doc["potential"]) if cert_doc.get("potential") else None
    facts = []
    for f in cert_doc["exact_facts"]:
        fixed = dict(f)
        fixed["support_symbols"] = [int(x) for x in f["support_symbols"]]
        fixed["support_edges"] = [tuple(e) for e in f["support_edges"]]
        facts.append(fixed)
    cert = Certificate(
        gap_class=GapClass(cert_doc["gap_class"]),
        structure=cert_doc["structure"],
        pool=pool,
        extremes=[int(i) for i in cert_doc["extremes"]],
        chain_links=[(float(th), int(a), int(b)) for th, a, b in cert_doc["chain_links"]],
        exact_facts=facts,
        inf_entropy_over_K=float(cert_doc["inf_entropy_over_K"]),
        expected_statistics=cert_doc["expected_statistics"],
        pinned_prefix=tuple(cert_doc["pinned_prefix"]) if cert_doc.get("pinned_prefix") else None,
        horizon=int(cert_doc["horizon"]),
        seed=int(cert_doc["seed"]),
        phi=phi,
        ambient_entropy=float(cert_doc["ambient_entropy"]),
    )
    word = stream_from_text(stream_text)
    limit = min(s.k, 10)
    if word.size and (word.min() < 0 or word.max() >= limit):
        bad = int(np.flatnonzero((word < 0) | (word >= limit))[0])
        raise SchemaError(f"stream symbol {bad} is {chr(int(word[bad]) + ord('0'))!r}, "
                          f"not a digit below {limit}")
    schedule = Schedule(horizon=cert.horizon,
                        segments=[_segment_from_doc(d, len(pool)) for d in cert_doc["schedule"]])
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
                "target": list(st.target),
                "visits": int(len(st.visit_times)),
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
