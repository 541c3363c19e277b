"""Versioned JSON schemas and file formats.

Every document carries a "schema" field.  Writes are atomic (temp file +
rename) and deterministic: no timestamps unless explicitly requested, keys
emitted in construction order.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import sys
import tempfile
from collections import namedtuple
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import SchemaError
from .measures import (InvariantMeasure, MarkovMeasure, PeriodicMeasure, Potential,
                       markov_measure, mixture, periodic_measure, validate_potential)
from .shifts import ShiftSpace, sft_from_matrix
from .synthesis import CLASS_SHAPE, Certificate, GapClass, OrbitPrefix, Schedule, Segment

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


# --- typed fields ------------------------------------------------------------
# Each document is read through its table of typed, ranged fields (the *_FIELDS
# below; classify.CHECKS types check parameters alike) by one validator loop.

#: what a field's test reads besides the value: a check's stream of n symbols
#: over k, or a certificate's alphabet k and measure pool
Context = namedtuple("Context", ["n", "k", "pool"], defaults=(0, 0, ()))
#: a field type: test(value, context) decides it, and `what` states it in errors
Param = NamedTuple("Param", [("what", str), ("test", Callable[[object, Context], bool])])


#: bools are not numbers, and an integer must convert to a float
NUMBER = Param("a number", lambda v, c: isinstance(v, float)
               or (type(v) is int and abs(v) <= sys.float_info.max))
REAL = Param("a finite number", lambda v, c: NUMBER.test(v, c) and math.isfinite(v))
INTEGER = Param("an integer", lambda v, c: type(v) is int)
COUNT = Param("an integer >= 1", lambda v, c: type(v) is int and v >= 1)
BOOL = Param("true or false", lambda v, c: type(v) is bool)
TEXT = Param("a string", lambda v, c: type(v) is str)
LIST = Param("a list", lambda v, c: type(v) is list)
OBJECT = Param("an object", lambda v, c: type(v) is dict)
SYMBOL = Param("a symbol (an integer below k)", lambda v, c: type(v) is int and 0 <= v < c.k)


def one_of(*values: str) -> Param:
    return Param(f"one of {', '.join(values)}", lambda v, c: type(v) is str and v in values)


def nullable(item: Param) -> Param:
    return Param(f"null or {item.what}", lambda v, c: v is None or item.test(v, c))


def list_of(item: Param, empty: bool = False) -> Param:
    return Param(f"a {'' if empty else 'non-empty '}list, each item {item.what}",
                 lambda v, c: type(v) is list and (empty or len(v) > 0)
                 and all(item.test(x, c) for x in v))


def tuple_of(*items: Param) -> Param:
    return Param(f"a list [{', '.join(p.what for p in items)}]", lambda v, c: type(v) is list
                 and len(v) == len(items) and all(p.test(x, c) for p, x in zip(items, v)))


def square(entry: Param) -> Param:
    return Param(f"a square list of rows of matrix entries, each {entry.what}",
                 lambda v, c: type(v) is list and all(type(row) is list and len(row) == len(v)
                                                      and all(entry.test(x, c) for x in row)
                                                      for row in v))


def pool_index(measure: str = "measure", of: type = object) -> Param:
    return Param(f"the index of a {measure} in the pool", lambda v, c: type(v) is int
                 and 0 <= v < len(c.pool) and isinstance(c.pool[v], of))


def validate(doc, fields: dict[str, Param], what: str, context: Context = Context(),
             optional: Sequence[str] = ()) -> dict:
    """The document, once each field passes its type, in table order.  A field
    in `optional` may be left out; keys the table does not name are ignored.
    SchemaError names the first field that fails."""
    if type(doc) is not dict:
        raise SchemaError(f"{what} document is not a JSON object")
    for field, spec in fields.items():
        if field not in doc:
            if field not in optional:
                raise SchemaError(f"{what} has no {field!r} field")
        elif not spec.test(doc[field], context):
            raise SchemaError(f"{what} {field} is {reprlib.repr(doc[field])}, not {spec.what}")
    return doc


SHIFT_FIELDS = {
    "schema": one_of(SHIFT_SCHEMA), "k": COUNT, "labels": nullable(list_of(TEXT)),
    "matrix": square(Param("0 or 1", lambda v, c: type(v) is int and 0 <= v <= 1)),
}
POTENTIAL_FIELDS = {
    "schema": one_of(POTENTIAL_SCHEMA), "range": COUNT,
    "entries": list_of(tuple_of(list_of(SYMBOL), Param(
        f"a number within ±{POTENTIAL_BOUND:g}",
        lambda v, c: NUMBER.test(v, c) and abs(v) <= POTENTIAL_BOUND)), empty=True),
}
MEASURE_FIELDS = {
    "markov": {"P": square(REAL), "pi": nullable(list_of(REAL))},
    "periodic": {"cycle": list_of(SYMBOL)},
    "mixture": {"weights": list_of(REAL), "components": list_of(OBJECT)},
}
MEASURE_TYPE = {"type": one_of(*MEASURE_FIELDS)}
#: a pool measure's exact facts; the integral is null without a potential
FACT_FIELDS = {
    "entropy": REAL, "integral": nullable(REAL), "support_symbols": list_of(SYMBOL),
    "support_edges": list_of(tuple_of(SYMBOL, SYMBOL)), "full_support": BOOL, "ergodic": BOOL,
}
_SPAN = {"start": INTEGER, "length": COUNT}
#: the fields of each segment kind: markov segments name (source, sub_seed),
#: periodic ones a source, thue_morse ones only their span; literal and bridge
#: segments carry their word.  A periodic word (schema /1 stored its source's
#: tile there) is not read.
SEGMENT_FIELDS = {
    "markov": {**_SPAN, "source": pool_index("Markov measure", MarkovMeasure),
               "sub_seed": INTEGER},
    "periodic": {**_SPAN, "source": pool_index("periodic measure", PeriodicMeasure)},
    "thue_morse": _SPAN,
    "literal": {**_SPAN, "word": list_of(SYMBOL)},
    "bridge": {**_SPAN, "word": list_of(SYMBOL)},
}
SEGMENT_KIND = {"kind": one_of(*SEGMENT_FIELDS)}
#: the certificate's top level; its shift, potential, pool measures, exact
#: facts and schedule entries have their own tables
CERTIFICATE_FIELDS = {
    "schema": one_of(*CERTIFICATE_SCHEMAS),
    "gap_class": one_of(*(gc.value for gc in GapClass)),
    "structure": one_of(*dict.fromkeys(shape.structure for shape in CLASS_SHAPE.values())),
    "pool": LIST, "exact_facts": LIST, "expected_statistics": LIST, "schedule": LIST,
    "extremes": list_of(pool_index(), empty=True),
    "chain_links": list_of(tuple_of(REAL, pool_index(), pool_index()), empty=True),
    "inf_entropy_over_K": REAL, "ambient_entropy": REAL,
    "pinned_prefix": nullable(list_of(SYMBOL)), "potential": nullable(OBJECT), "seed": INTEGER,
    "horizon": Param("an integer >= 0", lambda v, c: type(v) is int and v >= 0),
}


# --- shift spaces ----------------------------------------------------------


def shift_to_doc(s: ShiftSpace) -> dict:
    doc = {"schema": SHIFT_SCHEMA, "k": s.k, "matrix": [list(row) for row in s.matrix]}
    if s.labels is not None:
        doc["labels"] = list(s.labels)
    return doc


def shift_from_doc(doc: dict) -> ShiftSpace:
    validate(doc, SHIFT_FIELDS, "shift", optional=("schema", "labels"))
    return sft_from_matrix(doc["k"], doc["matrix"], doc.get("labels"))


# --- potentials ------------------------------------------------------------


def potential_to_doc(phi: Potential) -> dict:
    entries = sorted((list(w), float(v)) for w, v in phi.table.items())
    return {"schema": POTENTIAL_SCHEMA, "range": phi.range,
            "entries": [[w, v] for w, v in entries]}


def potential_from_doc(doc: dict, s: ShiftSpace) -> Potential:
    """The potential of a document, which must list each admissible
    range-word of s once with its value."""
    validate(doc, POTENTIAL_FIELDS, "potential", Context(k=s.k), optional=("schema",))
    table = {tuple(w): float(v) for w, v in doc["entries"]}
    if len(table) != len(doc["entries"]):
        raise SchemaError("potential entries list a word twice")
    phi = Potential(range=doc["range"], table=table)
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
    kind = validate(doc, MEASURE_TYPE, "measure")["type"]
    validate(doc, MEASURE_FIELDS[kind], f"{kind} measure", Context(k=s.k))
    if kind == "markov":
        return markov_measure(s, doc["P"], doc["pi"])
    if kind == "periodic":
        return periodic_measure(s, doc["cycle"])
    return mixture(doc["weights"], [measure_from_doc(c, s) for c in doc["components"]])


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


def _segment_from_doc(doc: dict, context: Context) -> Segment:
    kind = validate(doc, SEGMENT_KIND, "schedule entry")["kind"]
    validate(doc, SEGMENT_FIELDS[kind], f"{kind} segment", context)
    seg = Segment(kind=kind, **{field: doc[field] for field in SEGMENT_FIELDS[kind]})
    if seg.word is not None:
        if len(seg.word) != seg.length:
            raise SchemaError(f"{kind} segment word has {len(seg.word)} symbols, not {seg.length}")
        seg.word = tuple(seg.word)
    return seg


def certificate_to_doc(o: OrbitPrefix) -> dict:
    cert = o.certificate
    return {
        "schema": CERTIFICATE_SCHEMA,
        "gap_class": cert.gap_class.value,
        "structure": CLASS_SHAPE[cert.gap_class].structure,
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
    """The orbit of a certificate document and its stream.  Beyond each
    field's type: exact_facts has one entry per pool measure, the structure,
    extremes, chain_links and potential fit the gap class's CLASS_SHAPE, the
    stream holds digits below k, and the schedule tiles [0, horizon)."""
    validate(cert_doc, {"schema": CERTIFICATE_FIELDS["schema"]}, "certificate")
    s = shift_from_doc(cert_doc.get("shift"))   # its alphabet types the other fields' symbols
    validate(cert_doc, CERTIFICATE_FIELDS, "certificate",
             Context(k=s.k, pool=cert_doc.get("pool")), optional=("pinned_prefix", "potential"))
    pool = [measure_from_doc(d, s) for d in cert_doc["pool"]]
    phi = (potential_from_doc(cert_doc["potential"], s)
           if cert_doc.get("potential") is not None else None)
    facts = [validate(f, FACT_FIELDS, f"exact_facts[{i}]", Context(k=s.k))
             for i, f in enumerate(cert_doc["exact_facts"])]
    if len(facts) != len(pool):
        raise SchemaError(f"{len(facts)} exact facts for a pool of {len(pool)} measures")
    gap_class = GapClass(cert_doc["gap_class"])
    shape = CLASS_SHAPE[gap_class]
    extremes, links = cert_doc["extremes"], cert_doc["chain_links"]
    if ((cert_doc["structure"], None if links else len(extremes)) != shape[:2]
            or (phi is None and shape.potential)):
        raise SchemaError(f"a {gap_class.value} certificate has the {shape}; this one has "
                          f"structure {cert_doc['structure']!r}, {len(extremes)} extremes, "
                          f"{len(links)} chain_links and {'a' if phi else 'no'} potential")
    cert = Certificate(
        gap_class=gap_class, pool=pool, extremes=extremes,
        chain_links=[(float(th), a, b) for th, a, b in links],
        exact_facts=[{**f, "support_edges": [tuple(e) for e in f["support_edges"]]} for f in facts],
        inf_entropy_over_K=float(cert_doc["inf_entropy_over_K"]),
        expected_statistics=cert_doc["expected_statistics"],
        pinned_prefix=tuple(cert_doc["pinned_prefix"]) if cert_doc.get("pinned_prefix") else None,
        horizon=cert_doc["horizon"], seed=cert_doc["seed"], phi=phi,
        ambient_entropy=float(cert_doc["ambient_entropy"]))
    word = stream_from_text(stream_text)
    bad = np.flatnonzero(word.view(np.uint64) >= min(s.k, 10))   # as uint64, c < 0 is huge
    if bad.size:
        raise SchemaError(f"stream symbol {bad[0]} is {chr(int(word[bad[0]]) + ord('0'))!r}, "
                          f"not a digit below {min(s.k, 10)}")
    segments = [_segment_from_doc(d, Context(k=s.k, pool=pool)) for d in cert_doc["schedule"]]
    end = 0
    for seg in segments:
        if seg.start != end:
            raise SchemaError(f"segment at {seg.start} does not start where the last ends, {end}")
        end += seg.length
    if end != cert.horizon:
        raise SchemaError(f"schedule ends at {end}, not at the horizon {cert.horizon}")
    return OrbitPrefix(word=word, schedule=Schedule(horizon=cert.horizon, segments=segments),
                       certificate=cert, seed=cert.seed, shift=s)


def write_orbit_dir(o: OrbitPrefix, out_dir: Union[str, Path]) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "stream.txt", stream_to_text(o.word))
    write_json(out / "certificate.json", certificate_to_doc(o))
    return ["stream.txt", "certificate.json"]


def read_orbit_dir(orbit_dir: Union[str, Path]) -> OrbitPrefix:
    path = Path(orbit_dir)
    return orbit_from_docs(read_json(path / "certificate.json"), (path / "stream.txt").read_text())


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
