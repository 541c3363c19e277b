"""Versioned JSON schemas and file formats.

Every document carries a "schema" field.  Writes are atomic (temp file +
rename) and deterministic: no timestamps, keys emitted in construction
order.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import reprlib
import sys
import tempfile
from collections import namedtuple
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import CertificateMismatch, SchemaError, UnreadableInput
from .measures import (SAMPLE_CHUNK, InvariantMeasure, MarkovMeasure, PeriodicMeasure,
                       Potential, markov_measure, mixture, periodic_measure, validate_potential)
from .shifts import SYMBOL_DTYPE, ShiftSpace, sft_from_matrix
from .synthesis import (CLASSES, DERIVED, MAX_HORIZON, Certificate, GapClass, OrbitPrefix,
                        Schedule, Segment, sub_seeds)

SHIFT_SCHEMA = "shiftlab/shift/1"
POTENTIAL_SCHEMA = "shiftlab/potential/1"
CERTIFICATE_SCHEMA = "shiftlab/certificate/3"
#: certificate schemas read: /2 stored one object per segment, with its start
#: and sub-seed, and /1 also each periodic segment's symbols
CERTIFICATE_SCHEMAS = ("shiftlab/certificate/1", "shiftlab/certificate/2", CERTIFICATE_SCHEMA)
MANIFEST_SCHEMA = "shiftlab/manifest/1"

#: largest |value| a potential document may give.  psi is a difference of
#: terms of size q*phi: on a 3-symbol shift psi of c*phi is off by 2e-13 at
#: c = 1e6, 4e-7 at 1e9 and 0.3 at 1e12; near 1e308 the arithmetic overflows.
POTENTIAL_BOUND = 1e6

STREAM_LINE_WIDTH = 120
#: the stream format holds one ASCII digit per symbol
STREAM_ALPHABET = 10


def atomic_write(path: Union[str, Path], data) -> None:
    """Write bytes to a file, with the mode open() gives, that replaces `path`
    once it is whole; on an error it is removed and `path` left as it was.
    An OSError names `path`, not the temporary file."""
    path = Path(path)
    umask = os.umask(0)   # read, and set back at once
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)   # mkstemp made it 0o600
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(e.errno, e.strerror, str(path)) from e


def write_json(path: Union[str, Path], doc: dict) -> None:
    """The text of json.dumps(doc) and a newline: one line, from the C encoder."""
    atomic_write(path, (json.dumps(doc) + "\n").encode("ascii"))


def _read(path: Union[str, Path]) -> np.ndarray:
    """The bytes of an input file, as uint8; an OSError reading it is UnreadableInput."""
    try:
        return np.fromfile(path, dtype=np.uint8)
    except OSError as e:
        raise UnreadableInput(f"cannot read {path}: {e.strerror or e}") from e


def read_json(path: Union[str, Path]) -> dict:
    """A UTF-8 JSON document; json.loads of the bytes would take a BOM or UTF-16."""
    return json.loads(_read(path).tobytes().decode("utf-8"))


# --- typed fields ------------------------------------------------------------
# Each document is read through its table of typed, ranged fields (the *_FIELDS
# below) by one validator loop.

#: what a field's test reads besides the value: a certificate's alphabet k
#: and measure pool
Context = namedtuple("Context", ["k", "pool"], defaults=(0, ()))
#: a field type: test(value, context) decides it, and `what` states it in errors
Param = NamedTuple("Param", [("what", str), ("test", Callable[[object, Context], bool])])


#: bools are not numbers, and an integer must convert to a float
NUMBER = Param("a number", lambda v, c: isinstance(v, float)
               or (type(v) is int and abs(v) <= sys.float_info.max))
REAL = Param("a finite number", lambda v, c: NUMBER.test(v, c) and math.isfinite(v))
INTEGER = Param("an integer", lambda v, c: type(v) is int)
COUNT = Param("an integer >= 1", lambda v, c: type(v) is int and v >= 1)
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


def pool_index(measure: str, of: type) -> Param:
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
#: the letter of each segment kind in a schedule's kinds column
KIND_LETTERS = {"markov": "m", "periodic": "p", "thue_morse": "t", "literal": "l", "bridge": "b"}
KINDS = {letter: kind for kind, letter in KIND_LETTERS.items()}
#: the kinds with a pool source, and the measure each names; literal and
#: bridge segments carry a word instead, thue_morse ones neither
SOURCED = {"m": pool_index("Markov measure", MarkovMeasure),
           "p": pool_index("periodic measure", PeriodicMeasure)}
WORDED = "lb"
#: a schedule as columns: a kind letter and a length per segment, the pool
#: index of each sourced segment and the word of each worded one, in order
SCHEDULE_FIELDS = {
    "kinds": Param(f"a string of kind letters ({', '.join(KINDS)})",
                   lambda v, c: type(v) is str and set(v).issubset(KINDS)),
    "lengths": list_of(COUNT, empty=True),
    "sources": list_of(INTEGER, empty=True),
    "words": list_of(list_of(SYMBOL), empty=True),
}
_SPAN = {"start": INTEGER, "length": COUNT}
#: a schema 1 or 2 schedule entry: one object per segment, with its span, a
#: markov segment's sub_seed, a sourced one's source and a worded one's word;
#: the columns they are read into check the sources and words.  A periodic
#: word (schema 1 stored its source's tile there) is not read.
SEGMENT_FIELDS = {
    "markov": {**_SPAN, "source": INTEGER, "sub_seed": INTEGER},
    "periodic": {**_SPAN, "source": INTEGER},
    "thue_morse": _SPAN,
    "literal": {**_SPAN, "word": LIST},
    "bridge": {**_SPAN, "word": LIST},
}
SEGMENT_KIND = {"kind": one_of(*SEGMENT_FIELDS)}
#: the certificate's recorded inputs (before schema 3 its schedule was a list
#: of segment objects); its shift, potential, pool measures and schedule have
#: their own tables.  Its derived fields (synthesis.DERIVED) are read as
#: stored, for certify to compare.
CERTIFICATE_FIELDS = {
    "schema": one_of(*CERTIFICATE_SCHEMAS),
    "gap_class": one_of(*(gc.value for gc in GapClass)),
    "pool": LIST, "schedule": OBJECT,
    "pinned_prefix": nullable(list_of(SYMBOL)), "potential": nullable(OBJECT), "seed": INTEGER,
    "horizon": Param(f"an integer from 0 to {MAX_HORIZON}",   # a chain has a link per round
                     lambda v, c: type(v) is int and 0 <= v <= MAX_HORIZON),
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


def stream_to_text(word) -> np.ndarray:
    """The bytes of a stream file, as a uint8 view of the line grid they
    fill: one ASCII digit per symbol, STREAM_LINE_WIDTH digits per line, each
    line ending in a newline; the empty stream is a single newline."""
    symbols = np.asarray(word)
    n = symbols.size
    if n and (symbols.min() < 0 or symbols.max() >= STREAM_ALPHABET):
        raise ValueError(f"stream format holds one ASCII digit per symbol "
                         f"(alphabet <= {STREAM_ALPHABET})")
    width = STREAM_LINE_WIDTH
    rows = max(1, -(-n // width))
    full, tail = divmod(n, width)
    grid = np.full((rows, width + 1), ord("\n"), dtype=np.uint8)
    np.add(symbols[:full * width].reshape(full, width), ord("0"), out=grid[:full, :width],
           casting="unsafe")
    np.add(symbols[full * width:], ord("0"), out=grid[-1, :tail], casting="unsafe")
    return grid.reshape(-1)[:n + rows]


def _read_stream(path: Path, digits: int) -> np.ndarray:
    """The symbols of a stream file as a SYMBOL_DTYPE array, decoded in the
    array of the file's bytes SAMPLE_CHUNK bytes at a time: ASCII whitespace
    (space, \\t, \\n, \\r, \\v, \\f) dropped and each other byte less '0'
    in one byte, so one that is not a digit, a non-ASCII one too, reads as a
    symbol >= 10.  SchemaError names the first symbol not below `digits`."""
    word = _read(path)
    n = 0   # symbols decoded, never past the chunk being read
    for a in range(0, len(word), SAMPLE_CHUNK):
        data = word[a:a + SAMPLE_CHUNK].tobytes().translate(None, b" \t\n\r\v\f")
        part = np.subtract(np.frombuffer(data, dtype=np.uint8), ord("0"), out=word[n:n + len(data)])
        bad = np.flatnonzero(part >= digits)   # a byte below '0' wraps past 10
        if bad.size:
            char = chr((int(part[bad[0]]) + ord("0")) % 256)   # the byte read as Latin-1
            raise SchemaError(f"stream symbol {n + bad[0]} is {char!r}, not a digit below {digits}")
        n += len(data)
    return word[:n]


# --- certificates and orbit directories ------------------------------------


def _schedule_to_doc(segments: list[Segment]) -> dict:
    return {"kinds": "".join(KIND_LETTERS[seg.kind] for seg in segments),
            "lengths": [seg.length for seg in segments],
            "sources": [seg.source for seg in segments if seg.source is not None],
            "words": [list(seg.word) for seg in segments if seg.word is not None]}


def _columns(entries: list, seed: int) -> dict:
    """The columns of a schema 1 or 2 schedule, whose entries are typed by
    SEGMENT_FIELDS, each start where the last ends, and each markov segment
    stored the sub_seed synthesis.sub_seeds derives from the kinds and
    `seed` (CertificateMismatch if not)."""
    kinds, lengths, sources, words = [], [], [], []
    end = 0
    for doc in entries:
        kind = validate(doc, SEGMENT_KIND, "schedule entry")["kind"]
        validate(doc, SEGMENT_FIELDS[kind], f"{kind} segment")
        if doc["start"] != end:
            raise SchemaError(f"segment at {doc['start']} does not start where the last ends, "
                              f"{end}")
        end += doc["length"]
        kinds.append(KIND_LETTERS[kind])
        lengths.append(doc["length"])
        if kinds[-1] in SOURCED:
            sources.append(doc["source"])
        if kinds[-1] in WORDED:
            words.append(doc["word"])
    for doc, sub_seed in zip(entries, sub_seeds([KINDS[letter] for letter in kinds], seed)):
        if sub_seed is not None and doc["sub_seed"] != sub_seed:
            raise CertificateMismatch("sub_seed", f"segment at {doc['start']} has sub_seed "
                                                  f"{doc['sub_seed']}, not {sub_seed}")
    return {"kinds": "".join(kinds), "lengths": lengths, "sources": sources, "words": words}


def _segments(columns: dict, context: Context, horizon: int) -> list[Segment]:
    """The segments of a schedule's columns.  Beyond each column's type:
    kinds and lengths align, each sourced segment names a pool measure of its
    kind, each worded one has a word of its length, and the lengths sum to
    the horizon; the starts are their prefix sums."""
    validate(columns, SCHEDULE_FIELDS, "schedule", context)
    kinds, lengths, sources, words = (columns[field] for field in SCHEDULE_FIELDS)
    if len(lengths) != len(kinds):
        raise SchemaError(f"schedule has {len(kinds)} kinds and {len(lengths)} lengths")
    sourced = [letter for letter in kinds if letter in SOURCED]
    worded = [length for letter, length in zip(kinds, lengths) if letter in WORDED]
    for field, wanted in (("sources", sourced), ("words", worded)):
        if len(columns[field]) != len(wanted):
            raise SchemaError(f"schedule has {len(columns[field])} {field} for "
                              f"{len(wanted)} segments that take one")
    for i, (letter, source) in enumerate(zip(sourced, sources)):
        if not SOURCED[letter].test(source, context):
            raise SchemaError(f"schedule sources[{i}] is {source}, not {SOURCED[letter].what}")
    for i, (word, length) in enumerate(zip(words, worded)):
        if len(word) != length:
            raise SchemaError(f"schedule words[{i}] has {len(word)} symbols, "
                              f"not its segment's {length}")
    if sum(lengths) != horizon:
        raise SchemaError(f"schedule lengths sum to {sum(lengths)}, not to the horizon {horizon}")
    source, word = iter(sources), iter(words)
    return [Segment(kind=KINDS[letter], start=start, length=length,
                    source=next(source) if letter in SOURCED else None,
                    word=tuple(next(word)) if letter in WORDED else None)
            for letter, start, length in zip(kinds, itertools.accumulate(lengths, initial=0),
                                             lengths)]


def certificate_to_doc(o: OrbitPrefix) -> dict:
    cert = o.certificate
    return {
        "schema": CERTIFICATE_SCHEMA,
        "gap_class": cert.gap_class.value,
        "structure": cert.structure,
        "shift": shift_to_doc(o.shift),
        "pool": [measure_to_doc(m) for m in cert.pool],
        "extremes": cert.extremes,
        "chain_links": cert.chain_links,
        "exact_facts": cert.exact_facts,
        "inf_entropy_over_K": cert.inf_entropy_over_K,
        "expected_statistics": cert.expected_statistics,
        "pinned_prefix": list(cert.pinned_prefix) if cert.pinned_prefix else None,
        "horizon": cert.horizon,
        "seed": cert.seed,
        "potential": potential_to_doc(cert.phi) if cert.phi is not None else None,
        "ambient_entropy": cert.ambient_entropy,
        "schedule": _schedule_to_doc(o.schedule.segments),
    }


def read_orbit_dir(orbit_dir: Union[str, Path]) -> OrbitPrefix:
    """The orbit of a directory's certificate.json and stream.txt.  Beyond each
    recorded input's type: a class that needs a potential has one, the stream
    holds digits below k (_read_stream), and the schedule's columns fit
    (_segments).  A schema 1 or 2 schedule is read into columns first
    (_columns), which compares its stored sub-seeds with the derived ones.
    The derived fields (synthesis.DERIVED) are kept as stored, null if
    absent; certify compares each with the value the inputs give."""
    path = Path(orbit_dir)
    cert_doc = read_json(path / "certificate.json")
    schema = validate(cert_doc, {"schema": CERTIFICATE_FIELDS["schema"]}, "certificate")["schema"]
    s = shift_from_doc(cert_doc.get("shift"))   # its alphabet types the other fields' symbols
    fields = CERTIFICATE_FIELDS if schema == CERTIFICATE_SCHEMA else {**CERTIFICATE_FIELDS,
                                                                     "schedule": LIST}
    validate(cert_doc, fields, "certificate", Context(k=s.k),
             optional=("pinned_prefix", "potential"))
    pool = [measure_from_doc(d, s) for d in cert_doc["pool"]]
    phi = (potential_from_doc(cert_doc["potential"], s)
           if cert_doc.get("potential") is not None else None)
    gap_class = GapClass(cert_doc["gap_class"])
    if phi is None and CLASSES[gap_class].potential:
        raise SchemaError(f"a {gap_class.value} certificate needs a potential; this one has none")
    cert = Certificate(
        gap_class=gap_class, pool=pool, **{field: cert_doc.get(field) for field in DERIVED},
        pinned_prefix=tuple(cert_doc["pinned_prefix"]) if cert_doc.get("pinned_prefix") else None,
        horizon=cert_doc["horizon"], seed=cert_doc["seed"], phi=phi)
    word = _read_stream(path / "stream.txt", min(s.k, STREAM_ALPHABET))
    columns = (cert_doc["schedule"] if schema == CERTIFICATE_SCHEMA
               else _columns(cert_doc["schedule"], cert.seed))
    segments = _segments(columns, Context(k=s.k, pool=pool), cert.horizon)
    return OrbitPrefix(word=word, schedule=Schedule(segments=segments), certificate=cert, shift=s)


def write_orbit_dir(o: OrbitPrefix, out_dir: Union[str, Path]) -> list[str]:
    stream = stream_to_text(o.word)   # refuses an alphabet above 10 before any write
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "stream.txt", stream)
    write_json(out / "certificate.json", certificate_to_doc(o))
    return ["stream.txt", "certificate.json"]


# --- manifests ---------------------------------------------------------------


def manifest_doc(command: str, inputs: dict, outputs: Sequence[str]) -> dict:
    from . import __version__

    return {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "inputs": inputs,
        "library_version": __version__,
        "log_base": "natural (nats)",
        "outputs": list(outputs),
        "timestamps": None,
    }
