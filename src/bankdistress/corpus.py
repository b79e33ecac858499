"""News corpus handling: bank registries, sentence extraction and vocabulary."""

import array
import contextlib
import functools
import hashlib
import itertools
import json
import numbers
import os
import re
import zipfile
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np
from numpy.lib import format as npy_format

try:  # the parser behind re.compile: re._parser from Python 3.11, sre_parse before
    from re import _parser as _regex_parser
except ImportError:
    import sre_parse as _regex_parser

# Trailing abbreviations that do not terminate a sentence.
ABBREVIATIONS = ("Inc.", "Ltd.", "St.", "Mr.")

# a terminator and the whitespace after it, where split_into_sentences may split
_BOUNDARY_RE = re.compile(r"[.!?]\s+")
_TOKEN_RE = re.compile(r"<num>|[a-z]+")
_DIGITS_RE = re.compile(r"\d+")
# A pattern that matches only its own text: ordinary characters and
# backslash-escaped punctuation or spaces, as re.escape writes a name.
_LITERAL_RE = re.compile(r"(?:[^.^$*+?{}\[\]\\|()]|\\[^0-9A-Za-z])*")
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

# Negative sampling draws a word with probability proportional to its count
# to this power (Mikolov et al. 2013).
NOISE_POWER = 0.75
NPZ_ROW_CHUNK = 64  # rows gathered at a time into an .npz entry given as (matrix, rows)
FLOAT_CHUNK = 2400  # floats vector_texts prints at a time: about 0.3 MB of working set


class RegistryError(ValueError):
    """Raised when a bank registry file is malformed."""


@dataclass(frozen=True)
class BankEntity:
    bank_id: str
    canonical_name: str
    country: str
    name_patterns: tuple

    def matcher(self):
        """Compiled case-insensitive pattern matching any spelling variant.

        The canonical name is always included so exact mentions can never
        be missed, regardless of the configured variants. The pattern is
        compiled on the first call and kept by the entity.
        """
        return self._matcher

    @property
    def _alternatives(self):
        return list(self.name_patterns) + [re.escape(self.canonical_name)]

    @functools.cached_property
    def _matcher(self):
        joined = "|".join("(?:%s)" % a for a in self._alternatives)
        return re.compile(r"\b(?:%s)\b" % joined, re.IGNORECASE)

    @functools.cached_property
    def needles(self):
        """The lowercased text of every spelling variant and of the canonical
        name, or None unless each is a plain ASCII literal.

        In an ASCII text, ``matcher()`` can match only where the lowercased
        text contains one of these: under IGNORECASE an ASCII letter matches
        its other ASCII case, or non-ASCII letters (the long s, the Kelvin
        sign, the dotless i, ...) that an ASCII text cannot hold.
        """
        alts = self._alternatives
        if not all(a.isascii() and _LITERAL_RE.fullmatch(a) for a in alts):
            return None
        return tuple({_ESCAPE_RE.sub(r"\1", a).lower(): None for a in alts})


@dataclass(frozen=True)
class Article:
    article_id: str
    published_at: datetime
    body: str

    def __post_init__(self):
        if not self.body.strip():
            raise ValueError("article %r has an empty body" % self.article_id)


@dataclass(frozen=True)
class Sentence:
    sentence_id: str
    bank_id: str
    published_at: datetime
    tokens: tuple


@dataclass
class Vocabulary:
    token_to_index: dict
    index_to_token: list
    counts: dict
    min_count: int
    noise_power: float
    noise_probs: np.ndarray = field(repr=False)

    UNK = "<unk>"

    def __len__(self):
        return len(self.index_to_token)

    def lookup(self, token):
        """Index of ``token``, falling back to the <unk> slot."""
        idx = self.token_to_index.get(token)
        if idx is None:
            return self.token_to_index[self.UNK]
        return idx


def _string_list(value, what):
    """``value``, after raising ValueError naming ``what`` unless it is a JSON
    list of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError("%s must be a list of strings, got %r" % (what, value))
    return value


def _registry_entity(row):
    if not isinstance(row, dict):
        raise RegistryError("expected a JSON object, got %s" % type(row).__name__)
    for key in ("bank_id", "canonical_name", "country"):
        require_str(key, row[key])
    bank_id = row["bank_id"]
    patterns = tuple(_string_list(row["name_patterns"], "name_patterns"))
    if not patterns:
        raise RegistryError("bank %r has no name_patterns" % bank_id)
    if not row["canonical_name"]:
        # the matcher also looks for the canonical name
        raise RegistryError("bank %r: canonical_name is empty" % bank_id)
    for pat in patterns:
        try:
            re.compile(pat, re.IGNORECASE)
        except (re.error, OverflowError) as exc:
            raise RegistryError(
                "bank %r: pattern %r does not compile: %s" % (bank_id, pat, exc)
            ) from exc
        if _regex_parser.parse(pat, re.IGNORECASE).getwidth()[0] == 0:
            # a match of no characters, alone ("x?") or where a sentence
            # allows it ("\b", "(?=w)"), would tag sentences naming no bank
            raise RegistryError("bank %r: pattern %r matches the empty string, alone or "
                                "inside a sentence" % (bank_id, pat))
    entity = BankEntity(
        bank_id=bank_id,
        canonical_name=row["canonical_name"],
        country=row["country"],
        name_patterns=patterns,
    )
    try:
        entity.matcher()  # fail fast if the combined alternation is invalid
    except re.error as exc:
        raise RegistryError("bank %r: patterns do not combine: %s" % (bank_id, exc)) from exc
    return entity


def parse_json(text):
    """``json.loads(text)``; a value nested deeper than the decoder's recursion
    limit raises ValueError instead of RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON value nested too deeply") from None


def compile_registry(registry_file):
    """Load and validate a bank registry JSON file.

    Returns a ``Registry`` of the entities in file order, each with its
    matcher compiled. Raises RegistryError naming the file on text that is
    not UTF-8 or not JSON, and naming the file and the 1-based row on a row
    that is not an object, lacks a key, holds a value of the wrong type,
    repeats a bank_id, has a pattern that does not compile or that can
    match the empty string (its shortest match is empty), or has an empty
    canonical name.
    """
    with open(registry_file, "r", encoding="utf-8", errors="surrogateescape") as fh:
        raw = fh.read()
    try:
        rows = parse_json(_utf8(raw))
    except json.JSONDecodeError as exc:
        raise RegistryError(
            "malformed registry %s: line %d: %s" % (registry_file, exc.lineno, exc.msg)
        ) from exc
    except ValueError as exc:
        raise RegistryError("malformed registry %s: %s" % (registry_file, exc)) from None
    if not isinstance(rows, list):
        raise RegistryError("registry %s: expected a JSON list" % registry_file)

    entities = []
    seen = set()
    for row_no, row in enumerate(rows, 1):
        try:
            entity = _registry_entity(row)
            if entity.bank_id in seen:
                raise RegistryError("duplicate bank_id %r in registry" % entity.bank_id)
        except KeyError as exc:
            raise RegistryError(
                "%s: row %d: missing key %s" % (registry_file, row_no, exc)) from None
        except ValueError as exc:
            raise RegistryError("%s: row %d: %s" % (registry_file, row_no, exc)) from None
        seen.add(entity.bank_id)
        entities.append(entity)
    return Registry(entities)


def split_into_sentences(body):
    """Rule-based sentence splitting.

    A sentence ends at ``. ! ?`` followed by whitespace and an uppercase
    letter, except after a known abbreviation.
    """
    text = body.strip()
    sentences = []
    start = 0
    for boundary in _BOUNDARY_RE.finditer(text):
        chunk = text[start : boundary.start() + 1]
        # text is stripped, so a boundary never ends it
        if text[boundary.end()].isupper() and not chunk.endswith(ABBREVIATIONS):
            sentences.append(chunk)
            start = boundary.end()
    # the last sentence runs to the end; only an empty body has none
    return sentences + [text[start:]] if text else []


def tokenize(text):
    """Normalize to lowercase tokens; digit runs collapse to ``<num>``."""
    lowered = _DIGITS_RE.sub(" <num> ", text.lower())
    return _TOKEN_RE.findall(lowered)


class Registry(tuple):
    """Bank entities in file order, as ``compile_registry`` returns them, with
    the screen ``extract_sentences`` runs over them built on first use and
    kept: a tuple, so that screen cannot go stale."""

    @functools.cached_property
    def screen(self):
        """(entity, matcher) of each bank; (needle, bank index) of every
        needle, in one list, so a sentence costs one pass over it; and the
        indices of the banks without needles."""
        matchers = [(entity, entity.matcher()) for entity in self]
        pairs = [(needle, i) for i, entity in enumerate(self) for needle in entity.needles or ()]
        unscreened = {i for i, entity in enumerate(self) if entity.needles is None}
        return matchers, pairs, unscreened


def extract_sentences(article, registry):
    """Entity-bearing sentences of one article, duplicated per matched bank.

    ``registry`` is a ``Registry`` (``compile_registry``'s, or a synthetic
    dataset's), which keeps its screen across calls. A bank's matcher decides
    each match; on an ASCII sentence it runs only if the lowercased sentence
    holds one of the bank's ``needles``, or it has none.
    """
    if not registry:
        raise ValueError("registry must be non-empty")
    matchers, pairs, unscreened = registry.screen
    out = []
    for ordinal, raw in enumerate(split_into_sentences(article.body)):
        tokens = tuple(tokenize(raw))
        if not tokens:
            continue
        if raw.isascii():
            lowered = raw.lower()
            candidates = sorted({i for needle, i in pairs if needle in lowered} | unscreened)
        else:
            candidates = range(len(matchers))
        for i in candidates:
            entity, matcher = matchers[i]
            if matcher.search(raw):
                out.append(
                    Sentence(
                        sentence_id="%s:%d:%s" % (article.article_id, ordinal, entity.bank_id),
                        bank_id=entity.bank_id,
                        published_at=article.published_at,
                        tokens=tokens,
                    )
                )
    return out


def build_vocabulary(sentences, min_count=5):
    """Count tokens over a sentence stream and build the lookup tables.

    Tokens below ``min_count`` are dropped; their mass is pooled into the
    ``<unk>`` slot. The noise distribution is counts raised to
    ``NOISE_POWER``, normalized.
    """
    require_int("min_count", min_count, 1)
    counts = {}
    empty = True
    for sent in sentences:
        empty = False
        for tok in sent.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    if empty:
        raise ValueError("cannot build a vocabulary from an empty stream")

    kept = {t: c for t, c in counts.items() if c >= min_count}
    unk_count = sum(c for t, c in counts.items() if c < min_count)
    kept[Vocabulary.UNK] = kept.get(Vocabulary.UNK, 0) + unk_count

    # Frequent-first ordering, ties by token, so indices are reproducible.
    ordered = sorted(kept, key=lambda t: (-kept[t], t))
    token_to_index = {t: i for i, t in enumerate(ordered)}
    weights = np.array([float(kept[t]) ** NOISE_POWER if kept[t] else 0.0 for t in ordered])
    total = weights.sum()
    if total <= 0:
        raise ValueError("degenerate vocabulary: no token mass")
    return Vocabulary(
        token_to_index=token_to_index,
        index_to_token=ordered,
        counts=kept,
        min_count=min_count,
        noise_power=NOISE_POWER,
        noise_probs=weights / total,
    )


def _utf8(text):
    """``text``, read with errors="surrogateescape"; UnicodeDecodeError if it is not UTF-8."""
    return text if text.isascii() else text.encode("utf-8", "surrogateescape").decode("utf-8")


def _nonblank_lines(path):
    """(line number, stripped text) of each non-blank line of a text file, not yet UTF-8-checked."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.strip()
            if text:
                yield line_no, text


def count_rows(path):
    """The number of rows ``read_jsonl`` parses in ``path``: its non-blank lines."""
    return sum(1 for _ in _nonblank_lines(path))


def read_jsonl(path, parse, unique=None):
    """``parse(row)`` of every non-blank line of a JSON-lines file, in order.

    A line that is not a JSON object, or whose object ``parse`` rejects
    (a missing key, a value of the wrong type or form), raises ValueError
    naming path:line. So does a line that repeats an earlier line's value
    of the key ``unique``, when given.
    """
    out = []
    seen = set()
    for line_no, line in _nonblank_lines(path):
        try:
            row = parse_json(_utf8(line))
            if not isinstance(row, dict):
                raise ValueError("expected a JSON object, got %s" % type(row).__name__)
            out.append(parse(row))
            if unique is not None:
                if row[unique] in seen:
                    raise ValueError("duplicate %s %r" % (unique, row[unique]))
                seen.add(row[unique])
        except KeyError as exc:
            raise ValueError("%s:%d: missing key %s" % (path, line_no, exc)) from None
        except (ValueError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError("%s:%d: %s" % (path, line_no, exc)) from None
    return out


def _schubfach_tables():
    """By key, a double's biased exponent plus 2048 if its fraction is 0 (its lower neighbour
    is then closer): the decimal exponent k; the shift h + 2 taking the significand c to
    cp = 4c 2^h; g = g1 2^63 + g0 = floor(10^-k 2^(125 - r)) + 1, r = floor(log2 10^-k); and
    the 128-bit changes to g0 cp (low word complemented) and to g1 cp as cp moves to the
    rounding interval's ends, cp - 2^(h + 1 - irregular) and cp + 2^(h + 1)."""
    key = np.arange(4096)
    q, irregular = (key & 2047) - 1075, (key >> 11) & (key & 2047 > 1)
    k = np.clip((q * 661971961083 - irregular * 274743187321) >> 41, -324, 292)
    h = np.clip(q + (-k * 913124641741 >> 38) + 2, 2, 5)  # clipped only where no key is used
    g = [(10 ** e << 125 - r if r <= 125 else 10 ** e >> r - 125) if e >= 0 else (1 << 125 - r)
         // 10 ** -e for e, r in ((e, e * 913124641741 >> 38) for e in range(324, -293, -1))]
    g1, g0 = np.array([divmod(v + 1, 2 ** 63) for v in g], _U64)[k + 324].T.copy()
    shift = np.array([h + 1 - irregular, h + 1], _U64)
    changes = [(g << shift, g >> _U64(64) - shift) for g in (g0, g1)]
    for low, high in changes:  # the left end's are negative
        high[0], low[0] = ~high[0] + (low[0] == 0), -low[0]
    return (k, (h + 2).astype(_U64), g0, g1, ~changes[0][0], changes[0][1], *changes[1])


def _text_table(texts):
    """Each of ``texts``, at most 8 ASCII characters, NUL-padded into a uint64."""
    return np.frombuffer("".join(t.ljust(8, "\0") for t in texts).encode("ascii"), _U64)


_U64 = np.uint64
_gather = functools.partial(np.take, axis=-1, mode="clip")
_K, _SHIFT, _G0, _G1, _G0_LOW_NOT, _G0_HIGH, _G1_LOW, _G1_HIGH = _schubfach_tables()
# repr prints 0.D 10^d with an exponent where d <= -4 or d >= 17, after "0." and -d zeros
# where d <= 0, else with a point inside D. Each 4-digit group, a slot for a point after
# each digit, then without trailing zeros, for a group after which every digit is 0:
_GROUPS = _text_table("\0".join("%04d" % (i % 10000)).rstrip("0\0" * (i >= 10000))
                      for i in range(20000))
# by d 0..16, the 0s and the point that a point inside D puts in each group:
_FILL = np.stack([_text_table(["".join("0\0"[4 * j + i >= d] + ".\0"[4 * j + i + 2 != d]
                                       for i in range(4)) for d in range(17)]) for j in range(4)])
# by d in -4..17, whether D goes on after its lead, the lead and the sign: the text before D[1]
_LEAD = _text_table([(sign + ("0." + "0" * -d) * (-4 < d <= 0)).ljust(6, "\0") + str(lead)
                     + ".\0"[not (d == 1 or more and not -4 < d < 17)] for d in range(-4, 18)
                     for more in (0, 1) for lead in range(10) for sign in ("", "-")])
# by d -307..309, then again at a row's end: the exponent and the separator:
_EXPONENT = _text_table([("e%+03d" % (d - 1)) * (not -4 < d < 17) + end
                         for end in (", ", "\n") for d in range(-307, 310)])


def _product(table, key, b):
    """(high, low) words of each a b, a the key's entry of ``table``, from 32-bit halves."""
    (a_low, a_high), (b_low, b_high) = ((v & _U64(2 ** 32 - 1), v >> _U64(32))
                                        for v in (_gather(table, key), b))
    low, mid = a_low * b_low, a_low * b_high
    mid += a_high * b_low
    mid += low >> _U64(32)
    high = a_high * b_high
    high += mid >> _U64(32)
    return high, mid << _U64(32) | low & _U64(2 ** 32 - 1)


def _shortest(bits):
    """(f, k) for each positive normal double of ``bits``: f 10^k is the decimal of fewest
    digits that reads back as it, the nearest, and of two the one with even f (Schubfach)."""
    frac = bits & _U64(2 ** 52 - 1)
    key = (bits >> _U64(52) & _U64(2047) | (frac == 0) * _U64(2048)).astype(np.intp)
    cp = (frac | _U64(2 ** 52)) << _gather(_SHIFT, key)
    (x1, x0), (y1, y0) = _product(_G0, key, cp), _product(_G1, key, cp)
    # by row (left end, c, right end): u = 2 floor(g0 cp / 2^64); (v, w) = g1 cp + u; odd v if w > 1
    u = np.stack([x1, x1, x1])
    u[::2] += _gather(_G0_HIGH, key)
    u[::2] += x0 > _gather(_G0_LOW_NOT, key)
    u <<= _U64(1)
    del cp, x0, x1
    w, v = np.stack([y0, y0, y0]), np.stack([y1, y1, y1])
    w[::2] += _gather(_G1_LOW, key)
    v[::2] += _gather(_G1_HIGH, key)
    v += w < y0
    del y0, y1
    w += u
    v += w < u
    v |= w > _U64(1)
    del u, w
    (vbl, vb, vbr), odd = v, frac & _U64(1)  # an odd c leaves the interval's ends out
    low, high = vbl + odd, vbr - odd
    s = vb >> _U64(2)
    sp10 = s // _U64(10) * _U64(10)  # one digit fewer: s' 10 or (s' + 1) 10
    upin, wpin = low <= sp10 << _U64(2), (sp10 << _U64(2)) + _U64(40) <= high
    s4 = vb & ~_U64(3)
    # else s or s + 1: the one inside, or the nearer, or the even one
    up = (s4 + _U64(4) <= high) & ((low > s4) | ((vb & _U64(3)) + (s & _U64(1)) > _U64(2)))
    return np.where(upin | wpin, sp10 + wpin * _U64(10), s + up), _gather(_K, key)


def _layout(f, k, negative, last):
    """``repr``'s text of each f 10^k, negated where ``negative``, then ", " or, where ``last``,
    a newline, in 48 NUL-padded bytes: the text before D[1], D[1:] with its point, the rest."""
    big = f >= _U64(10 ** 16)
    d = k + 16 + big  # the 17 digits D below are 0.D 10^d
    lead, f = np.divmod(np.where(big, f, f * _U64(10)).view(np.int64), 10 ** 16)
    more = f != 0
    groups = np.stack(np.divmod(np.stack(np.divmod(f, 10 ** 8)), 10 ** 4), axis=1).reshape(4, -1)
    del big, k, f
    tail = True  # whether every later digit is 0: then the group's text drops trailing zeros
    for group in groups[::-1]:
        group += 10000 * tail
        tail = group == 10000
    digits = _gather(_GROUPS, groups)
    del groups, group, tail
    text = bytearray(48 * len(d))
    words = np.frombuffer(text, _U64).reshape(-1, 6).T
    words[1:5] = digits
    del digits
    inside = np.flatnonzero((d >= 1) & (d <= 16))
    words[1:5, inside] |= _FILL[:, d[inside]]
    words[0] = _gather(_LEAD, (((np.clip(d, -4, 17) + 4) * 2 + more) * 10 + lead) * 2 + negative)
    words[5] = _gather(_EXPONENT, d + 307 + last * 617)
    return text


def float_text(rows):
    """The JSON text of each float vector of the non-empty list ``rows``, as bytes, no brackets:
    ``", ".join(map(repr, row))`` for a finite row. Normal doubles are printed together, by
    integer arithmetic over whole arrays; a row with a zero, a subnormal, a NaN or an
    infinity is printed by ``repr`` alone."""
    lengths = [len(row) for row in rows]
    ends = np.cumsum(lengths)
    bits = np.concatenate(rows).astype(np.float64, copy=False).view(_U64)
    apart = np.searchsorted(ends, np.flatnonzero((bits >> _U64(52)) + _U64(1) & _U64(2047) <= 1),
                            "right")
    last = np.zeros(len(bits), bool)
    last[ends[ends > 0] - 1] = True
    pieces = iter(bytes(_layout(*_shortest(bits), (bits >> _U64(63)).view(np.int64), last))
                  .translate(None, b"\0").split(b"\n"))
    texts = [next(pieces) if n else b"" for n in lengths]
    for i in set(apart.tolist()):  # with JSON's NaN and Infinity
        texts[i] = ", ".join(map(float.__repr__, np.asarray(rows[i], float).tolist())).replace(
            "inf", "Infinity").replace("nan", "NaN").encode()
    return texts


@contextlib.contextmanager
def replacing(path, mode, **kwargs):
    """Open a new file beside ``path`` to write, as ``open(path, mode, **kwargs)`` would
    open ``path`` itself; when the block ends, the new file takes the name ``path``
    (``os.replace``), and on any exception, KeyboardInterrupt included, it is removed.
    So ``path`` holds the whole output or what it held before, never a part of one.
    The umask sets the new file's mode, as it does for ``open``."""
    temporary = "%s.%s.tmp" % (path, os.urandom(4).hex())
    try:
        with open(temporary, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


def write_jsonl(rows, path):
    """Write each row of ``rows`` as one line of JSON with sorted keys, the format
    ``read_jsonl`` reads, one row at a time: a generator of rows is never held whole."""
    with replacing(path, "wb") as fh:
        for row in rows:
            fh.write((json.dumps(row, sort_keys=True) + "\n").encode("utf-8"))


def vector_texts(vectors):
    """``float_text``'s text of each float vector of ``vectors``, in order, printed
    about FLOAT_CHUNK floats (one vector at least) at a time."""
    vectors = iter(vectors)
    for first in vectors:
        chunk = [first, *itertools.islice(vectors, FLOAT_CHUNK // (len(first) + 1))]
        yield from float_text(chunk)


def write_vector_jsonl(rows, texts, path, key):
    """Write each row of ``rows`` as ``write_jsonl`` writes it with one more key, ``key``:
    the float vector whose JSON text without brackets is the bytes of ``texts`` at its
    place, as ``vector_texts`` prints them. Rows and texts are paired strictly: a text too
    few or too many raises ValueError. json's ASCII holds ``"<key>": null`` unescaped only
    for the key. Returns the sha256 digest of the bytes written and each vector's (offset,
    length) in bytes, brackets included, an (n, 2) int64 array."""
    spans, offset, digest, null = array.array("q"), 0, hashlib.sha256(), '"%s": null' % key
    with replacing(path, "wb") as fh:
        for row, text in zip(rows, texts, strict=True):
            head, tail = json.dumps({**row, key: None}, sort_keys=True).split(null)
            head = ('%s"%s": [' % (head, key)).encode()
            spans.extend((offset + len(head) - 1, len(text) + 2))
            data = b"%s%s]%s\n" % (head, text, tail.encode())
            offset += fh.write(data)
            digest.update(data)
    return digest.digest(), np.frombuffer(spans, np.int64).reshape(-1, 2)


def write_json(value, path):
    """Write ``value`` as one JSON document with sorted keys, indented by 2."""
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_entry(value):
    """``value`` as JSON text in a uint8 array, an .npz entry (a header, ids)."""
    return np.frombuffer(json.dumps(value, sort_keys=True).encode("utf-8"), dtype=np.uint8)


def write_npz(path, arrays):
    """Write to ``path`` (an .npz name) the bytes ``np.savez(path, **arrays)``
    writes for C-contiguous arrays, without its staging copy: ``np.savez``
    copies each array with ``tobytes`` because a zip entry is not a real file,
    while a memoryview of the array goes into the entry as it is. An entry
    given as (matrix, rows) is ``matrix[rows]``, gathered NPZ_ROW_CHUNK rows at
    a time."""
    with replacing(path, "wb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as zf:
        for name, arr in arrays.items():
            matrix, rows = arr if isinstance(arr, tuple) else (np.ascontiguousarray(arr), None)
            shape = matrix.shape if rows is None else (len(rows),) + matrix.shape[1:]
            with zf.open(name + ".npy", "w", force_zip64=True) as fid:
                npy_format.write_array_header_1_0(fid, {
                    "descr": npy_format.dtype_to_descr(matrix.dtype), "fortran_order": False,
                    "shape": shape})
                for lo in range(0, len(rows), NPZ_ROW_CHUNK) if rows is not None else [None]:
                    fid.write(memoryview(matrix if lo is None else  # one gathered chunk at a time
                                         matrix[rows[lo:lo + NPZ_ROW_CHUNK]]).cast("B"))


def twin_path(path):
    """Where the binary twin of the JSON-lines file ``path`` lies."""
    return os.fspath(path) + ".twin.npz"


def file_sha256(path):
    """The sha256 digest of the file ``path``, read 64 KiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 16), b""):
            digest.update(block)
    return digest.digest()


def write_twin(path, sha256, columns):
    """Write the twin of the file ``path``, just written: ``sha256``, the
    digest of the bytes written, taken as they were written, and ``columns``,
    name -> a list of strings, an array or a ``write_npz`` pair."""
    entries = {"sha256": np.frombuffer(sha256, dtype=np.uint8)}
    entries.update((name, json_entry(column) if isinstance(column, list) else column)
                   for name, column in columns.items())
    write_npz(twin_path(path), entries)


def all_finite(matrix):
    """Whether ``matrix`` holds no NaN or infinite entry, with no temporary of its size."""
    return -np.inf < matrix.min(initial=0.0) and matrix.max(initial=0.0) < np.inf


def read_twin(path, columns):
    """The columns ``columns`` names of the twin of the file ``path``, or None
    if that twin is missing, does not load, holds another digest than the
    sha256 of ``path`` or holds a column in another form: ``str`` (a list of
    strings) or (dtype, shape), None in a shape being any length, with no NaN
    or infinity in a float column. The columns have one length; only the
    named entries are read."""
    try:  # a twin only mirrors its file, so one that does not load is not taken
        with np.load(twin_path(path), allow_pickle=False) as data:
            if data["sha256"].tobytes() != file_sha256(path):
                return None
            twin = {name: parse_json(data[name].tobytes().decode("utf-8")) if form is str
                    else data[name] for name, form in columns.items()}
    except Exception:
        return None
    for name, form in columns.items():
        value = twin[name]
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value) if form is str
                else value.dtype == form[0] and value.ndim == len(form[1]) and all(
                    want in (None, got) for want, got in zip(form[1], value.shape))
                and (value.dtype.kind != "f" or all_finite(value))):
            return None
    return twin if len({len(value) for value in twin.values()}) <= 1 else None


class VectorRows:
    """A float matrix of ``n_rows`` rows, filled in order from JSON lists.

    ``check(values)`` raises ValueError naming the column ``name`` for a
    value that is not a list, an entry that is not an int or a float (a bool,
    string, null or list), an entry that is NaN or infinite, or a length
    other than ``width``; without a ``width``, the first row checked sets it.
    It returns the values as a new float vector. ``add(values)`` checks them,
    writes them into the next row of ``matrix`` and returns that row, a view.
    """

    def __init__(self, name, n_rows=0, width=None):
        self.name = name
        self.n_rows = n_rows
        self.width = width
        self.width_given = width is not None
        self.matrix = None
        self.filled = 0

    def check(self, values):
        if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
            raise ValueError("%s must be a list of numbers" % self.name)
        vec = np.array(values, dtype=float)
        if not np.isfinite(vec).all():
            raise ValueError("%s holds a NaN or infinite entry" % self.name)
        if self.width is None:
            self.width = len(vec)
        elif len(vec) != self.width:
            if self.width_given:
                raise ValueError("%s has %d entries, expected %d"
                                 % (self.name, len(vec), self.width))
            raise ValueError("%s has %d entries where the first row has %d"
                             % (self.name, len(vec), self.width))
        return vec

    def add(self, values):
        vec = self.check(values)
        if self.matrix is None:
            self.matrix = np.empty((self.n_rows, self.width))
        row = self.matrix[self.filled]
        row[:] = vec
        self.filled += 1
        return row


def require_int(name, value, minimum):
    """Raise ValueError naming ``name`` unless ``value`` is an int (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < minimum:
        raise ValueError("%s must be >= %d, got %d" % (name, minimum, value))


def require_float(name, value):
    """``value`` as a float, after raising ValueError naming ``name`` unless
    it is a number (not a bool); an integer too large for a float is infinite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be a number, got %r" % (name, value))
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def require_str(name, value):
    """``value``, after raising ValueError naming ``name`` unless it is a string."""
    if not isinstance(value, str):
        raise ValueError("%s must be a string, got %r" % (name, value))
    return value


def read_articles(path):
    """Read a JSON-lines article file; each ``article_id`` is a distinct string."""
    return read_jsonl(path, lambda row: Article(
        article_id=require_str("article_id", row["article_id"]),
        published_at=datetime.fromisoformat(row["published_at"]),
        body=row["body"],
    ), unique="article_id")


def write_sentences(sentences, path):
    write_jsonl(({"sentence_id": s.sentence_id, "bank_id": s.bank_id,
                  "published_at": s.published_at.isoformat(), "tokens": list(s.tokens)}
                 for s in sentences), path)


def read_sentences(path):
    """Read a JSON-lines sentence file; each ``sentence_id`` is a distinct string.

    Every sentence's tokens share one string object per distinct token, so a
    corpus over a small vocabulary holds each word once, not once per use.
    """
    memo = {}
    return read_jsonl(path, lambda row: Sentence(
        sentence_id=require_str("sentence_id", row["sentence_id"]),
        bank_id=require_str("bank_id", row["bank_id"]),
        published_at=datetime.fromisoformat(row["published_at"]),
        tokens=tuple([memo.setdefault(t, t) for t in _string_list(row["tokens"], "tokens")]),
    ), unique="sentence_id")
