"""Registry, sentence splitting, tokenization and vocabulary tests."""

import functools
import json
import re
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bankdistress import corpus, experiment, neural, pvdm, synth
from bankdistress.corpus import (
    Article,
    BankEntity,
    RegistryError,
    Sentence,
    Vocabulary,
    build_vocabulary,
    compile_registry,
    extract_sentences,
    split_into_sentences,
    tokenize,
)

TS = datetime(2010, 6, 15, 12, 0, 0, tzinfo=timezone.utc)


def make_sentence(sid, tokens, bank_id="bank0", when=TS):
    return Sentence(sentence_id=sid, bank_id=bank_id, published_at=when, tokens=tuple(tokens))


# ---------------------------------------------------------------------------
# Sentence splitting


def test_split_basic():
    body = "Nordia Bank posted a profit. Shares rose sharply. Analysts cheered."
    assert split_into_sentences(body) == [
        "Nordia Bank posted a profit.",
        "Shares rose sharply.",
        "Analysts cheered.",
    ]


def test_split_respects_abbreviations():
    body = "Mr. Smith of Helvek Inc. said so. The bank agreed."
    parts = split_into_sentences(body)
    assert parts == ["Mr. Smith of Helvek Inc. said so.", "The bank agreed."]


def test_split_question_and_exclamation():
    parts = split_into_sentences("Will it default? Markets fear so! Calm returned.")
    assert parts == ["Will it default?", "Markets fear so!", "Calm returned."]


def test_split_keeps_unterminated_tail():
    parts = split_into_sentences("First sentence. trailing fragment without a stop")
    # lowercase after the period, so no split; the whole text is one chunk
    assert parts == ["First sentence. trailing fragment without a stop"]


def test_split_empty_body():
    assert split_into_sentences("   ") == []


def reference_split_into_sentences(body):
    """The character-by-character splitter: the oracle of split_into_sentences."""
    text = body.strip()
    sentences = []
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in ".!?":
            j = i + 1
            while j < len(text) and text[j].isspace():
                j += 1
            if j > i + 1 and j < len(text) and text[j].isupper():
                chunk = text[start : i + 1]
                if not any(chunk.endswith(abbr) for abbr in corpus.ABBREVIATIONS):
                    sentences.append(chunk.strip())
                    start = j
                    i = j
                    continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# Pieces that reach each branch of the splitter: terminators and runs of
# them, Unicode whitespace (\x1c-\x1f are str.isspace), upper, lower and
# title-case letters (\u01c5 is not isupper) and each abbreviation.
SPLIT_PIECES = (".", "!", "?", "...", "?!", " ", "  ", "\n", "\t", "\x1c", "\x1f", "\x85",
                "\xa0", "\u2003", "\u3000", "A", "Z", "\xc9", "\u0394", "\u01c4", "\u01c5",
                "a", "z", "\xdf", "1", ",", "word", "Bank") + corpus.ABBREVIATIONS


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(SPLIT_PIECES), max_size=30).map("".join),
                 st.text(max_size=40)))
@example("")
@example(" \x1c\u3000 ")
@example("Mr. Smith. St. Jude... Inc. Ltd. Mr.")
@example("One.\x1cTwo!\u2003Three? \u01c5ero. \u01c4ight.")
def test_split_matches_the_character_loop(body):
    assert split_into_sentences(body) == reference_split_into_sentences(body)


# ---------------------------------------------------------------------------
# Tokenization


def test_tokenize_lowercase_and_digits():
    assert tokenize("Profit rose 12 percent in 2010") == [
        "profit", "rose", "<num>", "percent", "in", "<num>",
    ]


def test_tokenize_strips_punctuation():
    assert tokenize("losses, losses; losses!") == ["losses", "losses", "losses"]


def test_tokenize_splits_embedded_digits():
    assert tokenize("Q3 results") == ["q", "<num>", "results"]


# ---------------------------------------------------------------------------
# Entities and extraction


def test_matcher_case_insensitive_word_boundaries():
    entity = BankEntity(
        bank_id="nordia", canonical_name="Nordia Bank", country="DE",
        name_patterns=("Nordia",),
    )
    m = entity.matcher()
    assert m.search("NORDIA BANK tumbled")
    assert m.search("shares of nordia fell")
    assert not m.search("the Nordian economy")


def test_matcher_always_includes_canonical_name():
    entity = BankEntity(
        bank_id="x", canonical_name="Helvek Bank", country="FR",
        name_patterns=("HVK",),
    )
    m = entity.matcher()
    assert m.search("Helvek Bank said")
    assert m.search("HVK said")


def test_extract_sentences_per_matched_bank():
    registry = corpus.Registry([
        BankEntity("a", "Nordia Bank", "DE", ("Nordia Bank",)),
        BankEntity("b", "Helvek Bank", "FR", ("Helvek Bank",)),
    ])
    article = Article(
        article_id="art1",
        published_at=TS,
        body="Nordia Bank and Helvek Bank merged. Unrelated news followed. "
             "Nordia Bank rallied.",
    )
    out = extract_sentences(article, registry)
    ids = [(s.sentence_id, s.bank_id) for s in out]
    assert ("art1:0:a", "a") in ids
    assert ("art1:0:b", "b") in ids
    assert ("art1:2:a", "a") in ids
    assert len(out) == 3
    assert all(s.published_at == TS for s in out)


def reference_extract_sentences(article, registry):
    """The per-bank loop: every bank's matcher searches every sentence."""
    out = []
    for ordinal, raw in enumerate(split_into_sentences(article.body)):
        tokens = tuple(tokenize(raw))
        if not tokens:
            continue
        for entity in registry:
            if entity.matcher().search(raw):
                out.append(Sentence("%s:%d:%s" % (article.article_id, ordinal, entity.bank_id),
                                    entity.bank_id, article.published_at, tokens))
    return out


NAMES = ("Ibis", "Sun Bank", "AB-C Kask")
# non-ASCII letters that IGNORECASE matches to an ASCII letter
LOOKALIKES = {"s": "\u017f", "k": "\u212a", "K": "\u212a", "i": "\u0131", "I": "\u0130"}


def lookalike(name):
    """``name`` with its first letter that has a lookalike replaced by it."""
    i = next(i for i, ch in enumerate(name) if ch in LOOKALIKES)
    return name[:i] + LOOKALIKES[name[i]] + name[i + 1:]


VARIANTS = [variant for name in NAMES for variant in (
    name, name.upper(), re.escape(name),  # literal, escaped
    name + "?", "(?:%s)" % name, name[:-1] + ".", name.replace(" ", r"\s"),
    r"\b" + name,  # regex
    name + "\u00e9", lookalike(name))]  # non-ASCII
# each name in another case, as a lookalike, or glued to a word or non-ASCII
# character, and words that name no bank
WORDS = [word for name in NAMES for word in (
    name, name.lower(), name.swapcase(), lookalike(name), lookalike(name.swapcase()),
    "_" + name, name + "x", name + "1", "\u00e9" + name)] + [
    "rose", "fell", "the", "-", "Bank", "\u00e9t\u00e9"]
SENTENCES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(
    lambda words: " ".join(words) + ".")


@st.composite
def registries(draw):
    n_banks = draw(st.integers(min_value=1, max_value=2))
    return [BankEntity("b%d" % i, draw(st.sampled_from(NAMES + ("Caf\u00e9 Bank",))), "DE",
                       tuple(draw(st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=2))))
            for i in range(n_banks)]


@settings(max_examples=500, deadline=None)
@given(registry=registries(), sentences=st.lists(SENTENCES, min_size=1, max_size=2))
@example(registry=[BankEntity("b0", "Sun Bank", "DE", ("Ibis",))], sentences=["\u0130bis fell."])
@example(registry=[BankEntity("b0", "Ibis", "DE", ("Kask",))], sentences=["\u212aas\u017f rose."])
def test_extract_sentences_matches_the_per_bank_loop(registry, sentences):
    article = Article("art", TS, " ".join(sentences))
    assert extract_sentences(article, corpus.Registry(registry)) == reference_extract_sentences(
        article, registry)


@settings(max_examples=200, deadline=None)
@given(registry_lists=st.lists(registries(), min_size=2, max_size=3),
       sentences=st.lists(SENTENCES, min_size=1, max_size=2))
def test_each_registry_is_screened_as_it_stands_at_the_call(registry_lists, sentences):
    # several registries in one process, each a Registry, which keeps its
    # screen across calls: no call is screened with another's
    article = Article("art", TS, " ".join(sentences))
    kept = [corpus.Registry(entities) for entities in registry_lists]
    for _ in range(2):
        for registry, entities in zip(kept, registry_lists):
            assert extract_sentences(article, registry) == reference_extract_sentences(
                article, entities)


def test_a_compiled_registry_is_screened_once_across_articles(monkeypatch):
    import bankdistress

    registry = compile_registry(bankdistress.__path__[0] + "/data/registry_sample.json")
    assert isinstance(registry, corpus.Registry)
    screened = []
    matcher = BankEntity.matcher
    monkeypatch.setattr(BankEntity, "matcher",
                        lambda entity: screened.append(entity.bank_id) or matcher(entity))
    for i in range(3):
        article = Article("art%d" % i, TS, "Shares of Aareal Bank fell. Markets were calm.")
        assert [s.bank_id for s in extract_sentences(article, registry)] == ["aareal_bank"]
    assert screened == [entity.bank_id for entity in registry]


@pytest.mark.parametrize("patterns,canonical,needles", [
    (("Nordia",), "Nordia Bank", ("nordia", "nordia bank")),
    ((r"ABN\ Amro", r"ABN\-Amro"), "ABN Amro", ("abn amro", "abn-amro")),
    (("B&B's", r"\#1"), "B&B's", ("b&b's", "#1")),
    (("Nordia",), "Caf\u00e9 Bank", None),
    (("Nordi.",), "Nordia Bank", None),
    (("Nordias?",), "Nordia Bank", None),
    ((r"Nordia\b",), "Nordia Bank", None),
    (("Ka\u017f",), "Kas Bank", None),
], ids=["literal", "escaped", "punctuation", "non-ascii-canonical", "dot", "optional",
        "word-boundary", "lookalike"])
def test_needles_are_the_lowercased_names_of_a_literal_registry_row(patterns, canonical,
                                                                     needles):
    assert BankEntity("x", canonical, "DE", patterns).needles == needles


def test_an_ascii_sentence_naming_one_bank_runs_one_search(monkeypatch):
    import bankdistress

    registry = compile_registry(bankdistress.__path__[0] + "/data/registry_sample.json")
    assert len(registry) == 62 and all(e.needles is not None for e in registry)
    searched = []
    matcher = BankEntity.matcher

    class Counted:
        def __init__(self, entity):
            self.entity, self.pattern = entity, matcher(entity)

        def search(self, text):
            searched.append(self.entity.bank_id)
            return self.pattern.search(text)

    monkeypatch.setattr(BankEntity, "matcher", lambda entity: Counted(entity))
    article = Article("art", TS, "Shares of Aareal Bank fell sharply. Markets were calm.")
    assert [s.bank_id for s in extract_sentences(article, registry)] == ["aareal_bank"]
    assert searched == ["aareal_bank"]


def test_extract_sentences_requires_registry():
    article = Article("a", TS, "Some text.")
    with pytest.raises(ValueError):
        extract_sentences(article, corpus.Registry([]))


def test_article_rejects_empty_body():
    with pytest.raises(ValueError):
        Article("a", TS, "   ")


# ---------------------------------------------------------------------------
# Vocabulary


def test_vocabulary_min_count_pools_into_unk():
    sents = [
        make_sentence("s1", ["bank"] * 5 + ["rare"]),
        make_sentence("s2", ["bank"] * 5 + ["seldom", "seldom"]),
    ]
    vocab = build_vocabulary(sents, min_count=5)
    assert vocab.counts["bank"] == 10
    assert "rare" not in vocab.token_to_index
    assert vocab.counts[Vocabulary.UNK] == 3
    assert vocab.lookup("rare") == vocab.token_to_index[Vocabulary.UNK]


def test_vocabulary_ordering_and_noise():
    sents = [make_sentence("s1", ["a"] * 4 + ["b"] * 2 + ["c"] * 2)]
    vocab = build_vocabulary(sents, min_count=1)
    # frequent first, ties alphabetical; zero-count <unk> slot goes last
    assert vocab.index_to_token == ["a", "b", "c", Vocabulary.UNK]
    expected = np.array([4.0, 2.0, 2.0, 0.0]) ** 0.75
    expected[3] = 0.0
    expected /= expected.sum()
    np.testing.assert_allclose(vocab.noise_probs, expected)
    assert abs(vocab.noise_probs.sum() - 1.0) < 1e-12


def test_vocabulary_rejects_empty_stream():
    with pytest.raises(ValueError):
        build_vocabulary([], min_count=1)
    with pytest.raises(ValueError):
        build_vocabulary([make_sentence("s", ["x"])], min_count=0)


# ---------------------------------------------------------------------------
# Registry file handling


def test_matchers_compile_once_per_entity(monkeypatch):
    registry = corpus.Registry([
        BankEntity("a", "Nordia Bank", "DE", ("Nordia",)),
        BankEntity("b", "Helvek Bank", "FR", ("HVK",)),
    ])
    first = [e.matcher() for e in registry]
    compiled = []
    real_compile = re.compile
    monkeypatch.setattr(re, "compile", lambda *a, **k: compiled.append(a) or real_compile(*a, **k))
    for i in range(3):
        article = Article("art%d" % i, TS, "Nordia fell. HVK rose. Nobody else.")
        assert [s.bank_id for s in extract_sentences(article, registry)] == ["a", "b"]
    assert compiled == []
    assert [e.matcher() for e in registry] == first
    # the cached pattern takes no part in equality or hashing
    twin = BankEntity("a", "Nordia Bank", "DE", ("Nordia",))
    assert twin == registry[0] and hash(twin) == hash(registry[0])


def write_registry(path, rows):
    path.write_text(json.dumps(rows), encoding="utf-8")
    return str(path)


def test_compile_registry_ok(tmp_path):
    path = write_registry(
        tmp_path / "reg.json",
        [
            {"bank_id": "a", "canonical_name": "Alpha Bank", "country": "DE",
             "name_patterns": ["Alpha"]},
            {"bank_id": "b", "canonical_name": "Beta Bank", "country": "FR",
             "name_patterns": ["Beta", "BB"]},
        ],
    )
    entities = compile_registry(path)
    assert [e.bank_id for e in entities] == ["a", "b"]
    assert entities[1].name_patterns == ("Beta", "BB")


def test_compile_registry_duplicate_id(tmp_path):
    path = write_registry(
        tmp_path / "reg.json",
        [
            {"bank_id": "a", "canonical_name": "Alpha", "country": "DE",
             "name_patterns": ["Alpha"]},
            {"bank_id": "a", "canonical_name": "Alias", "country": "DE",
             "name_patterns": ["Alias"]},
        ],
    )
    with pytest.raises(RegistryError, match="duplicate"):
        compile_registry(path)


def test_compile_registry_bad_pattern(tmp_path):
    path = write_registry(
        tmp_path / "reg.json",
        [{"bank_id": "a", "canonical_name": "Alpha", "country": "DE",
          "name_patterns": ["(unclosed"]}],
    )
    with pytest.raises(RegistryError, match="does not compile"):
        compile_registry(path)


VALID_ROW = {"bank_id": "a", "canonical_name": "Alpha Bank", "country": "DE",
             "name_patterns": ["Alpha"]}


@pytest.mark.parametrize("bad_row,fragment", [
    ([1], "expected a JSON object, got list"),
    ("Beta", "expected a JSON object, got str"),
    ({"canonical_name": "Beta", "country": "FR", "name_patterns": ["Beta"]},
     "missing key 'bank_id'"),
    (dict(VALID_ROW, bank_id=7), "bank_id must be a string"),
    (dict(VALID_ROW, bank_id="b", name_patterns="Beta"),
     "name_patterns must be a list of strings"),
    (dict(VALID_ROW, bank_id="b", name_patterns=["Beta", 2]),
     "name_patterns must be a list of strings"),
    (dict(VALID_ROW, bank_id="b", name_patterns=["a", "(?i)b"]), "patterns do not combine"),
    (dict(VALID_ROW, name_patterns=["Alias"]), "duplicate bank_id 'a'"),
    (dict(VALID_ROW, bank_id="b", name_patterns=[""]),
     "bank 'b': pattern '' matches the empty string"),
    (dict(VALID_ROW, bank_id="b", name_patterns=["Beta", "x?"]),
     "bank 'b': pattern 'x?' matches the empty string"),
    # no match of the whole empty string, but empty matches inside a sentence
    (dict(VALID_ROW, bank_id="b", name_patterns=["\\b"]),
     "bank 'b': pattern '\\\\b' matches the empty string, alone or inside a sentence"),
    (dict(VALID_ROW, bank_id="b", name_patterns=["Beta", "(?=w)"]),
     "bank 'b': pattern '(?=w)' matches the empty string, alone or inside a sentence"),
    (dict(VALID_ROW, bank_id="b", canonical_name=""), "bank 'b': canonical_name is empty"),
    (dict(VALID_ROW, bank_id="b", name_patterns=["a{4294967296}"]),
     "bank 'b': pattern 'a{4294967296}' does not compile"),
], ids=["list", "string", "missing-key", "int-id", "string-patterns", "int-pattern",
        "uncombinable", "duplicate", "empty-pattern", "optional-pattern", "word-boundary",
        "lookahead", "empty-canonical",
        "huge-repeat"])
def test_compile_registry_names_file_and_row(tmp_path, bad_row, fragment):
    path = write_registry(tmp_path / "reg.json", [VALID_ROW, bad_row])
    with pytest.raises(RegistryError) as info:
        compile_registry(path)
    assert str(info.value).startswith("%s: row 2: " % path)
    assert fragment in str(info.value)


def test_compile_registry_malformed_json_reports_line(tmp_path):
    path = tmp_path / "reg.json"
    path.write_text('[\n{"bank_id": "a",]\n', encoding="utf-8")
    with pytest.raises(RegistryError, match="line 2"):
        compile_registry(str(path))


def test_compile_registry_requires_list(tmp_path):
    path = tmp_path / "reg.json"
    path.write_text('{"bank_id": "a"}', encoding="utf-8")
    with pytest.raises(RegistryError, match="JSON list"):
        compile_registry(str(path))


def test_packaged_registry_compiles():
    import bankdistress

    path = bankdistress.__path__[0] + "/data/registry_sample.json"
    entities = compile_registry(path)
    assert len(entities) == 62
    assert len({e.bank_id for e in entities}) == 62
    assert all(e.name_patterns for e in entities)


# ---------------------------------------------------------------------------
# File round trips


def test_article_and_sentence_round_trip(tmp_path):
    articles = [
        Article("a1", TS, "Nordia Bank gained. More text."),
        Article("a2", datetime(2011, 2, 3, 9, 30, tzinfo=timezone.utc), "Helvek Bank slid."),
    ]
    apath = tmp_path / "articles.jsonl"
    with open(apath, "w", encoding="utf-8") as fh:
        for a in articles:
            fh.write(json.dumps({
                "article_id": a.article_id,
                "published_at": a.published_at.isoformat(),
                "body": a.body,
            }))
            fh.write("\n")
    assert corpus.read_articles(str(apath)) == articles

    sents = [
        make_sentence("a1:0:x", ["nordia", "bank", "gained"], bank_id="x"),
        make_sentence("a2:0:y", ["helvek", "bank", "slid"], bank_id="y"),
    ]
    spath = tmp_path / "sentences.jsonl"
    corpus.write_sentences(sents, str(spath))
    assert corpus.read_sentences(str(spath)) == sents


def test_write_jsonl_and_write_json_write_the_one_format(tmp_path):
    rows = [{"z": 1, "a": [0.1, 1e-300]}, {"b": "é", "a": None}]
    path = tmp_path / "rows.jsonl"
    corpus.write_jsonl((row for row in rows), str(path))
    assert path.read_bytes() == b'{"a": [0.1, 1e-300], "z": 1}\n{"a": null, "b": "\\u00e9"}\n'
    assert corpus.read_jsonl(str(path), lambda row: row) == rows

    value = {"b": [1, 2], "a": {"d": 1.5, "c": "x"}}
    path = tmp_path / "doc.json"
    corpus.write_json(value, str(path))
    assert path.read_text(encoding="utf-8") == json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert path.read_text(encoding="utf-8").startswith('{\n  "a": {\n    "c": "x",')


@pytest.mark.parametrize("tokens", ["bank fell", ["bank", 3], {"bank": 1}, None])
def test_read_sentences_rejects_tokens_that_are_not_a_list_of_strings(tmp_path, tokens):
    path = tmp_path / "sentences.jsonl"
    good = {"sentence_id": "a:0:x", "bank_id": "x", "published_at": TS.isoformat(),
            "tokens": ["bank", "fell"]}
    lines = [json.dumps(good), json.dumps(dict(good, tokens=tokens))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = "^%s:2: tokens must be a list of strings" % re.escape(str(path))
    with pytest.raises(ValueError, match=expected):
        corpus.read_sentences(str(path))



# every integer lower bound of a config, and build_vocabulary's min_count,
# at one below the bound: (call, keyword arguments, message)
LOWER_BOUNDS = [
    (pvdm.PvdmConfig, {"vector_dim": 0}, "vector_dim must be >= 1, got 0"),
    (pvdm.PvdmConfig, {"window_n": 0}, "window_n must be >= 1, got 0"),
    (pvdm.PvdmConfig, {"negative_samples": 0}, "negative_samples must be >= 1, got 0"),
    (pvdm.PvdmConfig, {"epochs": -1}, "epochs must be >= 0, got -1"),
    (pvdm.PvdmConfig, {"seed": -1}, "seed must be >= 0, got -1"),
    (pvdm.PvdmConfig, {"min_count": 0}, "min_count must be >= 1, got 0"),
    (neural.MlpConfig, {"input_dim": 0}, "input_dim must be >= 1, got 0"),
    (neural.MlpConfig, {"input_dim": 4, "hidden_layers": (3, 0)},
     "hidden_layers entry must be >= 1, got 0"),
    (neural.MlpConfig, {"input_dim": 4, "epochs": -1}, "epochs must be >= 0, got -1"),
    (neural.MlpConfig, {"input_dim": 4, "batch_size": 0}, "batch_size must be >= 1, got 0"),
    (neural.MlpConfig, {"input_dim": 4, "seed": -1}, "seed must be >= 0, got -1"),
    (experiment.ExperimentConfig, {"runs": 0}, "runs must be >= 1, got 0"),
    (experiment.ExperimentConfig, {"master_seed": -1}, "master_seed must be >= 0, got -1"),
    (synth.SynthConfig, {"n_banks": 0}, "n_banks must be >= 1, got 0"),
    (synth.SynthConfig, {"seed": -1}, "seed must be >= 0, got -1"),
    (synth.SynthConfig, {"sentences_per_bank_quarter": (0, 4)},
     "sentences_per_bank_quarter minimum must be >= 1, got 0"),
    (synth.SynthConfig, {"sentences_per_bank_quarter": (5, 4)},
     "sentences_per_bank_quarter maximum must be >= 5, got 4"),
    (functools.partial(build_vocabulary, [make_sentence("s", ["x"])]), {"min_count": 0},
     "min_count must be >= 1, got 0"),
]


@pytest.mark.parametrize("make,kwargs,message", LOWER_BOUNDS, ids=[
    "%s-%s" % (getattr(make, "__name__", "build_vocabulary"), "-".join(kwargs))
    for make, kwargs, _ in LOWER_BOUNDS])
def test_each_integer_lower_bound_names_the_field_its_bound_and_the_value(make, kwargs, message):
    with pytest.raises(ValueError) as info:
        make(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("field,value", [("n_banks", 2.5), ("seed", True),
                                         ("sentences_per_bank_quarter", (1.0, 4))])
def test_synth_config_rejects_non_integer_fields(field, value):
    with pytest.raises(ValueError, match="must be an integer, got"):
        synth.SynthConfig(**{field: value})
