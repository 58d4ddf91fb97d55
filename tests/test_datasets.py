"""Corpus persistence, filtering, subsetting, statistics, importers."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcqa_distill.core import STRATEGIES, McqaInstance, Provenance, canonical_choice, shuffled
from mcqa_distill.datasets import (
    Corpus,
    CorpusMeta,
    MalformedLine,
    SchemaError,
    compute_stats,
    cumulative_subsets,
    filter_by_tokens,
    import_benchmark,
    instance_to_record,
    read_jsonl,
    simple_token_count,
    write_jsonl,
)
from mcqa_distill.generation import GenerationReport

from conftest import NESTED_TOO_DEEPLY, make_instance


# Any text but lone surrogates, which UTF-8 cannot encode.
texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
teacher_scores = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def instances(draw, instance_id):
    choices = draw(
        st.lists(texts.filter(str.strip), min_size=2, max_size=6, unique_by=canonical_choice)
    )
    scores = st.lists(teacher_scores, min_size=len(choices), max_size=len(choices))
    return McqaInstance(
        id=instance_id,
        topic=draw(texts),
        question=draw(texts.filter(str.strip)),
        choices=choices,
        answer_index=draw(st.integers(0, len(choices) - 1)),
        teacher_scores=draw(st.none() | scores),
        provenance=Provenance(
            draw(st.sampled_from(STRATEGIES)),
            draw(st.floats(min_value=-0.0, allow_infinity=False)),
            draw(st.integers(min_value=0)),
        ),
    )


@st.composite
def corpora(draw):
    ids = draw(st.lists(texts, max_size=5, unique=True))
    meta = CorpusMeta(draw(texts), draw(texts), draw(texts))
    return Corpus(tuple(draw(instances(i)) for i in ids), meta)


def corpus_of(*instances, meta=None):
    return Corpus(tuple(instances), meta or CorpusMeta())


def sized_corpus(n, **kwargs):
    return corpus_of(
        *(make_instance(f"i{k:04d}", question=f"question number {k}?", **kwargs) for k in range(n))
    )


class TestTokenCounter:
    def test_words_and_punctuation(self):
        assert simple_token_count("Which energy resource is non-renewable?") == 8

    def test_empty(self):
        assert simple_token_count("") == 0

    def test_commas_count(self):
        assert simple_token_count("84,000 kilometers per hour") == 6


class TestJsonlRoundTrip:
    def test_round_trip_equality(self, tmp_path):
        scored = make_instance(
            "with-scores",
            teacher_scores=(-1.047, -1.542, -1.546, -1.505),
        )
        plain = make_instance("plain", question="Another question?", answer_index=2)
        weird = make_instance(
            "unicode",
            question="What is 'H₂O' — according to Lavoisier?",
            choices=("wasser", "l'eau", "acqua", "agua"),
            answer_index=1,
        )
        original = Corpus(
            (scored, plain, weird),
            CorpusMeta(source="unit-test", created_at="2024-01-01T00:00:00+00:00",
                       config_digest="abc123"),
        )
        path = tmp_path / "corpus.jsonl"
        write_jsonl(original, path)
        assert read_jsonl(path) == original

    @settings(max_examples=60, deadline=None)
    @given(corpora())
    def test_round_trip_property(self, tmp_path_factory, corpus):
        path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        write_jsonl(corpus, path)
        written = path.read_bytes()
        loaded = read_jsonl(path)
        assert loaded == corpus
        # Equality cannot see the sign of -0.0; the rewritten bytes can.
        write_jsonl(loaded, path)
        assert path.read_bytes() == written

    def test_provenance_preserved_bit_exactly(self, tmp_path):
        inst = make_instance("prov")
        inst = type(inst)(
            **{**inst.__dict__, "provenance": Provenance("decompose", 2.0, 17)}
        )
        path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus_of(inst), path)
        loaded = read_jsonl(path)
        assert loaded.instances[0].provenance == Provenance("decompose", 2.0, 17)

    def test_scores_omitted_load_as_absent(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = {
            "id": "x", "topic": "t", "question": "Which?",
            "choices": ["a", "b"], "answer": 0,
        }
        path.write_text(json.dumps(record) + "\n")
        loaded = read_jsonl(path)
        assert loaded.instances[0].teacher_scores is None
        assert loaded.meta == CorpusMeta()

    def test_missing_choices_is_malformed_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = {"id": "x", "topic": "t", "question": "Q?", "choices": ["a", "b"], "answer": 0}
        bad = {"id": "y", "topic": "t", "question": "Q?", "answer": 0}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(MalformedLine) as excinfo:
            read_jsonl(path)
        assert excinfo.value.line_number == 2
        assert "choices" in str(excinfo.value)

    @pytest.mark.parametrize("text", ["{not json", NESTED_TOO_DEEPLY],
                             ids=["bad_syntax", "nested_too_deeply"])
    def test_broken_json_is_malformed_line(self, tmp_path, text):
        path = tmp_path / "corpus.jsonl"
        path.write_text(text + "\n")
        with pytest.raises(MalformedLine, match="^line 1: invalid JSON") as excinfo:
            read_jsonl(path)
        assert excinfo.value.line_number == 1

    def test_invalid_instance_is_malformed_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = {"id": "x", "topic": "t", "question": "Q?", "choices": ["a", "b"], "answer": 9}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(MalformedLine):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"answer": "first"}, "answer must be an integer, got str"),
            ({"teacher_scores": [0.1, "high", 0.3, 0.4]},
             r"teacher_scores\[1\] must be a number, got str"),
            ({"teacher_scores": [0.1, 0.2, 0.3]}, "invalid instance: SCORE_LENGTH"),
            ({"teacher_scores": [0.1, float("nan"), 0.3, 0.4]},
             "invalid instance: SCORE_NONFINITE"),
            ({"provenance": {"strategy": "oracle"}}, "unknown strategy 'oracle'"),
            ({"choices": "oil"}, "choices must be a list, got str"),
            ({"teacher_scores": "12"}, "teacher_scores must be a list or null, got str"),
            ({"answer": 1.7}, "answer must be an integer, got float"),
            ({"answer": True}, "answer must be an integer, got bool"),
            ({"provenance": "json"}, "provenance must be an object, got str"),
            ({"question": ["Why", "not"]}, "question must be a string, got list"),
            ({"choices": [1, 2.5, None, True]}, r"choices\[0\] must be a string, got int"),
            ({"teacher_scores": ["1", "2"]}, r"teacher_scores\[0\] must be a number, got str"),
            ({"teacher_scores": [True, False]},
             r"teacher_scores\[0\] must be a number, got bool"),
            ({"answer": "2"}, "answer must be an integer, got str"),
            ({"provenance": {"attempt": 2.9}}, "provenance.attempt must be an integer, got float"),
            ({"provenance": {"gen_temperature": True}},
             "provenance.gen_temperature must be a number, got bool"),
            ({"id": 7}, "id must be a string, got int"),
            ({"teacher_scores": [10**400, 0, 0, 0]}, "int too large to convert to float"),
            ({"provenance": {"gen_temperature": float("nan"), "attempt": -3}},
             "gen_temperature must be finite and >= 0: nan"),
            ({"provenance": {"gen_temperature": float("inf")}},
             "gen_temperature must be finite and >= 0: inf"),
            ({"provenance": {"gen_temperature": -0.5}},
             "gen_temperature must be finite and >= 0: -0.5"),
            ({"provenance": {"attempt": -3}}, "attempt must be >= 0: -3"),
        ],
        ids=["answer", "score", "score_length", "score_nan", "strategy",
             "choices_string", "scores_string", "answer_float", "answer_bool",
             "provenance_string", "question_list", "choices_mixed", "scores_strings",
             "scores_bools", "answer_digit_string", "attempt_float", "temperature_bool",
             "id_int", "score_beyond_float", "temperature_nan", "temperature_inf",
             "temperature_negative", "attempt_negative"],
    )
    def test_bad_field_is_malformed_line_counting_the_meta_line(self, tmp_path, change, message):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus_of(make_instance("a"), make_instance("b")), path)
        record = {"id": "c", "topic": "t", "question": "Q?", "choices": ["a", "b", "c", "d"],
                  "answer": 0, **change}
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(MalformedLine, match=message) as excinfo:
            read_jsonl(path)
        assert excinfo.value.line_number == 4

    def test_duplicate_id_is_malformed_line_naming_its_first_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus_of(make_instance("x"), make_instance("y")), path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n" + json.dumps(instance_to_record(make_instance("x"))) + "\n")
        with pytest.raises(MalformedLine, match="duplicate id 'x', first on line 2$") as excinfo:
            read_jsonl(path)
        assert excinfo.value.line_number == 5

    @pytest.mark.parametrize("line,kind", [("5", "int"), ("[1, 2]", "list")],
                             ids=["number", "array"])
    def test_non_object_line_is_malformed_line(self, tmp_path, line, kind):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus_of(make_instance("a")), path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        message = f"record must be a JSON object, got {kind}$"
        with pytest.raises(MalformedLine, match=message) as excinfo:
            read_jsonl(path)
        assert excinfo.value.line_number == 3

    @pytest.mark.parametrize(
        "meta,message",
        [
            (5, "meta must be an object, got int"),
            (["a"], "meta must be an object, got list"),
            ({"source": 5}, "meta.source must be a string, got int"),
            ({"created_at": None}, "meta.created_at must be a string, got NoneType"),
        ],
        ids=["number", "array", "source_number", "created_at_null"],
    )
    def test_bad_meta_record_is_malformed_line_1(self, tmp_path, meta, message):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus_of(make_instance("a")), path)
        instance_line = path.read_text().splitlines()[1]
        path.write_text(json.dumps({"meta": meta}) + "\n" + instance_line + "\n")
        with pytest.raises(MalformedLine, match=message) as excinfo:
            read_jsonl(path)
        assert excinfo.value.line_number == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            corpus_of(make_instance("same"), make_instance("same"))

    def test_duplicate_ids_in_a_large_corpus_reported_quickly(self):
        instances = [make_instance(f"i{k:05d}") for k in range(19_999)]
        instances.append(make_instance("i12345"))
        instances.insert(7, make_instance("i00003"))
        start = time.perf_counter()
        with pytest.raises(ValueError) as excinfo:
            Corpus(tuple(instances))
        elapsed = time.perf_counter() - start
        assert str(excinfo.value) == "duplicate instance ids in corpus: ['i00003', 'i12345']"
        assert elapsed < 2.0

    def test_written_bytes_deterministic(self, tmp_path):
        corpus = sized_corpus(4)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(corpus, a)
        write_jsonl(corpus, b)
        assert a.read_bytes() == b.read_bytes()


class TestFilterByTokens:
    def pair_corpus(self, pair_tokens):
        """One instance whose longest question+choice pair counts pair_tokens."""
        question_words = " ".join(f"w{k}" for k in range(pair_tokens - 2))
        return corpus_of(
            make_instance("p", question=question_words, choices=("x", "yy zz"), answer_index=0)
        )

    def test_boundary_exceeds_is_dropped(self):
        corpus = self.pair_corpus(321)  # longest pair = question + 'yy zz' = 321
        longest = max(
            simple_token_count(corpus.instances[0].question + " " + c)
            for c in corpus.instances[0].choices
        )
        assert longest == 321
        assert len(filter_by_tokens(corpus, 320)) == 0
        assert len(filter_by_tokens(corpus, 321)) == 1

    def test_raising_limit_is_monotone(self):
        instances = [
            make_instance(f"m{k}", question=" ".join(["tok"] * (k * 40)), answer_index=0)
            for k in range(1, 14)
        ]
        corpus = corpus_of(*instances)
        low = filter_by_tokens(corpus, 320)
        high = filter_by_tokens(corpus, 480)
        assert {i.id for i in low} <= {i.id for i in high}
        assert len(low) < len(high)

    def test_idempotent(self):
        corpus = sized_corpus(10)
        once = filter_by_tokens(corpus, 320)
        twice = filter_by_tokens(once, 320)
        assert once == twice

    def test_empty_corpus_passes_through(self):
        assert len(filter_by_tokens(corpus_of(), 320)) == 0

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            filter_by_tokens(corpus_of(), 0)


class TestCumulativeSubsets:
    def test_prefix_property(self):
        corpus = sized_corpus(64)
        subsets = cumulative_subsets(corpus, [16, 32], seed=5)
        assert subsets[32].instances[:16] == subsets[16].instances

    def test_prefix_property_all_adjacent_pairs(self):
        corpus = sized_corpus(128)
        sizes = [16, 32, 64, 128]
        subsets = cumulative_subsets(corpus, sizes, seed=1)
        for small, large in zip(sizes, sizes[1:]):
            assert subsets[large].instances[:small] == subsets[small].instances

    def test_full_size_is_a_permutation(self):
        corpus = sized_corpus(20)
        subsets = cumulative_subsets(corpus, [20], seed=9)
        assert sorted(i.id for i in subsets[20]) == sorted(i.id for i in corpus)
        assert subsets[20].instances != corpus.instances

    def test_order_is_the_seeded_shuffle(self):
        corpus = sized_corpus(24)
        subsets = cumulative_subsets(corpus, [8, 24], seed=6)
        assert list(subsets[24].instances) == shuffled(corpus.instances, 6)

    def test_seeds_give_different_permutations(self):
        corpus = sized_corpus(32)
        one = cumulative_subsets(corpus, [32], seed=1)[32]
        two = cumulative_subsets(corpus, [32], seed=2)[32]
        assert one.instances != two.instances

    def test_size_exceeding_corpus_rejected(self):
        with pytest.raises(ValueError):
            cumulative_subsets(sized_corpus(8), [16], seed=0)

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError):
            cumulative_subsets(sized_corpus(8), [8, 4], seed=0)


class TestComputeStats:
    def test_constant_lengths(self):
        corpus = corpus_of(
            *(make_instance(f"c{k}", question="one two three", choices=("a", "b"), answer_index=0)
              for k in range(5))
        )
        stats = compute_stats(corpus)
        assert stats.count == 5
        assert stats.token_len_mean == 5.0
        assert stats.token_len_std == 0.0

    def test_two_point_population_std(self):
        short = make_instance("s", question=" ".join(["w"] * 38), choices=("a", "b"), answer_index=0)
        long = make_instance("l", question=" ".join(["w"] * 78), choices=("a", "b"), answer_index=0)
        stats = compute_stats(corpus_of(short, long))
        assert stats.token_len_mean == 60.0
        assert stats.token_len_std == 20.0

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(0)
        instances = [
            make_instance(
                f"r{k}",
                question=" ".join(["tok"] * int(rng.integers(3, 60))),
                choices=("yes", "no"),
                answer_index=0,
            )
            for k in range(500)
        ]
        corpus = corpus_of(*instances)
        stats = compute_stats(corpus)
        lengths = [
            simple_token_count(i.question + " " + " ".join(i.choices)) for i in instances
        ]
        assert stats.token_len_mean == pytest.approx(sum(lengths) / len(lengths))
        brute_std = (sum((x - stats.token_len_mean) ** 2 for x in lengths) / len(lengths)) ** 0.5
        assert stats.token_len_std == pytest.approx(brute_std)

    def test_parse_success_rate_copied_from_report(self):
        report = GenerationReport(attempted=100, parsed=52, rejected_by_reason={"NO_OBJECT": 48})
        stats = compute_stats(sized_corpus(3), report.success_rate)
        assert stats.parse_success_rate == pytest.approx(0.52)

    @pytest.mark.parametrize(
        "golds, widths, positions",
        [([0, 0, 0, 0], [4, 4, 4, 2], [4, 0, 0, 0]), ([2, 0, 2, 3, 2], [4] * 5, [1, 0, 3, 1])],
        ids=["gold_first", "spread"],
    )
    def test_answer_positions_count_every_index_up_to_the_widest(self, golds, widths, positions):
        four = ("oil", "solar", "water", "wind")
        stats = compute_stats(corpus_of(*(
            make_instance(f"a{k}", choices=four[:w], answer_index=gold)
            for k, (gold, w) in enumerate(zip(golds, widths))
        )))
        assert stats.answer_positions == positions
        assert stats.to_dict()["answer_positions"] == positions

    def test_empty_corpus(self):
        stats = compute_stats(corpus_of())
        assert (stats.count, stats.token_len_mean, stats.token_len_std) == (0, 0.0, 0.0)
        assert stats.answer_positions == []


class TestImportBenchmark:
    def test_arc_csv_letter_key(self, tmp_path):
        path = tmp_path / "arc.csv"
        path.write_text(
            "id,question,choices,answerKey\n"
            'q1,Which energy resource is non-renewable?,"(A) oil | (B) solar | (C) water | (D) wind",C\n'
        )
        corpus = import_benchmark(path, "arc_csv", topic="science")
        inst = corpus.instances[0]
        assert inst.choices == ("oil", "solar", "water", "wind")
        assert inst.answer_index == 2
        assert inst.topic == "science"
        assert inst.provenance.strategy == "real"

    def test_arc_csv_numeric_key(self, tmp_path):
        path = tmp_path / "arc.csv"
        path.write_text(
            "id,question,choices,answerKey\n"
            'q1,Pick one.,"(A) first | (B) second | (C) third",2\n'
        )
        corpus = import_benchmark(path, "arc_csv")
        assert corpus.instances[0].answer_index == 1

    def test_arc_csv_single_choice_is_schema_error(self, tmp_path):
        path = tmp_path / "arc.csv"
        path.write_text('id,question,choices,answerKey\nq1,Pick.,"(A) only",A\n')
        with pytest.raises(SchemaError) as excinfo:
            import_benchmark(path, "arc_csv")
        assert excinfo.value.row_number == 1

    def test_arc_csv_duplicate_choices_flagged(self, tmp_path):
        path = tmp_path / "arc.csv"
        path.write_text(
            'id,question,choices,answerKey\nq1,Pick.,"(A) same | (B) same",A\n'
        )
        with pytest.raises(SchemaError):
            import_benchmark(path, "arc_csv")

    def test_mmlu_csv(self, tmp_path):
        path = tmp_path / "anatomy.csv"
        path.write_text(
            "What does the femur connect to?,hip,skull,wrist,ear,A\n"
            "How many chambers does the heart have?,two,three,four,five,C\n"
        )
        corpus = import_benchmark(path, "mmlu_csv")
        assert len(corpus) == 2
        assert corpus.instances[0].answer_index == 0
        assert corpus.instances[1].answer_index == 2
        assert corpus.instances[0].topic == "anatomy"

    def test_mmlu_out_of_range_key(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("Q?,a,b,c,d,E\n")
        with pytest.raises(SchemaError):
            import_benchmark(path, "mmlu_csv")

    def test_generic_json_round_trips_an_export(self, tmp_path):
        corpus = sized_corpus(6)
        path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, path)
        assert import_benchmark(path, "generic_json") == corpus

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            import_benchmark(tmp_path / "x", "parquet")
