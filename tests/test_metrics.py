from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from medcorr.errors import ValidationError
from medcorr.metrics import (
    ExternalScorer,
    _lcs_length,
    ScoreReport,
    aggregate_score,
    composite_score,
    evaluate,
    rouge1_f,
    rouge_l_f,
)
from medcorr.corpus import NA
from medcorr.pipelines import Prediction
from medcorr.retrieval import tokenize

from helpers import record_no_error, record_with_error, report_payload, scripted_http_server
from oracles import lcs_table_length, rouge1_oracle, rouge_l_oracle

_VOCAB = "pain chest aspirin fever cough dose renal note left right acute mild".split()


def random_pairs(n: int, seed: int = 2024):
    rng = random.Random(seed)
    for _ in range(n):
        cand = [rng.choice(_VOCAB) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(_VOCAB) for _ in range(rng.randint(0, 12))]
        yield " ".join(cand), " ".join(ref)


# --- rouge_l_f ---------------------------------------------------------------


def test_rouge_l_identical():
    assert rouge_l_f("mild renal failure", "mild renal failure") == 1.0


def test_rouge_l_known_lcs():
    # oracle lcs("a c d", "a b c d") = 3, P = 1.0, R = 0.75, F = 6/7
    assert rouge_l_oracle(["a", "c", "d"], ["a", "b", "c", "d"]) == pytest.approx(6 / 7)
    assert rouge_l_f("a c d", "a b c d") == pytest.approx(6 / 7, abs=1e-9)


def test_rouge_l_disjoint():
    assert rouge_l_f("alpha beta", "gamma delta") == 0.0


def test_rouge_l_empty_sides():
    assert rouge_l_f("", "reference text") == 0.0
    assert rouge_l_f("candidate text", "") == 0.0
    assert rouge_l_f("", "") == 0.0


def test_rouge_l_matches_oracle_on_random_pairs():
    for cand, ref in random_pairs(200):
        expected = rouge_l_oracle(tokenize(cand), tokenize(ref))
        assert abs(rouge_l_f(cand, ref) - expected) <= 1e-9


# two token sequences of up to 60 tokens each over one alphabet of 1 to 6 tokens
_SEQUENCE_PAIRS = st.integers(min_value=1, max_value=6).flatmap(
    lambda size: st.tuples(*[st.lists(st.sampled_from("abcdef"[:size]), max_size=60)] * 2)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=_SEQUENCE_PAIRS)
def test_bit_parallel_lcs_matches_the_table_oracle(pair):
    a, b = pair
    assert _lcs_length(a, b) == lcs_table_length(a, b)


def test_bit_parallel_lcs_of_two_3000_token_sequences_is_exact_and_fast():
    # b holds a random half of a, in order, among 1,500 tokens a never holds,
    # so its LCS with a is exactly that half: no other token of b can match
    rng = random.Random(25)
    a = [rng.choice("abcd") for _ in range(3000)]
    kept = iter([a[i] for i in sorted(rng.sample(range(3000), 1500))])
    absent = set(rng.sample(range(3000), 1500))
    b = ["z" if i in absent else next(kept) for i in range(3000)]
    start = time.perf_counter()
    assert _lcs_length(a, b) == _lcs_length(b, a) == 1500
    assert time.perf_counter() - start < 1.0


# --- rouge1_f ---------------------------------------------------------------------


def test_rouge1_identical():
    assert rouge1_f("sample sentence here", "sample sentence here") == 1.0


def test_rouge1_disjoint():
    assert rouge1_f("one two", "three four") == 0.0


def test_rouge1_hand_counted_clipping_example():
    # cand/ref share 3 of 4 unigrams: P = R = 0.75, F = 0.75
    score = rouge1_f("hypokalemia based on labs", "hypokalemia based on findings")
    assert score == pytest.approx(0.75, abs=1e-9)


def test_rouge1_matches_oracle_on_random_pairs():
    for cand, ref in random_pairs(200, seed=77):
        expected = rouge1_oracle(tokenize(cand), tokenize(ref))
        assert abs(rouge1_f(cand, ref) - expected) <= 1e-9


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=10))
def test_rouge1_clipping_never_exceeds_reference_counts(tokens):
    # a candidate that repeats one token cannot outscore the clipped count
    reference = " ".join(tokens)
    candidate = " ".join(["a"] * 8)
    ref_a = tokens.count("a")
    score = rouge1_f(candidate, reference)
    if ref_a == 0:
        assert score == 0.0
    else:
        matches = min(8, ref_a)
        p = matches / 8
        r = matches / len(tokens)
        assert score == pytest.approx(2 * p * r / (p + r), abs=1e-9)


def test_rouge_tokenization_shared_with_retrieval():
    # case and punctuation do not matter; tokens do
    assert rouge_l_f("Chest pain!", "chest PAIN") == 1.0


# --- composite rules ------------------------------------------------------------------


def test_composite_both_na():
    assert composite_score(NA, NA, rouge_l_f) == 1.0


def test_composite_single_na_is_zero():
    assert composite_score(NA, "some sentence", rouge_l_f) == 0.0
    assert composite_score("some sentence", NA, rouge_l_f) == 0.0


def test_composite_identical_sentences():
    assert composite_score("same words here", "same words here", rouge_l_f) == 1.0


def test_composite_exhaustive_na_patterns():
    outcomes = {
        (True, True): 1.0,
        (True, False): 0.0,
        (False, True): 0.0,
    }
    for (pred_na, gold_na), expected in outcomes.items():
        pred = NA if pred_na else "alpha beta"
        gold = NA if gold_na else "alpha gamma"
        assert composite_score(pred, gold, rouge_l_f) == expected
    # the remaining case defers to the base metric
    assert composite_score("alpha beta", "alpha gamma", rouge_l_f) == rouge_l_f(
        "alpha beta", "alpha gamma"
    )


def test_composite_equals_base_on_50_random_non_na_pairs():
    for cand, ref in random_pairs(50, seed=5):
        for base in (rouge_l_f, rouge1_f):
            assert composite_score(cand, ref, base) == base(cand, ref)


# --- aggregate --------------------------------------------------------------------------


def test_aggregate_matches_reported_leaderboard_mean():
    assert aggregate_score([0.776, 0.809, 0.783]) == pytest.approx(0.7893, abs=5e-4)


def test_aggregate_empty_is_error():
    with pytest.raises(ValidationError):
        aggregate_score([])


# --- subtask accuracies ---------------------------------------------------------------------


def five_golds():
    return [
        record_with_error("g0", ["Bad zero.", "Other."], 0, "Good zero."),
        record_with_error("g1", ["First.", "Bad one."], 1, "Good one."),
        record_no_error("g2", ["Fine two."]),
        record_no_error("g3", ["Fine three."]),
        record_with_error("g4", ["Bad four."], 0, "Good four."),
    ]


def perfect_predictions(golds):
    return [
        Prediction(
            g.record_id,
            g.gold_flag,
            g.gold_error_sentence_id,
            g.gold_correction,
        )
        for g in golds
    ]


def test_flag_accuracy_all_correct():
    golds = five_golds()
    assert evaluate(perfect_predictions(golds), golds).flag_accuracy == 1.0


def test_flag_accuracy_three_of_five():
    golds = five_golds()
    preds = perfect_predictions(golds)
    preds[0] = Prediction("g0", 0, -1, NA)  # wrong: gold has an error
    preds[2] = Prediction("g2", 1, 0, "Spurious fix.")  # wrong: gold is clean
    assert evaluate(preds, golds).flag_accuracy == pytest.approx(0.6)


def test_sentence_accuracy_counts_minus_one_as_matchable():
    golds = [record_no_error("a", ["Fine."])]
    preds = [Prediction("a", 0, -1, NA)]
    assert evaluate(preds, golds).sentence_accuracy == 1.0


def test_sentence_accuracy_right_flag_wrong_sentence():
    golds = [record_with_error("a", ["S0.", "S1."], 1, "Fixed.")]
    preds = [Prediction("a", 1, 0, "Fixed.")]
    report = evaluate(preds, golds)
    assert report.flag_accuracy == 1.0
    assert report.sentence_accuracy == 0.0


def test_accuracy_id_mismatch_lists_symmetric_difference():
    golds = [record_no_error("a", ["Fine."]), record_no_error("b", ["Fine."])]
    preds = [Prediction("a", 0, -1, NA), Prediction("c", 0, -1, NA)]
    with pytest.raises(ValidationError) as exc_info:
        evaluate(preds, golds)
    assert "'b'" in str(exc_info.value)
    assert "'c'" in str(exc_info.value)


# --- evaluate -----------------------------------------------------------------------------------


def test_evaluate_perfect_predictions():
    golds = five_golds()
    report = evaluate(perfect_predictions(golds), golds)
    assert report.n_records == 5
    assert report.flag_accuracy == 1.0
    assert report.sentence_accuracy == 1.0
    assert report.composite_means["rouge1_f"] == 1.0
    assert report.composite_means["rouge_l_f"] == 1.0
    assert report.mean_rouge1_f == 1.0
    assert "aggregate" not in report.composite_means  # neural columns absent


def test_evaluate_all_zero_predictions_on_40_percent_error_set():
    golds = []
    for i in range(10):
        if i < 4:
            golds.append(record_with_error(f"r{i}", [f"Bad {i}."], 0, f"Good {i}."))
        else:
            golds.append(record_no_error(f"r{i}", [f"Fine {i}."]))
    preds = [Prediction(g.record_id, 0, -1, NA) for g in golds]
    report = evaluate(preds, golds)
    assert report.flag_accuracy == pytest.approx(0.6)
    assert report.sentence_accuracy == pytest.approx(0.6)
    # 4 single-NA pairs score 0, 6 NA/NA pairs score 1
    assert report.composite_means["rouge_l_f"] == pytest.approx(0.6)
    assert report.mean_rouge_l_f is None  # no non-NA pairs at all


def test_evaluate_means_match_per_record_columns():
    golds = five_golds()
    preds = perfect_predictions(golds)
    preds[1] = Prediction("g1", 1, 1, "Good one almost.")
    report = evaluate(preds, golds)
    for name, mean in report.composite_means.items():
        column = [row.composites[name] for row in report.per_record]
        assert mean == pytest.approx(sum(column) / len(column), abs=1e-9)
    flag_column = [1.0 if row.flag_correct else 0.0 for row in report.per_record]
    assert report.flag_accuracy == pytest.approx(sum(flag_column) / len(flag_column), abs=1e-9)
    for value in (report.flag_accuracy, report.sentence_accuracy, *report.composite_means.values()):
        assert 0.0 <= value <= 1.0


def test_evaluate_report_json_round_trip():
    golds = five_golds()
    report = evaluate(perfect_predictions(golds), golds)
    text = report.to_json()
    assert ScoreReport.from_json(text) == report


@pytest.mark.parametrize("field", ["flag_correct", "sentence_correct"])
def test_report_json_rejects_a_string_where_a_bool_belongs(field):
    assert ScoreReport.from_json(report_payload()).per_record[0].flag_correct is True
    # bool("false") is True: a coerced field would read the opposite of the file
    with pytest.raises(ValidationError, match=f"malformed score report: {field} 'false'"):
        ScoreReport.from_json(report_payload(**{field: "false"}))


def test_evaluate_requires_labeled_golds():
    from helpers import unlabeled_record

    golds = [unlabeled_record("a", ["Text."])]
    preds = [Prediction("a", 0, -1, NA)]
    with pytest.raises(ValidationError, match="gold"):
        evaluate(preds, golds)


# --- external scorers -------------------------------------------------------------------------


def constant_scorer_script(value: float):
    def script(path, body):
        import json

        pairs = json.loads(body)["pairs"]
        return 200, {"scores": [value] * len(pairs)}

    return script


def test_evaluate_with_external_scorers_adds_aggregate():
    golds = five_golds()
    preds = perfect_predictions(golds)
    with scripted_http_server(constant_scorer_script(0.8)) as base_url:
        scorers = [
            ExternalScorer("bertscore", f"{base_url}/score"),
            ExternalScorer("bleurt", f"{base_url}/score"),
        ]
        report = evaluate(preds, golds, scorers=scorers)
    assert report.unavailable == ()
    assert "aggregate" in report.composite_means
    # per non-NA record: aggregate = mean(rouge1 = 1.0, 0.8, 0.8)
    row = next(r for r in report.per_record if r.gold_flag == 1)
    assert row.base_scores["aggregate"] == pytest.approx((1.0 + 0.8 + 0.8) / 3)


def test_evaluate_scorer_failure_marks_unavailable():
    golds = five_golds()
    preds = perfect_predictions(golds)

    def failing(path, body):
        return 500, {"error": "down"}

    with scripted_http_server(failing) as base_url:
        report = evaluate(preds, golds, scorers=[ExternalScorer("bertscore", f"{base_url}/score")])
    assert report.unavailable == ("bertscore",)
    assert "bertscore" not in report.composite_means
    assert "aggregate" not in report.composite_means


def test_evaluate_scorer_failure_strict_raises():
    golds = five_golds()
    preds = perfect_predictions(golds)

    def failing(path, body):
        return 500, {"error": "down"}

    with scripted_http_server(failing) as base_url:
        with pytest.raises(ValidationError, match="bertscore"):
            evaluate(
                preds,
                golds,
                scorers=[ExternalScorer("bertscore", f"{base_url}/score")],
                strict_scorers=True,
            )


@pytest.mark.parametrize("names", [["rouge1_f"], ["rouge_l_f"], ["aggregate"], ["bleurt", "bleurt"]])
def test_evaluate_rejects_scorer_names_that_overwrite_a_column(names):
    golds = five_golds()
    # Nothing listens on port 1: a request sent would mark the column unavailable instead.
    scorers = [ExternalScorer(name, "http://127.0.0.1:1/score") for name in names]
    with pytest.raises(ValidationError, match=f"name '{names[-1]}' already names a report column"):
        evaluate(perfect_predictions(golds), golds, scorers=scorers)


def mixed_na_set():
    """Sentence pairs, both-NA pairs, and one-NA pairs each way, in a mixed order."""
    golds = [
        record_with_error("m0", ["Bad zero.", "Other."], 0, "Good zero dose."),
        record_no_error("m1", ["Fine one."]),
        record_no_error("m2", ["Fine two."]),
        record_with_error("m3", ["First.", "Bad three."], 1, "Left chest pain is acute."),
        record_with_error("m4", ["Bad four."], 0, "Good four."),
        record_with_error("m5", ["Bad five."], 0, "Renal dose of aspirin was mild."),
        record_no_error("m6", ["Fine six."]),
    ]
    preds = [
        Prediction("m0", 1, 0, "Good zero dose."),
        Prediction("m1", 0, -1, NA),  # both NA
        Prediction("m2", 1, 0, "Spurious fix."),  # gold NA only
        Prediction("m3", 1, 0, "Right chest pain is mild and acute."),
        Prediction("m4", 0, -1, NA),  # prediction NA only
        Prediction("m5", 1, 0, "Aspirin dose was mild."),
        Prediction("m6", 0, -1, NA),  # both NA
    ]
    return preds, golds


def length_scorer_script(path, body):
    import json

    pairs = json.loads(body)["pairs"]
    if path == "/down":
        return 500, {"error": "down"}
    if path == "/bertscore":
        return 200, {"scores": [len(p["candidate"]) / (len(p["candidate"]) + len(p["reference"])) for p in pairs]}
    return 200, {"scores": [1 / (1 + abs(len(p["candidate"]) - len(p["reference"]))) for p in pairs]}


@pytest.mark.parametrize(
    "bleurt_path, digest",
    [
        pytest.param("/bleurt", "2bdd310bad8baa8ce9ff40fb319b17a65c214ad63c6913a25e73ea6ca5a59395", id="aggregate"),
        pytest.param(
            "/down", "625bea93331cf2a6f4c9235a7f61495278813ef391d249696b9c775d840b08a2", id="bleurt-unavailable"
        ),
    ],
)
def test_evaluate_report_bytes_are_pinned(bleurt_path, digest):
    # a rewrite of evaluate must keep every score, mean and key of the report
    preds, golds = mixed_na_set()
    with scripted_http_server(length_scorer_script) as base_url:
        scorers = [
            ExternalScorer("bertscore", f"{base_url}/bertscore"),
            ExternalScorer("bleurt", base_url + bleurt_path),
        ]
        report = evaluate(preds, golds, scorers=scorers)
    assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == digest


# Bodies a misbehaving scorer may send: non-numeric scores, null scores,
# a number too large for a float, a JSON list instead of an object, JSON
# nested too deep to decode, and scores that are strings or booleans.
BAD_SCORER_BODIES = [
    lambda n: {"scores": ["abc"] * n},
    lambda n: {"scores": [None] * n},
    lambda n: {"scores": [10**400] * n},
    lambda n: [0.5] * n,
    lambda n: b"[" * 100_000 + b"]" * 100_000,
    lambda n: {"scores": ["0.5"] * n},
    lambda n: {"scores": [True] * n},
]


def bad_body_script(make_body):
    def script(path, body):
        import json

        return 200, make_body(len(json.loads(body)["pairs"]))

    return script


@pytest.mark.parametrize(
    "make_body",
    BAD_SCORER_BODIES,
    ids=["string", "null", "overflow", "list-body", "deeply-nested", "numeric-string", "bool"],
)
def test_evaluate_bad_scorer_body_marks_unavailable_or_raises_when_strict(make_body):
    golds = five_golds()
    preds = perfect_predictions(golds)
    with scripted_http_server(bad_body_script(make_body)) as base_url:
        scorer = ExternalScorer("bertscore", f"{base_url}/score")
        report = evaluate(preds, golds, scorers=[scorer])
        with pytest.raises(ValidationError, match="bertscore"):
            evaluate(preds, golds, scorers=[scorer], strict_scorers=True)
    assert report.unavailable == ("bertscore",)
    assert "bertscore" not in report.composite_means


def test_external_scorer_rejects_out_of_range_scores():
    def bad(path, body):
        import json

        pairs = json.loads(body)["pairs"]
        return 200, {"scores": [1.5] * len(pairs)}

    with scripted_http_server(bad) as base_url:
        scorer = ExternalScorer("bleurt", f"{base_url}/score")
        with pytest.raises(ValidationError, match="out of"):
            scorer.score_pairs([("a", "b")])


def test_external_scorer_batches_requests():
    calls = []

    def script(path, body):
        import json

        pairs = json.loads(body)["pairs"]
        calls.append(len(pairs))
        return 200, {"scores": [0.5] * len(pairs)}

    with scripted_http_server(script) as base_url:
        scorer = ExternalScorer("bertscore", f"{base_url}/score", batch_size=2)
        scores = scorer.score_pairs([("a", "b")] * 5)
    assert scores == [0.5] * 5
    assert calls == [2, 2, 1]
