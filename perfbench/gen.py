"""Seeded workload generator: vocabulary, MCQ corpus, clinical records,
the scripted responder and the answer key it implies.

Everything here is a pure function of the seed. The responder is a pure
function of the request content: it finds the record from the live prompt
block and answers from that record's plan, so results never depend on call
order or thread interleaving. ``expected_prediction`` walks the same plan
through the pipelines' documented control flow and is the answer key the
benchmark checks predictions and quality metrics against.

This module imports nothing from the test suite, so test refactors cannot
shift the benchmark's inputs.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
import re
import zlib
from dataclasses import dataclass
from typing import Callable

SEPARATOR = "\n\n---\n\n"
REMINDER = "Your response must contain exactly these labeled fields"
PROPOSAL_MARKER = "Propose instruction variant"
UNLABELED = "I could not settle on an answer from this note"
CLINICAL_COLUMNS = (
    "record_id", "text", "sentences_json", "error_flag", "error_sentence_id", "corrected_sentence",
)

# Stage programs are identified by the output label on the system message's
# last line (the final field of the format block).
STAGE_BY_LABEL = {
    "Error Flag:": "detect",
    "Error Line:": "localize",
    "Extracted Choice:": "extract_choice",
    "Verdict:": "compare_answer",
    "Corrected Sentence:": "correct",
}
STAGES = ("detect", "localize", "correct", "extract_choice", "compare_answer")

# Share of records per plan feature. Counts are exact per split (rounded), so
# every seed yields the same mix; only which record gets what, and the text,
# depend on the seed.
ERROR_SHARE = 0.5
DIFFICULTY_SHARES = ((0, 0.6), (1, 0.15), (2, 0.1), (3, 0.1), (4, 0.05))
RETRY_SHARE = 0.06
FAIL_SHARE = 0.02
BAD_LINE_SHARE = 0.02  # of error records
DIVERGE_SHARE = 0.04  # of error records

_ONSETS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


# --- vocabulary ---------------------------------------------------------------


def _pseudo_words(rng: random.Random, n: int) -> list[str]:
    """Distinct words of two-letter syllables. The syllable count follows the
    rank (2, 3, 4, 2, ...), so the text's length in characters, and with it
    the work per note, is the same for every seed."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        syllables = 2 + len(words) % 3
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


@dataclass
class Vocabulary:
    """Zipfian note vocabulary plus a separate entity list for answer options."""

    words: list[str]
    cum_weights: list[float]
    entities: list[str]

    @classmethod
    def make(cls, rng: random.Random, size: int = 6000, n_entities: int = 3000) -> "Vocabulary":
        words = _pseudo_words(rng, size + n_entities)
        weights = [1.0 / (rank + 1) ** 1.05 for rank in range(size)]
        return cls(words[:size], list(itertools.accumulate(weights)), words[size:])

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=k)

    def sentence(self, rng: random.Random, lo: int = 8, hi: int = 16) -> str:
        words = self.draw(rng, rng.randint(lo, hi))
        return " ".join(words).capitalize() + "."


def _exact_counts(n: int, shares) -> list:
    """Per-item labels with exact rounded counts, in a fixed order."""
    labels = []
    for label, share in shares:
        labels.extend([label] * round(n * share))
    labels = labels[:n]
    labels.extend([shares[0][0]] * (n - len(labels)))
    return labels


def _lengths(n: int, lo: int, hi: int) -> list[int]:
    """Note lengths cycling over ``lo..hi``, so every seed has the same total."""
    span = hi - lo + 1
    return [lo + i % span for i in range(n)]


# --- records and plans ------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One generated clinical record with its gold labels and scripted plan.

    ``difficulty`` is how many demos a prompt must carry before the scripted
    model answers this record right. ``retry_stage`` answers its first attempt
    without labels; ``fail_stage`` answers both attempts without labels;
    ``bad_line`` makes localize name a line the record does not have;
    ``diverge`` makes correct propose an unrelated sentence.
    """

    record_id: str
    sentences: tuple[str, ...]
    flag: int
    error_id: int
    correction: str | None
    difficulty: int
    retry_stage: str | None = None
    fail_stage: str | None = None
    bad_line: bool = False
    diverge: bool = False
    weak: str = ""
    unrelated: str = ""
    # ms records only
    fact_id: int = -1
    asserted: str = ""
    right: str = ""
    wrong: str = ""
    mcq_id: int = -1
    mcq_question: str = ""


@dataclass(frozen=True)
class Mcq:
    question: str
    options: tuple[tuple[str, str], ...]
    answer: str

    @property
    def correct_text(self) -> str:
        return dict(self.options)[self.answer]


def make_mcqs(rng: random.Random, vocab: Vocabulary, n: int) -> list[Mcq]:
    mcqs = []
    seen: set[str] = set()
    while len(mcqs) < n:
        question = " ".join(vocab.draw(rng, rng.randint(18, 30))).capitalize() + (
            ". Which of the following is the most likely diagnosis?"
        )
        if question in seen:
            continue
        seen.add(question)
        picks = rng.sample(vocab.entities, 8)
        options = tuple((label, f"{picks[2 * i]} {picks[2 * i + 1]}") for i, label in enumerate("ABCD"))
        mcqs.append(Mcq(question, options, rng.choice("ABCD")))
    return mcqs


def _features(rng: random.Random, flags: list[int], min_failures: int) -> list[dict]:
    """Exact-count plan features, drawn separately for error and clean records
    so every seed gets the same mix in every split, however small."""
    feats: list[dict] = [{} for _ in flags]
    for flag in (1, 0):
        group = [i for i, f in enumerate(flags) if f == flag]
        rng.shuffle(group)
        difficulty = _exact_counts(len(group), DIFFICULTY_SHARES)
        for i, d in zip(group, difficulty):
            feats[i]["difficulty"] = d
        taken: set[int] = set()

        # ``min_failures`` error records at least retry and fail, so small
        # compile splits exercise those paths too.
        def pick(key: str, share: float, eligible=lambda i: True, at_least: int = 0) -> None:
            chosen = [i for i in group if i not in taken and eligible(i)][: max(at_least, round(len(group) * share))]
            taken.update(chosen)
            for i in chosen:
                feats[i][key] = True

        pick("fail", FAIL_SHARE, at_least=flag * min_failures)
        pick("retry", RETRY_SHARE, at_least=flag * min_failures)
        if flag:
            # Only zero-shot-solvable error records reach localize and correct.
            solvable = lambda i: feats[i]["difficulty"] == 0  # noqa: E731
            pick("bad_line", BAD_LINE_SHARE, solvable)
            pick("diverge", DIVERGE_SHARE, solvable)
    return feats


def _opening(rng: random.Random, vocab: Vocabulary, seen: set[str]) -> str:
    while True:
        name = rng.choice(vocab.entities).capitalize()
        first = (
            f"{name} is a {rng.randint(18, 95)}-year-old {rng.choice(('man', 'woman'))} admitted on "
            f"day {rng.randint(1, 365)} with {' '.join(vocab.draw(rng, 3))}."
        )
        if first not in seen:
            seen.add(first)
            return first


_FACTS = (
    ("{A} was started at {x} mg {f} for {B}.", lambda rng: rng.choice((5, 10, 20, 25, 40, 50, 75))),
    ("Serum {A} measured {x} units on the {B} panel.", lambda rng: rng.randint(2, 90)),
    ("The {A} {B} showed {x} lesions on imaging.", lambda rng: rng.randint(2, 9)),
)


def _fact_pair(rng: random.Random, vocab: Vocabulary, seen: set[str]) -> tuple[str, str]:
    """A (wrong, right) sentence pair differing in one value; unique per run."""
    while True:
        template, value = rng.choice(_FACTS)
        fields = {
            "A": rng.choice(vocab.entities),
            "B": rng.choice(vocab.entities),
            "f": rng.choice(("daily", "twice daily", "at bedtime")),
        }
        right_x = value(rng)
        wrong_x = right_x * 10 + rng.randint(1, 9)
        right = template.format(x=right_x, **fields).capitalize()
        wrong = template.format(x=wrong_x, **fields).capitalize()
        if wrong not in seen:
            seen.add(wrong)
            return wrong, right


def _drop_last_word(sentence: str) -> str:
    words = sentence.rstrip(".").split(" ")
    return " ".join(words[:-1]) + "."


@dataclass(frozen=True)
class Shape:
    """Note shape: filler sentences per note, words per filler sentence, and
    the least number of failing and retrying error records per split."""

    body: tuple[int, int] = (8, 18)
    words: tuple[int, int] = (8, 16)
    min_failures: int = 1


def make_uw_cases(
    rng: random.Random, vocab: Vocabulary, n: int, prefix: str, seen: set[str], shape: Shape = Shape()
) -> list[Case]:
    flags = _exact_counts(n, ((1, ERROR_SHARE), (0, 1 - ERROR_SHARE)))
    rng.shuffle(flags)
    feats = _features(rng, flags, shape.min_failures)
    lengths = _lengths(n, *shape.body)
    rng.shuffle(lengths)
    cases = []
    for i in range(n):
        body = [vocab.sentence(rng, *shape.words) for _ in range(lengths[i])]
        wrong, right = _fact_pair(rng, vocab, seen)
        fact_id = rng.randint(1, len(body))
        sentences = [_opening(rng, vocab, seen), *body]
        flag = flags[i]
        sentences.insert(fact_id, wrong if flag else right)
        feat = feats[i]
        cases.append(
            Case(
                record_id=f"{prefix}{i:05d}",
                sentences=tuple(sentences),
                flag=flag,
                error_id=fact_id if flag else -1,
                correction=right if flag else None,
                difficulty=feat["difficulty"],
                retry_stage="detect" if feat.get("retry") else None,
                fail_stage="detect" if feat.get("fail") else None,
                bad_line=feat.get("bad_line", False),
                diverge=feat.get("diverge", False),
                weak=_drop_last_word(right),
                unrelated=vocab.sentence(rng, 10, 14),
            )
        )
    return cases


MAX_DRAWS = 100


def make_ms_cases(
    rng: random.Random, vocab: Vocabulary, mcqs: list[Mcq], sources: list[int], prefix: str, seen: set[str],
    shape: Shape = Shape(), accept: Callable[[Case], bool] = lambda case: True,
) -> list[Case]:
    """One record per source MCQ; sources must be distinct across a workload.

    The answer key assumes that retrieval ranks a note's source question
    first, which filler drawn from the same vocabulary can break. ``accept``
    checks a drawn note; a rejected note's text is drawn again, with the same
    plan.
    """
    n = len(sources)
    flags = _exact_counts(n, ((1, ERROR_SHARE), (0, 1 - ERROR_SHARE)))
    rng.shuffle(flags)
    feats = _features(rng, flags, shape.min_failures)
    lengths = _lengths(n, *shape.body)
    rng.shuffle(lengths)
    cases = []
    for i in range(n):
        mcq = mcqs[sources[i]]
        right = mcq.correct_text
        wrong = next(text for label, text in mcq.options if label != mcq.answer)
        flag = flags[i]
        asserted = wrong if flag else right
        feat = feats[i]
        template = "Findings on review were most consistent with {}."
        for _ in range(MAX_DRAWS):
            body = [vocab.sentence(rng, *shape.words) for _ in range(lengths[i])]
            q_pos = rng.randint(0, len(body))
            body.insert(q_pos, mcq.question)
            fact_id = 1 + rng.randint(q_pos + 1, len(body))
            sentences = [_opening(rng, vocab, seen), *body]
            sentences.insert(fact_id, template.format(asserted))
            case = Case(
                record_id=f"{prefix}{i:05d}",
                sentences=tuple(sentences),
                flag=flag,
                error_id=fact_id if flag else -1,
                correction=template.format(right) if flag else None,
                difficulty=feat["difficulty"],
                retry_stage="extract_choice" if feat.get("retry") else None,
                fail_stage="extract_choice" if feat.get("fail") else None,
                bad_line=feat.get("bad_line", False),
                fact_id=fact_id,
                asserted=asserted,
                right=right,
                wrong=wrong,
                mcq_id=sources[i],
                mcq_question=mcq.question,
            )
            if accept(case):
                break
        else:
            raise RuntimeError(f"no note for source question {sources[i]} passed the check in {MAX_DRAWS} draws")
        cases.append(case)
    return cases


def clinical_csv(cases: list[Case]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CLINICAL_COLUMNS)
    for c in cases:
        writer.writerow([
            c.record_id,
            "\n".join(c.sentences),
            json.dumps(list(c.sentences), ensure_ascii=False),
            str(c.flag),
            str(c.error_id),
            c.correction if c.flag else "NA",
        ])
    return out.getvalue()


def mcq_jsonl(mcqs: list[Mcq]) -> str:
    return "".join(
        json.dumps({"question": m.question, "options": dict(m.options), "answer": m.answer}, ensure_ascii=False) + "\n"
        for m in mcqs
    )


# --- the scripted model -------------------------------------------------------------


class Oracle:
    """Answers every stage of both pipelines from the cases' plans.

    ``answer`` is the single decision function: the responder calls it with
    values read back from a prompt, and ``expected_prediction`` calls it with
    the values the pipelines would pass, so the two cannot disagree.
    """

    def __init__(self, cases: list[Case]):
        self.by_opening = {c.sentences[0]: c for c in cases}
        facts = [c for c in cases if c.flag or c.fact_id >= 0]
        self.by_fact = {c.sentences[c.fact_id if c.fact_id >= 0 else c.error_id]: c for c in facts}
        if len(self.by_opening) != len(cases) or len(self.by_fact) != len(facts):
            raise ValueError("generated records do not have unique openings and fact sentences")

    # -- decisions --

    def _unlabeled(self, case: Case, stage: str, attempt: int) -> bool:
        return case.fail_stage == stage or (case.retry_stage == stage and attempt == 1)

    def answer(self, stage: str, demos: int, attempt: int, inputs: dict[str, str]) -> str | None:
        """The output field value, or None for a completion without labels."""
        if stage == "compare_answer":
            return "match" if inputs["extracted_choice"] == inputs["correct_answer"] else "mismatch"
        if stage == "correct":
            return self._correct(demos, inputs)
        case = self.by_opening[inputs["opening"]]
        if self._unlabeled(case, stage, attempt):
            return None
        skilled = demos >= case.difficulty
        n = len(case.sentences)
        if stage == "detect":
            return str(case.flag if skilled else 1 - case.flag)
        if stage == "extract_choice":
            if f"Question: {case.mcq_question}\n" not in inputs["similar_question"] + "\n":
                return "none of the options"
            if skilled:
                return case.asserted
            return case.right if case.flag else case.wrong
        if stage == "localize":
            if case.bad_line:
                return str(n + 7)
            if case.fact_id >= 0:  # ms: the line asserting the extracted choice
                hits = [i for i, s in enumerate(case.sentences) if inputs["extracted_choice"] in s]
                return str(hits[0] if hits else case.fact_id)
            if case.flag:
                return str(case.error_id if skilled else (case.error_id + 1) % n)
            return str(n // 2)
        raise AssertionError(f"no decision for stage {stage!r}")

    def _correct(self, demos: int, inputs: dict[str, str]) -> str | None:
        sentence = inputs["error_sentence"]
        case = self.by_fact.get(sentence)
        if "extracted_choice" in inputs:  # ms: substitute the correct answer
            fixed = sentence.replace(inputs["extracted_choice"], inputs["correct_answer"])
            if case is None or not case.flag or fixed == sentence:
                return fixed
            return fixed if demos >= case.difficulty else fixed[:-1] + " on balance."
        if case is None or not case.flag:
            return sentence
        if case.diverge:
            return case.unrelated
        return case.correction if demos >= case.difficulty else case.weak

    # -- the responder --

    def respond(self, request) -> str:
        messages = request.messages
        user = messages[-1].content
        if len(messages) == 1 and PROPOSAL_MARKER in user:
            variant = re.search(r"variant (\d+)", user).group(1)
            module = re.search(r"Module: (\w+)", user).group(1)
            return f"Variant {variant}: read every numbered line of the note before answering the {module} task."
        label = messages[0].content.rsplit("\n", 1)[-1].split(":", 1)[0] + ":"
        stage = STAGE_BY_LABEL[label]
        blocks = user.split(SEPARATOR)
        live = blocks[-1]
        attempt = 2 if REMINDER in live else 1
        value = self.answer(stage, len(blocks) - 1, attempt, _live_inputs(live))
        if value is None:
            return UNLABELED
        out_label = label[:-1]
        return f"Rationale: weighed the note line by line.\n{out_label}: {value}"


def _live_inputs(block: str) -> dict[str, str]:
    lines = block.split("\n")
    inputs: dict[str, str] = {}
    for i, line in enumerate(lines):
        if line.startswith("Clinical Text: "):
            inputs["opening"] = line[len("Clinical Text: "):].split(": ", 1)[1]
        elif line.startswith("Similar Question: "):
            rest = []
            for follow in lines[i + 1:]:
                if re.match(r"[A-Z]\. ", follow):
                    rest.append(follow)
                else:
                    break
            inputs["similar_question"] = "\n".join([line[len("Similar Question: "):], *rest])
        elif line.startswith("Extracted Choice: "):
            inputs["extracted_choice"] = line[len("Extracted Choice: "):]
        elif line.startswith("Correct Answer: "):
            inputs["correct_answer"] = line[len("Correct Answer: "):]
        elif line.startswith("Error Sentence: "):
            inputs["error_sentence"] = line[len("Error Sentence: "):]
    return inputs


# Scripted LM latency. The project's baseline compile probe ran at 20 ms per
# call; the constants split that mean into a per-call base, a per-prompt-word
# cost (the compile workload's prompts average about 430 words, so about
# 4.3 ms) and a tail that doubles the latency of one request in ten (2 ms on
# average). Compile re-sends identical requests, which share a tail decision,
# so a larger tail would make wall time vary from seed to seed.
LATENCY_BASE_S = 0.014
LATENCY_PER_WORD_S = 1e-5
LATENCY_TAIL_S = 0.020
LATENCY_TAIL_SHARE = 10  # percent of requests, chosen by content hash


def latency_s(prompt_words: int, content: str) -> float:
    """Scripted LM latency: per-call base, per-prompt-word cost, hashed heavy tail."""
    tail = zlib.crc32(content.encode("utf-8")) % 100 < LATENCY_TAIL_SHARE
    return LATENCY_BASE_S + LATENCY_PER_WORD_S * prompt_words + (LATENCY_TAIL_S if tail else 0.0)


# --- the answer key --------------------------------------------------------------------


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def rouge_l(candidate: str, reference: str) -> float:
    a, b = tokenize(candidate), tokenize(reference)
    if not a or not b:
        return 0.0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    lcs = prev[-1]
    if lcs == 0:
        return 0.0
    p, r = lcs / len(a), lcs / len(b)
    return 2 * p * r / (p + r)


@dataclass(frozen=True)
class Expected:
    record_id: str
    flag: int
    error_id: int
    correction: str | None  # None is NA
    failed: bool


def _attempt(oracle: Oracle, stage: str, demos: int, inputs: dict[str, str]) -> str | None:
    for attempt in (1, 2):
        value = oracle.answer(stage, demos, attempt, inputs)
        if value is not None:
            return value
    return None


def expected_prediction(
    oracle: Oracle, case: Case, mcq: Mcq | None, demos: dict[str, int], gate: float | None
) -> Expected:
    """The prediction the pipelines must produce for ``case`` given per-stage demo counts."""
    failed = Expected(case.record_id, 0, -1, None, True)
    opening = case.sentences[0]
    n = len(case.sentences)
    if mcq is None:
        flag = _attempt(oracle, "detect", demos.get("detect", 0), {"opening": opening})
        if flag is None:
            return failed
        if flag == "0":
            return Expected(case.record_id, 0, -1, None, False)
        line = _attempt(oracle, "localize", demos.get("localize", 0), {"opening": opening})
        if line is None or not 0 <= int(line) < n:
            return failed
        sentence = case.sentences[int(line)]
        candidate = _attempt(oracle, "correct", demos.get("correct", 0), {"error_sentence": sentence})
        if candidate is None:
            return failed
        final = candidate if rouge_l(candidate, sentence) >= gate else sentence
        return Expected(case.record_id, 1, int(line), final, False)
    rendered = "\n".join([f"Question: {mcq.question}", *(f"{label}. {text}" for label, text in mcq.options)])
    extracted = _attempt(
        oracle, "extract_choice", demos.get("extract_choice", 0),
        {"opening": opening, "similar_question": rendered},
    )
    if extracted is None:
        return failed
    verdict = oracle.answer("compare_answer", 0, 1, {"extracted_choice": extracted, "correct_answer": mcq.correct_text})
    if verdict == "match":
        return Expected(case.record_id, 0, -1, None, False)
    line = _attempt(oracle, "localize", 0, {"opening": opening, "extracted_choice": extracted})
    if line is None or not 0 <= int(line) < n:
        return failed
    sentence = case.sentences[int(line)]
    corrected = _attempt(
        oracle, "correct", demos.get("correct", 0),
        {"error_sentence": sentence, "extracted_choice": extracted, "correct_answer": mcq.correct_text},
    )
    if corrected is None:
        return failed
    return Expected(case.record_id, 1, int(line), corrected, False)


def expected_csv(expected: list[Expected]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("record_id", "error_flag", "error_sentence_id", "corrected_sentence"))
    for e in expected:
        writer.writerow([e.record_id, str(e.flag), str(e.error_id), "NA" if e.correction is None else e.correction])
    return out.getvalue()


def expected_quality(expected: list[Expected], cases: list[Case]) -> dict[str, float]:
    """flag accuracy, sentence accuracy and NA-aware ROUGE-L mean implied by the key."""
    flag = sentence = rouge = 0.0
    for e, c in zip(expected, cases):
        flag += e.flag == c.flag
        sentence += e.error_id == c.error_id
        if e.correction is None and not c.flag:
            rouge += 1.0
        elif e.correction is not None and c.flag:
            rouge += rouge_l(e.correction, c.correction)
    n = len(cases)
    return {"flag_accuracy": flag / n, "sentence_accuracy": sentence / n, "correction_rouge_l": rouge / n}
