#!/usr/bin/env python3
"""Regenerate the committed offline fixtures.

Run from the repository root after any change to prompt rendering, request
canonicalization, or the default pipelines:

    python3 tests/fixtures/regen.py

Rewrites, in this directory (or in the directory given to ``main``):
  - clinical_10.csv        ten labeled records in the canonical table format
  - replay_cache.jsonl     every completion the zero-shot staged pipeline
                           issues over those records, content-addressed
  - predictions_golden.csv the byte-exact predictions the replay must yield
  - traces_golden.jsonl    the byte-exact trace file the replay must yield
  - mcq_corpus.jsonl       a small MCQ corpus for index-building tests
"""

from __future__ import annotations

import sys
from pathlib import Path

FIXTURES_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES_DIR.parent))  # for helpers

from helpers import record_no_error, record_with_error, serialize_mcq_corpus, uw_gold_responder  # noqa: E402

from medcorr.corpus import serialize_clinical_records, McqRecord  # noqa: E402
from medcorr.gateway import LmGateway, ReplayCache, ScriptedBackend  # noqa: E402
from medcorr.pipelines import (  # noqa: E402
    default_uw_pipeline,
    predict_batch,
    serialize_predictions,
    serialize_traces,
)


def fixture_records():
    return [
        record_with_error(
            "fx001",
            [
                "CHIEF COMPLAINT: Progressive dyspnea on exertion.",
                "Transthoracic echo shows an ejection fraction of 25 percent.",
                "Started lisinopril for his hyperthyroidism.",
                "Will titrate beta blocker as tolerated.",
            ],
            2,
            "Started lisinopril for his heart failure.",
        ),
        record_no_error(
            "fx002",
            [
                "72 year old woman with community acquired pneumonia.",
                "Chest radiograph demonstrates a right lower lobe consolidation.",
                "She was started on ceftriaxone and azithromycin.",
                "Oxygen saturation improved to 95 percent on room air.",
            ],
        ),
        record_with_error(
            "fx003",
            [
                "Assessment: 58 year old man with poorly controlled type 2 diabetes.",
                "Hemoglobin A1c today is 5.1 percent, confirming poor glycemic control.",
                "Metformin dose increased to 1000 mg twice daily.",
            ],
            1,
            "Hemoglobin A1c today is 11.1 percent, confirming poor glycemic control.",
        ),
        record_no_error(
            "fx004",
            [
                "Postoperative day two after uncomplicated laparoscopic cholecystectomy.",
                "Diet advanced and pain controlled on oral analgesics.",
                "Incisions are clean, dry, and intact.",
            ],
        ),
        record_with_error(
            "fx005",
            [
                "65 year old admitted with acute onset left sided weakness.",
                "CT head without contrast showed no hemorrhage.",
                "tPA administered within the treatment window.",
                "Neurology attributed the deficit to hypoglycemia after normal glucose readings.",
            ],
            3,
            "Neurology attributed the deficit to ischemic stroke after normal glucose readings.",
        ),
        record_no_error(
            "fx006",
            [
                "Two month old here for routine well child examination.",
                "Growth tracking along the 50th percentile.",
                "Scheduled vaccinations administered without complication.",
            ],
        ),
        record_with_error(
            "fx007",
            [
                "HOSPITAL COURSE: Admitted for sepsis secondary to a urinary source.",
                "Blood cultures grew Escherichia coli sensitive to ceftriaxone.",
                "Antibiotics were stopped on admission per sensitivity results.",
                "Afebrile for 48 hours prior to discharge.",
            ],
            2,
            # note: this correction diverges enough that the 0.7 quality gate
            # rejects it, so the golden predictions keep the original sentence
            "Antibiotics were narrowed to ceftriaxone per sensitivity results.",
        ),
        record_no_error(
            "fx008",
            [
                "Followup for stage 3 chronic kidney disease.",
                "Estimated GFR stable at 38.",
                "Avoiding nephrotoxic medications; NSAIDs reviewed and discontinued.",
            ],
        ),
        record_with_error(
            "fx009",
            [
                "Hypokalemia - based on laboratory findings patient has hypervalinemia.",
                "Potassium repletion protocol initiated.",
                "Will recheck basic metabolic panel in the morning.",
            ],
            0,
            "Hypokalemia - based on laboratory findings patient has hypokalemia.",
        ),
        record_with_error(
            "fx010",
            [
                "Anemia workup continues.",
                "Iron studies reveal ferritin of 8, consistent with iron overload.",
                "Oral iron supplementation started.",
            ],
            1,
            "Iron studies reveal ferritin of 8, consistent with iron deficiency.",
        ),
    ]


def fixture_mcqs():
    return [
        McqRecord(
            question="A child with fever and productive cough has lobar consolidation. Most likely pathogen?",
            options=(
                ("A", "Haemophilus influenzae"),
                ("B", "Streptococcus pneumoniae"),
                ("C", "Mycoplasma pneumoniae"),
                ("D", "Klebsiella pneumoniae"),
            ),
            correct_label="B",
        ),
        McqRecord(
            question="Best initial therapy for newly diagnosed heart failure with reduced ejection fraction?",
            options=(("A", "lisinopril"), ("B", "verapamil"), ("C", "ibuprofen")),
            correct_label="A",
        ),
        McqRecord(
            question="Which laboratory finding confirms iron deficiency anemia?",
            options=(("A", "low ferritin"), ("B", "high ferritin"), ("C", "normal ferritin")),
            correct_label="A",
        ),
        McqRecord(
            question="A patient with sepsis from a urinary source grows E. coli. Next antibiotic step?",
            options=(("A", "stop antibiotics"), ("B", "narrow to ceftriaxone"), ("C", "add vancomycin")),
            correct_label="B",
        ),
        McqRecord(
            question="Acute left sided weakness with a normal CT head and normal glucose suggests?",
            options=(("A", "hypoglycemia"), ("B", "ischemic stroke"), ("C", "conversion disorder")),
            correct_label="B",
        ),
    ]


def main(out_dir: Path = FIXTURES_DIR) -> None:
    records = fixture_records()
    (out_dir / "clinical_10.csv").write_text(
        serialize_clinical_records(records), encoding="utf-8"
    )
    (out_dir / "mcq_corpus.jsonl").write_text(
        serialize_mcq_corpus(fixture_mcqs()), encoding="utf-8"
    )

    cache_path = out_dir / "replay_cache.jsonl"
    if cache_path.exists():
        cache_path.unlink()
    gateway = LmGateway(
        backend=ScriptedBackend(uw_gold_responder(records)),
        cache=ReplayCache(cache_path),
        record=True,
    )
    predictions = predict_batch(default_uw_pipeline(), records, gateway, concurrency=1)
    assert all(p.error is None for p in predictions), "fixture generation must not fail"
    (out_dir / "predictions_golden.csv").write_text(
        serialize_predictions(predictions), encoding="utf-8"
    )
    (out_dir / "traces_golden.jsonl").write_text(
        serialize_traces(predictions), encoding="utf-8"
    )
    print(f"wrote {len(records)} records, {len(ReplayCache(cache_path))} cache entries")


if __name__ == "__main__":
    main()
