"""Table 4: packet traces + ML16 vs TLS transactions.

The paper implements Dimopoulos et al.'s ML16 on packet traces and
finds it beats the TLS-transaction model by +5-7% accuracy and +4-9%
low-class recall — at ~1400x the record volume and ~60x the feature-
extraction compute (§4.2).  The cost side is measured in one place,
:mod:`repro.experiments.overhead`; this table compares accuracy only.
"""

from __future__ import annotations

from repro.collection.dataset import Dataset
from repro.experiments.common import (
    SERVICES,
    cv_report_for,
    features_for,
    format_percent,
    format_table,
    get_corpus,
    ml16_features_for,
)
from repro.experiments.registry import experiment

__all__ = ["run", "run_service", "main", "PAPER_TABLE4"]

#: Paper Table 4: ML16 (accuracy, recall, precision) and gains vs TLS.
PAPER_TABLE4 = {
    "svc1": {"arp": (0.74, 0.82, 0.73), "gain": (0.05, 0.09, 0.02)},
    "svc2": {"arp": (0.78, 0.85, 0.76), "gain": (0.07, 0.07, 0.05)},
    "svc3": {"arp": (0.78, 0.89, 0.78), "gain": (0.05, 0.04, 0.03)},
}


def run_service(dataset: Dataset, target: str = "combined") -> dict:
    """TLS-model vs ML16 A/R/P for one service."""
    y = dataset.labels(target)

    X_tls, _ = features_for(dataset)
    tls_report = cv_report_for(
        dataset, X_tls, y, {"features": "tls", "target": target}
    )

    X_pkt, _ = ml16_features_for(dataset)
    pkt_report = cv_report_for(
        dataset, X_pkt, y, {"features": "ml16", "target": target}
    )

    return {
        "tls": {
            "accuracy": tls_report.accuracy,
            "recall": tls_report.recall,
            "precision": tls_report.precision,
        },
        "ml16": {
            "accuracy": pkt_report.accuracy,
            "recall": pkt_report.recall,
            "precision": pkt_report.precision,
        },
        "gain": {
            "accuracy": pkt_report.accuracy - tls_report.accuracy,
            "recall": pkt_report.recall - tls_report.recall,
            "precision": pkt_report.precision - tls_report.precision,
        },
    }


def run(datasets: dict[str, Dataset] | None = None) -> dict:
    """Table 4 for every service."""
    if datasets is None:
        datasets = {svc: get_corpus(svc) for svc in SERVICES}
    return {svc: run_service(ds) for svc, ds in datasets.items()}


@experiment(
    "table4",
    title="Table 4",
    paper_ref="§4.2, Table 4",
    description="ML16 on packet traces vs the TLS-transaction model",
    order=90,
)
def main() -> dict:
    """Run and print Table 4."""
    result = run()
    print("Table 4 — ML16 on packet traces (gains vs TLS in parentheses)")
    rows = []
    for svc, r in result.items():
        paper = PAPER_TABLE4.get(svc)
        measured = (
            f"{format_percent(r['ml16']['accuracy'])} "
            f"({r['gain']['accuracy']:+.0%}) / "
            f"{format_percent(r['ml16']['recall'])} "
            f"({r['gain']['recall']:+.0%}) / "
            f"{format_percent(r['ml16']['precision'])} "
            f"({r['gain']['precision']:+.0%})"
        )
        paper_str = (
            f"{paper['arp'][0]:.0%} (+{paper['gain'][0]:.0%}) / "
            f"{paper['arp'][1]:.0%} (+{paper['gain'][1]:.0%}) / "
            f"{paper['arp'][2]:.0%} (+{paper['gain'][2]:.0%})"
            if paper
            else "-"
        )
        rows.append([svc, measured, paper_str])
    print(format_table(["service", "measured A/R/P", "paper A/R/P"], rows))
    return result


if __name__ == "__main__":
    main()
