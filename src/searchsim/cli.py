"""Command-line front end: ``index``, ``simulate``, ``evaluate``, ``report``.

Exit codes, chosen by ``main`` alone: 0 success, 1 bad input (``REFUSALS``),
2 any other failure, 3 simulation finished but anomalies exceeded the threshold.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import BACKEND_HTTP, BACKEND_SCRIPTED, CampaignConfig, ConfigError
from .corpus import ParseReport, parse_qrels
from .index import IndexBuildError, IndexFormatError, build_index, load_index, save_index
from .llm import BackendError, probe_endpoint
from .metrics import (
    SCOPE_INSPECTED,
    SCOPE_JUDGED,
    aggregate_curves,
    information_gain_curve,
    sdcg_curve,
    write_csv,
)
from .session import (
    CampaignError,
    LogFormatError,
    read_campaign_manifest,
    read_session_log,
    run_campaign,
    session_log_filename,
    write_campaign_manifest,
    write_session_log,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_ANOMALIES = 3

# bad input, refused with a message that names it: exit 1
REFUSALS = (ConfigError, CampaignError, IndexBuildError, IndexFormatError, LogFormatError)


def _load_config(args) -> CampaignConfig:
    config = CampaignConfig.from_file(args.config)
    if getattr(args, "out", None):
        config.output_dir = Path(args.out)
    if getattr(args, "backend", None):
        config.backend_kind = args.backend
    if getattr(args, "seed", None) is not None:
        config.campaign_seed = args.seed
    return config


def _index_path(config: CampaignConfig) -> Path:
    return config.output_dir / "index.json"


def _qrels_counts(qrels, report: ParseReport) -> str:
    return f"qrels={len(qrels)} skipped={report.skipped} warnings={report.warnings}"


def cmd_index(args) -> int:
    config = _load_config(args)
    problems = config.validate(simulate=False)
    if problems:
        raise ConfigError("; ".join(problems))
    report = ParseReport()
    documents = config.load_documents(report)
    index = build_index(documents, **config.index_options())
    config.output_dir.mkdir(parents=True, exist_ok=True)
    path = _index_path(config)
    save_index(index, path)
    print(f"indexed {index.n_docs} documents into {path}")
    print(f"n_docs={index.n_docs} vocabulary={index.vocabulary_size} "
          f"avg_doc_len={index.avg_doc_len:.2f} skipped={report.skipped}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args)
    problems = config.validate()
    index_path = _index_path(config)
    if not index_path.is_file():
        problems.append(f"index not found at {index_path}; run the index command first")
    if problems:
        raise ConfigError("; ".join(problems))
    if config.backend_kind == BACKEND_HTTP:
        probe = replace(config.llm, timeout=min(config.llm.timeout, 10.0))
        if not probe_endpoint(probe):
            raise BackendError(f"chat endpoint unreachable: {config.llm.endpoint}")
    try:  # a term's postings are refused on first use, inside the campaign
        index = load_index(index_path)
        mismatches = config.index_mismatches(index)
        if mismatches:
            raise ConfigError(f"index {index_path} was built with other options than the "
                              f"config: {', '.join(mismatches)}; rebuild the index with "
                              "`searchsim index`")
        topics_report, qrels_report = ParseReport(), ParseReport()
        topics = config.load_topics(topics_report)
        qrels = config.load_qrels(qrels_report)
        print(f"topics={len(topics)} skipped={topics_report.skipped}")
        print(_qrels_counts(qrels, qrels_report))
        backend = config.make_backend()
        logs = run_campaign(topics, config.users, index, qrels,
                            policy=config.policy, cost_model=config.cost_model,
                            backend=backend, templates=config.make_templates(),
                            campaign_seed=config.campaign_seed, workers=args.workers)
        config_hash = config.semantic_hash()
        logs_dir = config.output_dir / "logs"
        logs_dir.mkdir(parents=True, exist_ok=True)
        for log in logs:
            log.config_hash = config_hash
            write_session_log(log, logs_dir)
        write_campaign_manifest(logs_dir, logs, campaign_seed=config.campaign_seed,
                                config_hash=config_hash)
    except IndexFormatError as exc:
        raise IndexFormatError(f"{index_path}: {exc}") from exc
    anomalies = sum(log.anomaly_count for log in logs)
    print(f"wrote {len(logs)} session logs to {logs_dir} "
          f"(config hash {config_hash[:12]}, {anomalies} anomalies)")
    if anomalies > config.anomaly_threshold:
        print(f"anomaly count {anomalies} exceeds threshold {config.anomaly_threshold}",
              file=sys.stderr)
        return EXIT_ANOMALIES
    return EXIT_OK


def _read_manifest(manifest_path: Path) -> dict:
    """The campaign manifest, refused unless each session entry names its
    log ``file`` and gives its ``interactions`` count."""
    try:
        manifest = read_campaign_manifest(manifest_path.parent)
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"{manifest_path} is not a JSON manifest: {exc}") from exc
    sessions = manifest.get("sessions", []) if isinstance(manifest, dict) else None
    if not isinstance(sessions, list) or not all(
            isinstance(s, dict) and isinstance(s.get("file"), str)
            and type(s.get("interactions")) is int for s in sessions):
        raise ConfigError(f"{manifest_path} is not a campaign manifest: it must be an "
                          'object whose "sessions" each give a "file" and an integer '
                          '"interactions"')
    return manifest


def _collect_logs(logs_dir: Path, force: bool):
    manifest_path = logs_dir / "manifest.json"
    manifest = _read_manifest(manifest_path) if manifest_path.is_file() else None
    checked = manifest is not None and not force
    listed = {s["file"]: s["interactions"]
              for s in manifest.get("sessions", [])} if checked else {}
    paths = sorted(logs_dir.glob("*.jsonl"))
    present = {p.name for p in paths}
    missing = [name for name in listed if name not in present]
    if missing:
        raise ConfigError(f"{len(missing)} session log(s) listed in {manifest_path} are "
                          f"missing: {', '.join(missing)}; rerun with --force to evaluate "
                          "the logs that are present")
    unlisted = [p.name for p in paths if p.name not in listed] if checked else []
    if unlisted:
        raise ConfigError(f"{len(unlisted)} session log(s) in {logs_dir} are not listed in "
                          f"{manifest_path}: {', '.join(unlisted)}; rerun with --force to "
                          "evaluate every log that is present")
    logs = [read_session_log(p) for p in paths]
    owners: dict[str, str] = {}
    for p, log in zip(paths, logs):
        name = session_log_filename(log)
        owner = owners.setdefault(name, p.name)
        if owner != p.name:
            raise ConfigError(f"session logs {owner} and {p.name} both hold the session "
                              f"{name}, so they would write the same raw curve files; "
                              "evaluate them in separate directories")
    miscounted = [f"{p.name} has {len(log.interactions)}, not {listed[p.name]}"
                  for p, log in zip(paths, logs)
                  if p.name in listed and len(log.interactions) != listed[p.name]]
    if miscounted:
        raise ConfigError(f"interaction counts differ from {manifest_path}: "
                          f"{'; '.join(miscounted)}; rerun with --force to evaluate "
                          "the logs as they are")
    if not logs:
        raise ConfigError(f"no session logs found in {logs_dir}")
    hashes = {log.config_hash for log in logs}
    if len(hashes) > 1 and not force:
        raise ConfigError(
            "logs come from different campaign configs "
            f"({len(hashes)} distinct hashes); rerun with --force to mix them")
    return logs, manifest


def cmd_evaluate(args) -> int:
    logs_dir = Path(args.logs)
    if not logs_dir.is_dir():
        raise ConfigError(f"logs directory not found: {logs_dir}")
    for flag, base in (("--sdcg-b", args.sdcg_b), ("--sdcg-bq", args.sdcg_bq)):
        if not 2 <= base < math.inf:
            raise ConfigError(f"{flag} must be a finite number >= 2, got {base}")
    qrels = None
    if args.qrels:
        qrels_path = Path(args.qrels)
        if not qrels_path.is_file():
            raise ConfigError(f"qrels file not found: {qrels_path}")
        report = ParseReport()
        qrels = parse_qrels(qrels_path.read_bytes(), report=report)
        print(_qrels_counts(qrels, report))
    if args.scope == SCOPE_INSPECTED and qrels is None:
        raise ConfigError("--scope inspected needs --qrels")
    logs, manifest = _collect_logs(logs_dir, args.force)

    out_dir = Path(args.out) if args.out else logs_dir.parent / "eval"
    raw_dir = out_dir / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    by_kind: dict[str, list] = {}
    unjudged_rows = []
    for log in logs:
        ig = information_gain_curve(log)
        sd = sdcg_curve(log, b=args.sdcg_b, bq=args.sdcg_bq, scope=args.scope, qrels=qrels)
        stem = session_log_filename(log).removesuffix(".jsonl")
        write_csv(raw_dir / f"{stem}.ig.csv", ig.points, ("x", "y"))
        write_csv(raw_dir / f"{stem}.sdcg.csv", sd.points, ("x", "y"))
        by_kind.setdefault(log.user_kind.value, []).append((ig, sd))
        unjudged_rows.append((log.user_kind.value, log.topic_id,
                              ig.unjudged_relevant_count))
    entries = []
    for kind in sorted(by_kind):
        for metric, curves in zip(("ig", "sdcg"), zip(*by_kind[kind])):
            rows = aggregate_curves(curves)
            filename = f"{args.name}.{metric}.{kind}.csv"
            write_csv(out_dir / filename, rows, ("x", "mean_y", "n"))
            entries.append({"kind": kind, "metric": metric, "file": filename})
    unjudged_rows.sort()
    write_csv(out_dir / "unjudged_summary.csv", unjudged_rows,
              ("user_kind", "topic_id", "unjudged_relevant_count"))
    eval_manifest = {
        "record": "evaluation",
        "config_hashes": sorted({log.config_hash for log in logs if log.config_hash}),
        "campaign_seed": manifest.get("campaign_seed") if manifest else None,
        "scope": args.scope,
        "sdcg_b": args.sdcg_b,
        "sdcg_bq": args.sdcg_bq,
        "curves": entries,
    }
    (out_dir / "eval_manifest.json").write_text(
        json.dumps(eval_manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(entries) + 1} curve files to {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    out_dir = Path(args.eval_dir)
    manifest_path = out_dir / "eval_manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"no evaluation manifest in {out_dir}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    rows = []
    for curve in manifest.get("curves", []):
        lines = (out_dir / curve["file"]).read_text(encoding="utf-8").strip().splitlines()
        if len(lines) > 1:
            final = lines[-1].split(",")
            rows.append((curve["kind"], curve["metric"], float(final[0]), float(final[1])))
    if not rows:
        raise ConfigError(f"no curve files listed in {manifest_path}")
    print(f"{'user':10} {'metric':6} {'final_x':>12} {'final_mean':>12}")
    for kind, metric, x, y in sorted(rows):
        print(f"{kind:10} {metric:6} {x:12.3f} {y:12.4f}")
    unjudged = out_dir / "unjudged_summary.csv"
    if unjudged.is_file():
        total = sum(int(line.rsplit(",", 1)[1])
                    for line in unjudged.read_text(encoding="utf-8").strip().splitlines()[1:])
        print(f"unjudged-but-relevant judgments across sessions: {total}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="searchsim",
        description="Simulate interactive search sessions and evaluate the logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="parse a collection and build the index")
    p_index.add_argument("--config", required=True)
    p_index.add_argument("--out", help="override the output directory")
    p_index.set_defaults(func=cmd_index)

    p_sim = sub.add_parser("simulate", help="run the configured campaign")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", help="override the output directory")
    p_sim.add_argument("--backend", choices=[BACKEND_SCRIPTED, BACKEND_HTTP])
    p_sim.add_argument("--seed", type=int, help="override the campaign seed")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="most backend requests in flight at once (default 1); "
                       "the sessions run on twice as many threads")
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("evaluate", help="compute curves from session logs")
    p_eval.add_argument("--logs", required=True, help="directory of session logs")
    p_eval.add_argument("--out", help="output directory (default: sibling 'eval')")
    p_eval.add_argument("--qrels", help="qrels file, required for --scope inspected")
    p_eval.add_argument("--scope", choices=[SCOPE_JUDGED, SCOPE_INSPECTED],
                        default=SCOPE_JUDGED)
    p_eval.add_argument("--sdcg-b", type=float, default=2.0, help="rank log base, >= 2")
    p_eval.add_argument("--sdcg-bq", type=float, default=4.0, help="query log base, >= 2")
    p_eval.add_argument("--name", default="campaign", help="prefix for curve files")
    p_eval.add_argument("--force", action="store_true",
                        help="evaluate the logs that are present even if they mix "
                        "campaign configs, miss logs or interactions that "
                        "manifest.json lists, or are not listed there; two logs "
                        "of one topic and user kind are refused all the same")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="print a summary of an evaluation")
    p_rep.add_argument("eval_dir")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except REFUSALS as exc:
        message, code = str(exc), EXIT_VALIDATION
    except KeyboardInterrupt:
        message, code = "interrupted", EXIT_RUNTIME
    except Exception as exc:
        message, code = f"{args.command} failed: {exc}", EXIT_RUNTIME
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
