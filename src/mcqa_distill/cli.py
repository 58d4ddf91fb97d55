"""Command-line surface wiring the pipeline end to end.

Every command reads its inputs, runs the corresponding module operation, and
writes its outputs plus a run manifest (``<out>.manifest.json``) recording the
resolved config, its digest, the seed, stage timings and counts. Exit codes:
0 success, 1 partial result (generation ran out of attempt budget), 2 usage
or fatal error.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import click

from . import __version__
from .config import (
    DEFAULTS,
    FALLBACKS,
    LOSS_MODES,
    config_digest,
    effective_config,
    now_iso,
    stage_config,
    write_manifest,
)
from .core import FewShotSet, write_json
from .datasets import (
    Corpus,
    CorpusMeta,
    compute_stats,
    cumulative_subsets,
    filter_by_tokens,
    import_benchmark,
    read_jsonl,
    write_jsonl,
    IMPORT_FORMATS,
)
from .gateway import BackendConfig, GatewayError, HttpBackend, MockBackend, load_script
from .generation import ATTEMPTS, generate
from .scoring import score_instances

# students, distillation and evaluation load numpy: each command imports them
# itself, so a command starts up with only the layers it runs.


def fatal_errors(fn):
    """Map unrecoverable errors to exit code 2 with a stage-tagged message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (GatewayError, OSError, ValueError) as exc:
            command = click.get_current_context().info_name
            click.echo(f"mcqa {command}: {exc}", err=True)
            sys.exit(2)

    return wrapper


_OVERRIDES = "mcqa_distill.config_flags"


def config_flag(section: str, key: str, *decls, **attrs):
    """A click option that sets ``[section] key`` of the command's config.

    Its value, or None when the flag is not given, is recorded in the
    context's overrides (see ``_flag_overrides``) instead of being passed to
    the command. Its type is that of the key's default unless ``attrs`` gives
    one, such as a ``click.Choice``.
    """

    def record(ctx, param, value):
        ctx.meta.setdefault(_OVERRIDES, {}).setdefault(section, {})[key] = value

    attrs.setdefault("type", type(DEFAULTS[section][key]))
    return click.option(*decls, expose_value=False, callback=record, **attrs)


def _flag_overrides() -> dict:
    """``{section: {key: value}}`` as the running command's config flags set it."""
    return click.get_current_context().meta.get(_OVERRIDES, {})


def _teacher_flags(fn):
    """``--base-url`` and ``--model``, for the commands that call the teacher."""
    fn = config_flag("backend", "model_name", "--model", help="HTTP backend model name.")(fn)
    return config_flag("backend", "base_url", "--base-url", help="HTTP backend base URL.")(fn)


def _build_backend(config: BackendConfig):
    if config.kind == "http":
        return HttpBackend(config)
    if not config.script:
        raise ValueError("mock backend needs [backend] script = <path>")
    return MockBackend(load_script(config.script))


def _request_width(backend) -> int:
    """Teacher calls in flight: max_parallel_requests over HTTP; the mock is
    in-process CPU work, which threads would only slow down."""
    if isinstance(backend, HttpBackend):
        return backend.config.max_parallel_requests
    return 1


def _load_fewshot(path: str, topic: str = None) -> FewShotSet:
    examples = read_jsonl(path).instances
    topic = topic or next((example.topic for example in examples), None)
    return FewShotSet(topic=topic, examples=examples)


def _write_corpus(instances, path, source: str, digest: str) -> Corpus:
    corpus = Corpus(
        tuple(instances),
        CorpusMeta(source=source, created_at=now_iso(), config_digest=digest),
    )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(corpus, path)
    return corpus


def _parse_success_rate(report_path) -> float:
    """``parsed / attempted`` of a generation report file."""
    with open(report_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        attempted, parsed = payload.get("attempted"), payload.get("parsed")
        if type(attempted) is int and type(parsed) is int and 0 <= parsed <= attempted:
            return parsed / attempted if attempted else 0.0
    raise ValueError(
        f"{report_path} is not a generation report: expected a JSON object "
        "with integer 'attempted' and 'parsed', 0 <= parsed <= attempted"
    )


@click.group()
@click.version_option(version=__version__, prog_name="mcqa")
def main():
    """Few-shot MCQA pipeline: generate, score, train, evaluate."""


@main.command("generate")
@click.option("--config", "config_path", type=click.Path(), default=None, help="Config file.")
@click.option("--fewshot", required=True, help="Few-shot seed corpus (JSONL).")
@config_flag("generation", "strategy", "--strategy", type=click.Choice(tuple(ATTEMPTS)))
@click.option("--topic", default=None, help="Override the prompt topic.")
@config_flag("generation", "target_count", "--count", help="Target instance count.")
@config_flag("generation", "temperature", "--temperature")
@config_flag("generation", "negatives_n", "--negatives", help="Negatives per instance (decompose).")
@config_flag("generation", "seed", "--seed")
@config_flag("generation", "max_attempts", "--max-attempts")
@_teacher_flags
@click.option("--out", required=True, type=click.Path(), help="Output corpus JSONL.")
@fatal_errors
def generate_cmd(config_path, fewshot, topic, out):
    """Generate a synthetic corpus from the few-shot seed set."""
    cfg = effective_config(config_path, _flag_overrides())
    digest = config_digest(cfg)
    gen_cfg = stage_config(cfg, "generation")
    fs = _load_fewshot(fewshot, topic)
    backend = _build_backend(stage_config(cfg, "backend"))

    # A run the teacher stops raises a GatewayError and writes nothing: no
    # corpus, report or manifest. Keeping the committed prefix needs a
    # request journal to resume from.
    started = time.perf_counter()
    instances, report = generate(fs, gen_cfg, backend, _request_width(backend))
    elapsed = time.perf_counter() - started

    _write_corpus(instances, out, f"generate:{gen_cfg.strategy}", digest)
    write_json(report.to_dict(), f"{out}.report.json")
    write_manifest(
        out, cfg, gen_cfg.seed, {"generate": elapsed},
        {"attempted": report.attempted, "parsed": report.parsed, "target": gen_cfg.target_count},
        topic=fs.topic,
    )
    click.echo(
        f"generated {len(instances)}/{gen_cfg.target_count} instances "
        f"({report.attempted} attempts, success rate {report.success_rate:.3f})"
    )
    if len(instances) < gen_cfg.target_count:
        click.echo("attempt budget exhausted before reaching the target", err=True)
        sys.exit(1)


@main.command("score")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--fewshot", required=True, help="Few-shot seed corpus (JSONL).")
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@config_flag("scoring", "prompt_token_limit", "--token-limit")
@config_flag("scoring", "fallback", "--fallback", type=click.Choice(FALLBACKS))
@_teacher_flags
@fatal_errors
def score(config_path, fewshot, in_path, out):
    """Attach teacher scores to every instance of a corpus."""
    cfg = effective_config(config_path, _flag_overrides())
    digest = config_digest(cfg)
    scoring_cfg = stage_config(cfg, "scoring")
    fs = _load_fewshot(fewshot)
    backend = _build_backend(stage_config(cfg, "backend"))
    corpus = read_jsonl(in_path)

    started = time.perf_counter()
    scored, counts = score_instances(
        corpus.instances, fs, scoring_cfg, backend, _request_width(backend)
    )
    elapsed = time.perf_counter() - started

    _write_corpus(scored, out, f"score:{in_path}", digest)
    write_manifest(out, cfg, 0, {"score": elapsed}, counts)
    click.echo(
        f"scored={counts['scored']} fallback={counts['fallback']} skipped={counts['skipped']}"
    )


@main.command("train")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path(), help="Trained model file.")
@config_flag("training", "loss_mode", "--loss", type=click.Choice(LOSS_MODES))
@config_flag("training", "iterations", "--iterations")
@config_flag("training", "micro_batch", "--micro-batch")
@config_flag("training", "grad_accumulation", "--accum", help="Gradient accumulation steps.")
@config_flag("training", "learning_rate", "--lr")
@config_flag("training", "distill_temperature_r", "--distill-r")
@config_flag("training", "seed", "--seed")
@fatal_errors
def train_cmd(config_path, in_path, out):
    """Train the reference student on a corpus; writes model + loss trace CSV."""
    from .distillation import train, write_loss_trace
    from .students import ToyStudent

    cfg = effective_config(config_path, _flag_overrides())
    train_cfg = stage_config(cfg, "training")
    corpus = read_jsonl(in_path)
    student = ToyStudent(train_cfg.n_features, train_cfg.hash_seed)

    started = time.perf_counter()
    _, result = train(student, corpus.instances, train_cfg)
    elapsed = time.perf_counter() - started

    Path(out).parent.mkdir(parents=True, exist_ok=True)
    student.save(out)
    write_loss_trace(result, f"{out}.trace.csv")
    write_manifest(
        out, cfg, train_cfg.seed, {"train": elapsed},
        {
            "instances": len(corpus),
            "iterations": train_cfg.iterations,
            "instance_visits": result.instance_visits,
            "visited_instances": result.visited_instances,
            "active_features": result.active_features,
        },
    )
    click.echo(
        f"trained {train_cfg.iterations} steps ({result.instance_visits} instance visits), "
        f"final loss {result.losses[-1]:.6f}"
    )


@main.command("eval")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--model", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@fatal_errors
def eval_cmd(config_path, in_path, model, out):
    """Evaluate a trained model's accuracy on a corpus."""
    from .evaluation import evaluate_accuracy
    from .students import ToyStudent

    cfg = effective_config(config_path, {})
    corpus = read_jsonl(in_path)
    student = ToyStudent.load(model)

    started = time.perf_counter()
    accuracy = evaluate_accuracy(student, corpus)
    elapsed = time.perf_counter() - started

    write_json({"metric": "accuracy", "value": accuracy, "instances": len(corpus)}, out)
    write_manifest(out, cfg, 0, {"eval": elapsed}, {"instances": len(corpus)})
    click.echo(f"accuracy {accuracy:.4f} over {len(corpus)} instances")


@main.command("stats")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Generation report JSON to copy the parse success rate from.")
@click.option("--max-tokens", type=int, default=None,
              help="Also report the count remaining after token filtering.")
@fatal_errors
def stats(config_path, in_path, out, report_path, max_tokens):
    """Corpus statistics: count, token length mean/std, parse success rate."""
    cfg = effective_config(config_path, {})
    corpus = read_jsonl(in_path)
    rate = _parse_success_rate(report_path) if report_path else None

    started = time.perf_counter()
    result = compute_stats(corpus, rate)
    payload = result.to_dict()
    if max_tokens is not None:
        payload["kept_at_max_tokens"] = len(filter_by_tokens(corpus, max_tokens))
    elapsed = time.perf_counter() - started

    write_json(payload, out)
    write_manifest(out, cfg, 0, {"stats": elapsed}, {"instances": result.count})
    click.echo(
        f"{result.count} instances, token length {result.token_len_mean:.1f} "
        f"+- {result.token_len_std:.1f}"
    )


@main.command("subset")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--sizes", required=True, help="Ascending sizes, e.g. 16,32,64.")
@click.option("--seed", type=int, default=0)
@click.option("--out-dir", required=True, type=click.Path())
@fatal_errors
def subset(config_path, in_path, sizes, seed, out_dir):
    """Cumulative subsets: each larger subset extends the smaller by prefix."""
    cfg = effective_config(config_path, {})
    digest = config_digest(cfg)
    corpus = read_jsonl(in_path)
    size_list = [int(s) for s in sizes.split(",") if s.strip()]

    started = time.perf_counter()
    subsets = cumulative_subsets(corpus, size_list, seed)
    elapsed = time.perf_counter() - started

    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    counts = {}
    for size, sub in subsets.items():
        path = out_root / f"subset_{size}.jsonl"
        _write_corpus(sub.instances, path, f"subset:{size}:{in_path}", digest)
        counts[f"subset_{size}"] = size
    write_manifest(out_root / "subsets", cfg, seed, {"subset": elapsed}, counts)
    click.echo(f"wrote {len(subsets)} subsets to {out_root}")


@main.command("similarity")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--generated", required=True, type=click.Path())
@click.option("--reference", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@fatal_errors
def similarity(config_path, generated, reference, out):
    """Embedding similarity of generated questions against a reference corpus."""
    from .evaluation import HashedTfEmbedder, similarity_stats

    cfg = effective_config(config_path, {})
    generated_corpus = read_jsonl(generated)
    reference_corpus = read_jsonl(reference)

    started = time.perf_counter()
    result = similarity_stats(generated_corpus, reference_corpus, HashedTfEmbedder())
    elapsed = time.perf_counter() - started

    write_json(result, out)
    write_manifest(
        out, cfg, 0, {"similarity": elapsed},
        {"generated": len(generated_corpus), "reference": len(reference_corpus)},
    )
    click.echo(
        f"avg_of_max {result['avg_of_max']:.4f}, max_of_max {result['max_of_max']:.4f}"
    )


@main.command("import")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--format", "fmt", required=True, type=click.Choice(IMPORT_FORMATS))
@click.option("--topic", default=None)
@click.option("--out", required=True, type=click.Path())
@fatal_errors
def import_cmd(config_path, in_path, fmt, topic, out):
    """Import a benchmark file into the corpus JSONL format."""
    cfg = effective_config(config_path, {})
    digest = config_digest(cfg)

    started = time.perf_counter()
    corpus = import_benchmark(in_path, fmt, topic)
    elapsed = time.perf_counter() - started

    _write_corpus(corpus.instances, out, f"import:{fmt}:{in_path}", digest)
    write_manifest(out, cfg, 0, {"import": elapsed}, {"instances": len(corpus)})
    click.echo(f"imported {len(corpus)} instances from {in_path}")


if __name__ == "__main__":
    main()
