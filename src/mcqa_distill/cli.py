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
    config_digest,
    effective_config,
    now_iso,
    stage_duration,
    templates_from_config,
    write_manifest,
)
from .core import FewShotSet, write_json
from .datasets import (
    Corpus,
    CorpusMeta,
    MalformedLine,
    SchemaError,
    compute_stats,
    cumulative_subsets,
    filter_by_tokens,
    import_benchmark,
    read_jsonl,
    simple_token_count,
    write_jsonl,
    IMPORT_FORMATS,
)
from .distillation import TrainConfig, train, write_loss_trace
from .evaluation import EmptyCorpus, HashedTfEmbedder, evaluate_accuracy, similarity_stats
from .gateway import BackendConfig, GatewayError, HttpBackend, MockBackend, load_script
from .generation import GenerationConfig, GenerationReport, generate
from .scoring import ScoringConfig, score_instances
from .students import ToyStudent


def fatal_errors(fn):
    """Map unrecoverable errors to exit code 2 with a stage-tagged message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (GatewayError, MalformedLine, SchemaError, EmptyCorpus, OSError, ValueError) as exc:
            click.echo(f"mcqa {fn.__name__}: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _build_backend(backend_cfg: dict):
    kind = backend_cfg["kind"]
    if kind == "mock":
        script_path = backend_cfg["script"]
        if not script_path:
            raise ValueError("mock backend needs [backend] script = <path>")
        return MockBackend(load_script(script_path))
    if kind == "http":
        return HttpBackend(
            BackendConfig(
                base_url=backend_cfg["base_url"],
                model_name=backend_cfg["model_name"],
                request_timeout=backend_cfg["request_timeout"],
                max_parallel_requests=backend_cfg["max_parallel_requests"],
                retry_limit=backend_cfg["retry_limit"],
            )
        )
    raise ValueError(f"unknown backend kind {kind!r}")


def _request_width(backend) -> int:
    """Teacher calls in flight: max_parallel_requests over HTTP; the mock is
    in-process CPU work, which threads would only slow down."""
    if isinstance(backend, HttpBackend):
        return backend.config.max_parallel_requests
    return 1


def _load_fewshot(path: str, topic: str = None) -> FewShotSet:
    fewshot_path = Path(path)
    if not fewshot_path.exists():
        raise click.UsageError(f"few-shot seed file not found: {fewshot_path}")
    corpus = read_jsonl(fewshot_path)
    if not len(corpus):
        raise click.UsageError(f"few-shot seed file is empty: {fewshot_path}")
    return FewShotSet(
        topic=topic or corpus.instances[0].topic, examples=corpus.instances
    )


def _write_corpus(instances, path, source: str, digest: str) -> Corpus:
    corpus = Corpus(
        tuple(instances),
        CorpusMeta(source=source, created_at=now_iso(), config_digest=digest),
    )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(corpus, path)
    return corpus


def _manifest_path(out: str) -> str:
    return f"{out}.manifest.json"


@click.group()
@click.version_option(version=__version__, prog_name="mcqa")
def main():
    """Few-shot MCQA pipeline: generate, score, train, evaluate."""


@main.command("generate")
@click.option("--config", "config_path", type=click.Path(), default=None, help="Config file.")
@click.option("--fewshot", required=True, help="Few-shot seed corpus (JSONL).")
@click.option("--strategy", type=click.Choice(["json", "decompose", "paraphrase"]), default=None)
@click.option("--topic", default=None, help="Override the prompt topic.")
@click.option("--count", type=int, default=None, help="Target instance count.")
@click.option("--temperature", type=float, default=None)
@click.option("--negatives", type=int, default=None, help="Negatives per instance (decompose).")
@click.option("--seed", type=int, default=None)
@click.option("--max-attempts", type=int, default=None)
@click.option("--base-url", default=None, help="HTTP backend base URL.")
@click.option("--model", "model_name", default=None, help="HTTP backend model name.")
@click.option("--out", required=True, type=click.Path(), help="Output corpus JSONL.")
@fatal_errors
def generate_cmd(config_path, fewshot, strategy, topic, count, temperature, negatives,
                 seed, max_attempts, base_url, model_name, out):
    """Generate a synthetic corpus from the few-shot seed set."""
    cfg = effective_config(
        config_path,
        {
            "generation": {
                "strategy": strategy,
                "target_count": count,
                "temperature": temperature,
                "negatives_n": negatives,
                "seed": seed,
                "max_attempts": max_attempts,
            },
            "backend": {"base_url": base_url, "model_name": model_name},
        },
    )
    digest = config_digest(cfg)
    gen = cfg["generation"]
    gen_cfg = GenerationConfig(
        strategy=gen["strategy"],
        temperature=gen["temperature"],
        negatives_n=gen["negatives_n"],
        target_count=gen["target_count"],
        seed=gen["seed"],
        max_attempts=gen["max_attempts"] or None,
        shuffle_choices=gen["shuffle_choices"],
    )
    fs = _load_fewshot(fewshot, topic)
    backend = _build_backend(cfg["backend"])
    templates = templates_from_config(cfg)

    started = time.perf_counter()
    instances, report = generate(
        fs, gen_cfg, backend, templates, _request_width(backend)
    )
    elapsed = time.perf_counter() - started

    _write_corpus(instances, out, f"generate:{gen_cfg.strategy}", digest)
    write_json(report.to_dict(), f"{out}.report.json")
    write_manifest(
        _manifest_path(out),
        cfg,
        gen_cfg.seed,
        {"generate": stage_duration(elapsed)},
        {"attempted": report.attempted, "parsed": report.parsed, "target": gen_cfg.target_count},
        __version__,
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
@click.option("--token-limit", type=int, default=None)
@click.option("--fallback", type=click.Choice(["one_hot", "skip"]), default=None)
@click.option("--base-url", default=None, help="HTTP backend base URL.")
@click.option("--model", "model_name", default=None, help="HTTP backend model name.")
@fatal_errors
def score(config_path, fewshot, in_path, out, token_limit, fallback, base_url, model_name):
    """Attach teacher scores to every instance of a corpus."""
    cfg = effective_config(
        config_path,
        {
            "scoring": {"prompt_token_limit": token_limit, "fallback": fallback},
            "backend": {"base_url": base_url, "model_name": model_name},
        },
    )
    digest = config_digest(cfg)
    scoring_cfg = ScoringConfig(
        prompt_token_limit=cfg["scoring"]["prompt_token_limit"],
        fallback=cfg["scoring"]["fallback"],
    )
    fs = _load_fewshot(fewshot)
    backend = _build_backend(cfg["backend"])
    corpus = read_jsonl(in_path)

    started = time.perf_counter()
    scored, counts = score_instances(
        corpus.instances,
        fs,
        scoring_cfg,
        backend,
        simple_token_count,
        _request_width(backend),
    )
    elapsed = time.perf_counter() - started

    _write_corpus(scored, out, f"score:{in_path}", digest)
    write_manifest(
        _manifest_path(out),
        cfg,
        0,
        {"score": stage_duration(elapsed)},
        counts,
        __version__,
    )
    click.echo(
        f"scored={counts['scored']} fallback={counts['fallback']} skipped={counts['skipped']}"
    )


@main.command("train")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path(), help="Trained model file.")
@click.option("--loss", type=click.Choice(["generate", "distill", "binary_bce"]), default=None)
@click.option("--iterations", type=int, default=None)
@click.option("--micro-batch", type=int, default=None)
@click.option("--accum", type=int, default=None, help="Gradient accumulation steps.")
@click.option("--lr", type=float, default=None)
@click.option("--distill-r", type=float, default=None)
@click.option("--seed", type=int, default=None)
@fatal_errors
def train_cmd(config_path, in_path, out, loss, iterations, micro_batch, accum, lr, distill_r, seed):
    """Train the reference student on a corpus; writes model + loss trace CSV."""
    cfg = effective_config(
        config_path,
        {
            "training": {
                "loss_mode": loss,
                "iterations": iterations,
                "micro_batch": micro_batch,
                "grad_accumulation": accum,
                "learning_rate": lr,
                "distill_temperature_r": distill_r,
                "seed": seed,
            }
        },
    )
    digest = config_digest(cfg)
    tr = cfg["training"]
    corpus = read_jsonl(in_path)
    if not len(corpus):
        raise click.UsageError(f"training corpus is empty: {in_path}")
    if tr["loss_mode"] == "distill":
        missing = sum(1 for inst in corpus if inst.teacher_scores is None)
        if missing:
            raise click.UsageError(
                f"distill loss needs teacher scores on every instance; {missing} missing"
            )
    student = ToyStudent(n_features=tr["n_features"], hash_seed=tr["hash_seed"])
    train_cfg = TrainConfig(
        iterations=tr["iterations"],
        micro_batch=tr["micro_batch"],
        grad_accumulation=tr["grad_accumulation"],
        learning_rate=tr["learning_rate"] or None,
        optimizer=tr["optimizer"],
        loss_mode=tr["loss_mode"],
        distill_temperature_r=tr["distill_temperature_r"],
        seed=tr["seed"],
    )

    started = time.perf_counter()
    _, result = train(student, corpus.instances, train_cfg)
    elapsed = time.perf_counter() - started

    Path(out).parent.mkdir(parents=True, exist_ok=True)
    student.save(out)
    write_loss_trace(result, f"{out}.trace.csv")
    write_manifest(
        _manifest_path(out),
        cfg,
        train_cfg.seed,
        {"train": stage_duration(elapsed)},
        {
            "instances": len(corpus),
            "iterations": train_cfg.iterations,
            "instance_visits": result.instance_visits,
            "visited_instances": result.visited_instances,
            "active_features": result.active_features,
        },
        __version__,
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
    cfg = effective_config(config_path, {})
    corpus = read_jsonl(in_path)
    if not len(corpus):
        raise click.UsageError(f"evaluation corpus is empty: {in_path}")
    student = ToyStudent.load(model)

    started = time.perf_counter()
    accuracy = evaluate_accuracy(student, corpus)
    elapsed = time.perf_counter() - started

    write_json({"metric": "accuracy", "value": accuracy, "instances": len(corpus)}, out)
    write_manifest(
        _manifest_path(out),
        cfg,
        0,
        {"eval": stage_duration(elapsed)},
        {"instances": len(corpus)},
        __version__,
    )
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
    cfg = effective_config(config_path, {"datasets": {"max_tokens": max_tokens}})
    corpus = read_jsonl(in_path)
    report = None
    if report_path:
        with open(report_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        report = GenerationReport(
            attempted=payload["attempted"],
            parsed=payload["parsed"],
            rejected_by_reason=payload.get("rejected_by_reason", {}),
        )

    started = time.perf_counter()
    result = compute_stats(corpus, simple_token_count, report)
    payload = result.to_dict()
    if max_tokens is not None:
        payload["kept_at_max_tokens"] = len(
            filter_by_tokens(corpus, simple_token_count, cfg["datasets"]["max_tokens"])
        )
    elapsed = time.perf_counter() - started

    write_json(payload, out)
    write_manifest(
        _manifest_path(out),
        cfg,
        0,
        {"stats": stage_duration(elapsed)},
        {"instances": result.count},
        __version__,
    )
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
    write_manifest(
        str(out_root / "subsets.manifest.json"),
        cfg,
        seed,
        {"subset": stage_duration(elapsed)},
        counts,
        __version__,
    )
    click.echo(f"wrote {len(subsets)} subsets to {out_root}")


@main.command("similarity")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--generated", required=True, type=click.Path())
@click.option("--reference", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@fatal_errors
def similarity(config_path, generated, reference, out):
    """Embedding similarity of generated questions against a reference corpus."""
    cfg = effective_config(config_path, {})
    generated_corpus = read_jsonl(generated)
    reference_corpus = read_jsonl(reference)

    started = time.perf_counter()
    result = similarity_stats(generated_corpus, reference_corpus, HashedTfEmbedder())
    elapsed = time.perf_counter() - started

    write_json(result, out)
    write_manifest(
        _manifest_path(out),
        cfg,
        0,
        {"similarity": stage_duration(elapsed)},
        {"generated": len(generated_corpus), "reference": len(reference_corpus)},
        __version__,
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
    write_manifest(
        _manifest_path(out),
        cfg,
        0,
        {"import": stage_duration(elapsed)},
        {"instances": len(corpus)},
        __version__,
    )
    click.echo(f"imported {len(corpus)} instances from {in_path}")


if __name__ == "__main__":
    main()
