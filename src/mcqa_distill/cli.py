"""Command-line surface wiring the pipeline end to end.

Each command is declared once, through ``command(name)``, and ``main`` runs it
on the standard library's ``argparse``. Every command reads its inputs, runs
the corresponding module operation, and writes its outputs plus a run manifest
(``<out>.manifest.json``) recording the resolved config, its digest, the seed,
stage timings and counts. Exit codes: 0 success, 1 partial result (generation
ran out of attempt budget), 2 usage or fatal error.

Commands run numpy's BLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is
set: ``main`` sets it to 1 before any command imports numpy. The student's
small dot products never use more than one thread, and the idle OpenBLAS pool
numpy would otherwise start cost 50-65 ms of CPU per command that loads
numpy (train, eval, similarity) on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

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
from .gateway import GatewayError, HttpBackend, MockBackend, load_script
from .generation import ATTEMPTS, generate
from .scoring import score_instances

# students, distillation and evaluation load numpy: each command imports them
# itself, so a command starts up with only the layers it runs.

COMMANDS = {}  # name -> the command's function, with its ``options`` (see ``option``)


def option(*flags, **attrs):
    """Prepend ``(flags, attrs)``, one ``add_argument`` call, to the decorated
    command's ``options``: stacked, the decorators list them top down."""

    def declare(fn):
        fn.options = [(flags, attrs), *getattr(fn, "options", ())]
        return fn

    return declare


def config_flag(section: str, key: str, *flags, **attrs):
    """An option that sets ``[section] key`` of the command's config: its
    ``dest`` is ``"section.key"``, and its type that of the key's default
    unless ``attrs`` gives one."""
    attrs.setdefault("type", type(DEFAULTS[section][key]))
    return option(*flags, dest=f"{section}.{key}", **attrs)


def _teacher_flags(fn):
    """``--base-url`` and ``--model``, for the commands that call the teacher."""
    fn = config_flag("backend", "model_name", "--model", help="HTTP backend model name.")(fn)
    return config_flag("backend", "base_url", "--base-url", help="HTTP backend base URL.")(fn)


def command(name: str):
    """Register the decorated ``fn`` as ``mcqa <name>`` with a ``--config``
    option; ``main`` calls it as ``fn(cfg, **options)``."""

    def register(fn):
        COMMANDS[name] = option("--config", dest="config_path", help="Config file.")(fn)
        return fn

    return register


def main(args=None, prog_name="mcqa"):
    """Run the command line ``args`` (default ``sys.argv[1:]``) and exit.

    The command gets the resolved config: defaults <- its ``--config`` file <-
    its config flags. A ``GatewayError``, ``OSError`` or ``ValueError`` it
    raises is unrecoverable: ``mcqa <name>: <message>`` on stderr and exit 2.
    """
    # Before any command imports numpy: its bundled OpenBLAS otherwise starts a
    # pool of one worker thread per core at import. On a 2-core Linux host that
    # pool made ``import numpy`` cost 107-127 ms of CPU instead of 56-62 ms
    # (medians of two batches of 15), in every train, eval or similarity
    # command. The pool never helps: the student's only BLAS calls are dot
    # products over a few dozen features, which OpenBLAS runs on one thread.
    # An exported value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    summary = "Few-shot MCQA pipeline: generate, score, train, evaluate."
    parser = argparse.ArgumentParser(prog_name, description=summary, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, fn in COMMANDS.items():
        sub = subparsers.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                    allow_abbrev=False)
        for flags, attrs in fn.options:
            sub.add_argument(*flags, **attrs)
    namespace, unknown = parser.parse_known_args(args)
    if unknown:  # under the command's own usage, which lists its options
        subparsers.choices[namespace.command].error("unrecognized arguments: " + " ".join(unknown))
    options = vars(namespace)
    name, config_path = options.pop("command"), options.pop("config_path")
    overrides = {}
    for dest in [dest for dest in options if "." in dest]:
        section, key = dest.split(".")
        overrides.setdefault(section, {})[key] = options.pop(dest)
    try:
        COMMANDS[name](effective_config(config_path, overrides), **options)
    except (GatewayError, OSError, ValueError) as exc:
        parser.exit(2, f"mcqa {name}: {exc}\n")
    parser.exit()


def timed(fn, *args):
    """``(fn(*args), the wall-clock seconds it took)``."""
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def _teacher(cfg):
    """The configured teacher backend and how many calls to keep in flight:
    ``max_parallel_requests`` over HTTP; the mock is in-process CPU work,
    which threads would only slow down."""
    config = stage_config(cfg, "backend")
    if config.kind == "http":
        return HttpBackend(config), config.max_parallel_requests
    if not config.script:
        raise ValueError("mock backend needs [backend] script = <path>")
    return MockBackend(load_script(config.script)), 1


def _load_fewshot(path: str, topic: str = None) -> FewShotSet:
    examples = read_jsonl(path).instances
    topic = topic or next((example.topic for example in examples), None)
    return FewShotSet(topic=topic, examples=examples)


def _write_corpus(instances, path, source: str, cfg) -> None:
    meta = CorpusMeta(source=source, created_at=now_iso(), config_digest=config_digest(cfg))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(Corpus(tuple(instances), meta), path)


def _parse_success_rate(report_path) -> float:
    """``parsed / attempted`` of a generation report file."""
    with open(report_path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError):  # not JSON, or nested past the stack
            payload = None
    if isinstance(payload, dict):
        attempted, parsed = payload.get("attempted"), payload.get("parsed")
        if type(attempted) is int and type(parsed) is int and 0 <= parsed <= attempted:
            return parsed / attempted if attempted else 0.0
    raise ValueError(
        f"{report_path} is not a generation report: expected a JSON object "
        "with integer 'attempted' and 'parsed', 0 <= parsed <= attempted"
    )


@command("generate")
@option("--fewshot", required=True, help="Few-shot seed corpus (JSONL).")
@config_flag("generation", "strategy", "--strategy", choices=tuple(ATTEMPTS))
@option("--topic", help="Override the prompt topic.")
@config_flag("generation", "target_count", "--count", help="Target instance count.")
@config_flag("generation", "temperature", "--temperature")
@config_flag("generation", "negatives_n", "--negatives", help="Negatives per instance (decompose).")
@config_flag("generation", "seed", "--seed")
@config_flag("generation", "max_attempts", "--max-attempts")
@_teacher_flags
@option("--out", required=True, help="Output corpus JSONL.")
def generate_cmd(cfg, fewshot, topic, out):
    """Generate a synthetic corpus from the few-shot seed set."""
    gen_cfg = stage_config(cfg, "generation")
    fs = _load_fewshot(fewshot, topic)
    backend, width = _teacher(cfg)

    # A run the teacher stops raises a GatewayError and writes nothing: no
    # corpus, report or manifest. Keeping the committed prefix needs a
    # request journal to resume from.
    (instances, report), elapsed = timed(generate, fs, gen_cfg, backend, width)

    _write_corpus(instances, out, f"generate:{gen_cfg.strategy}", cfg)
    write_json(report.to_dict(), f"{out}.report.json")
    write_manifest(
        out, cfg, gen_cfg.seed, {"generate": elapsed},
        {"attempted": report.attempted, "parsed": report.parsed, "target": gen_cfg.target_count},
        topic=fs.topic,
    )
    print(
        f"generated {len(instances)}/{gen_cfg.target_count} instances "
        f"({report.attempted} attempts, success rate {report.success_rate:.3f})"
    )
    if len(instances) < gen_cfg.target_count:
        print("attempt budget exhausted before reaching the target", file=sys.stderr)
        sys.exit(1)


@command("score")
@option("--fewshot", required=True, help="Few-shot seed corpus (JSONL).")
@option("--in", dest="in_path", required=True)
@option("--out", required=True)
@config_flag("scoring", "prompt_token_limit", "--token-limit")
@config_flag("scoring", "fallback", "--fallback", choices=FALLBACKS)
@_teacher_flags
def score(cfg, fewshot, in_path, out):
    """Attach teacher scores to every instance of a corpus."""
    scoring_cfg = stage_config(cfg, "scoring")
    fs = _load_fewshot(fewshot)
    backend, width = _teacher(cfg)
    corpus = read_jsonl(in_path)

    (scored, counts), elapsed = timed(
        score_instances, corpus.instances, fs, scoring_cfg, backend, width
    )

    _write_corpus(scored, out, f"score:{in_path}", cfg)
    write_manifest(out, cfg, 0, {"score": elapsed}, counts)
    print(f"scored={counts['scored']} fallback={counts['fallback']} skipped={counts['skipped']}")


@command("train")
@option("--in", dest="in_path", required=True)
@option("--out", required=True, help="Trained model file.")
@config_flag("training", "loss_mode", "--loss", choices=LOSS_MODES)
@config_flag("training", "iterations", "--iterations")
@config_flag("training", "batch_size", "--batch-size", help="Instances per optimizer step.")
@config_flag("training", "learning_rate", "--lr")
@config_flag("training", "distill_temperature_r", "--distill-r")
@config_flag("training", "seed", "--seed")
def train_cmd(cfg, in_path, out):
    """Train the reference student on a corpus; writes model + loss trace CSV."""
    from .distillation import train, write_loss_trace
    from .students import ToyStudent

    train_cfg = stage_config(cfg, "training")
    corpus = read_jsonl(in_path)
    student = ToyStudent(train_cfg.n_features, train_cfg.hash_seed)

    (_, result), elapsed = timed(train, student, corpus.instances, train_cfg)

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
    print(
        f"trained {train_cfg.iterations} steps ({result.instance_visits} instance visits), "
        f"final loss {result.losses[-1]:.6f}"
    )


@command("eval")
@option("--in", dest="in_path", required=True)
@option("--model", required=True)
@option("--out", required=True)
def eval_cmd(cfg, in_path, model, out):
    """Evaluate a trained model's accuracy on a corpus."""
    from .evaluation import evaluate_accuracy
    from .students import ToyStudent

    corpus = read_jsonl(in_path)
    student = ToyStudent.load(model)

    accuracy, elapsed = timed(evaluate_accuracy, student, corpus)

    write_json({"metric": "accuracy", "value": accuracy, "instances": len(corpus)}, out)
    write_manifest(out, cfg, 0, {"eval": elapsed}, {"instances": len(corpus)})
    print(f"accuracy {accuracy:.4f} over {len(corpus)} instances")


@command("stats")
@option("--in", dest="in_path", required=True)
@option("--out", required=True)
@option("--report", dest="report_path",
        help="Generation report JSON to copy the parse success rate from.")
@option("--max-tokens", type=int, help="Also report the count remaining after token filtering.")
def stats(cfg, in_path, out, report_path, max_tokens):
    """Corpus statistics: count, token length mean/std, gold positions, parse success rate."""
    corpus = read_jsonl(in_path)
    rate = _parse_success_rate(report_path) if report_path else None

    def measure():
        payload = compute_stats(corpus, rate).to_dict()
        if max_tokens is not None:
            payload["kept_at_max_tokens"] = len(filter_by_tokens(corpus, max_tokens))
        return payload

    payload, elapsed = timed(measure)

    write_json(payload, out)
    write_manifest(out, cfg, 0, {"stats": elapsed}, {"instances": payload["count"]})
    print(
        f"{payload['count']} instances, token length {payload['token_len_mean']:.1f} "
        f"+- {payload['token_len_std']:.1f}"
    )


@command("subset")
@option("--in", dest="in_path", required=True)
@option("--sizes", required=True, help="Ascending sizes, e.g. 16,32,64.")
@option("--seed", type=int, default=0)
@option("--out-dir", required=True)
def subset(cfg, in_path, sizes, seed, out_dir):
    """Cumulative subsets: each larger subset extends the smaller by prefix."""
    corpus = read_jsonl(in_path)
    size_list = [int(s) for s in sizes.split(",") if s.strip()]

    subsets, elapsed = timed(cumulative_subsets, corpus, size_list, seed)

    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    counts = {}
    for size, sub in subsets.items():
        path = out_root / f"subset_{size}.jsonl"
        _write_corpus(sub.instances, path, f"subset:{size}:{in_path}", cfg)
        counts[f"subset_{size}"] = size
    write_manifest(out_root / "subsets", cfg, seed, {"subset": elapsed}, counts)
    print(f"wrote {len(subsets)} subsets to {out_root}")


@command("similarity")
@option("--generated", required=True)
@option("--reference", required=True)
@option("--out", required=True)
def similarity(cfg, generated, reference, out):
    """Embedding similarity of generated questions against a reference corpus."""
    from .evaluation import HashedTfEmbedder, similarity_stats

    generated_corpus = read_jsonl(generated)
    reference_corpus = read_jsonl(reference)

    result, elapsed = timed(
        similarity_stats, generated_corpus, reference_corpus, HashedTfEmbedder()
    )

    write_json(result, out)
    write_manifest(
        out, cfg, 0, {"similarity": elapsed},
        {"generated": len(generated_corpus), "reference": len(reference_corpus)},
    )
    print(f"avg_of_max {result['avg_of_max']:.4f}, max_of_max {result['max_of_max']:.4f}")


@command("import")
@option("--in", dest="in_path", required=True)
@option("--format", dest="fmt", required=True, choices=IMPORT_FORMATS)
@option("--topic")
@option("--out", required=True)
def import_cmd(cfg, in_path, fmt, topic, out):
    """Import a benchmark file into the corpus JSONL format."""
    corpus, elapsed = timed(import_benchmark, in_path, fmt, topic)

    _write_corpus(corpus.instances, out, f"import:{fmt}:{in_path}", cfg)
    write_manifest(out, cfg, 0, {"import": elapsed}, {"instances": len(corpus)})
    print(f"imported {len(corpus)} instances from {in_path}")


if __name__ == "__main__":
    main()
