"""End-to-end demo against the scripted mock backend.

Builds a workspace with a 5-example seed set, fabricates a deterministic
response script, then drives the CLI through generate -> score -> train ->
eval and prints the artifacts. No network, no model weights; the whole run
is reproducible byte for byte (SOURCE_DATE_EPOCH is pinned).

Usage: python scripts/run_mock_pipeline.py [workdir]
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
# One BLAS thread, as the mcqa CLI sets it, before mock_script imports numpy:
# numpy's idle OpenBLAS pool only adds start-up cost.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from mcqa_distill.core import FewShotSet, McqaInstance  # noqa: E402
from mcqa_distill.datasets import Corpus, CorpusMeta, write_jsonl  # noqa: E402
from mcqa_distill.gateway import save_script  # noqa: E402
from mcqa_distill.generation import GenerationConfig  # noqa: E402
from mcqa_distill.mock_script import fabricate_json_run  # noqa: E402
from mcqa_distill.scoring import ScoringConfig  # noqa: E402

SEED_EXAMPLES = (
    ("Which of the following materials would best slow the transfer of heat?",
     ("aluminum", "copper", "glass", "wood"), 3),
    ("In which environment is white fur color an advantage for survival?",
     ("desert", "grassland", "arctic tundra", "temperate forest"), 2),
    ("The mathematical model for calculating speed is shown below. Speed = "
     "distance/time. An airplane traveled 700 kilometers in two hours during a "
     "trip. What was the average speed of the plane during the trip?",
     ("5.8 kilometers per hour", "350 kilometers per hour",
      "1400 kilometers per hour", "84,000 kilometers per hour"), 1),
    ("The aloe plant can absorb a lot of water during a rain shower. The extra "
     "water is stored in its leaves. The ability to store water in its leaves "
     "is most likely an adaptation to which type of environment?",
     ("one near the ocean", "one with dry conditions",
      "one with a variety of organisms", "one that receives a lot of sunlight"), 1),
    ("Near Earth's equator, water generally exists naturally in the liquid and "
     "gas states. In which other part of Earth is water usually found "
     "naturally in only two states?",
     ("Indian Ocean", "interior of Africa", "South Pole", "Tropic of Cancer"), 2),
)


def cli(workdir, env, *args):
    proc = subprocess.run(
        [sys.executable, "-m", "mcqa_distill", *map(str, args)],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    print(f"$ mcqa {' '.join(map(str, args))}")
    for line in (proc.stdout + proc.stderr).strip().splitlines():
        print(f"  {line}")
    if proc.returncode != 0:
        sys.exit(proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", nargs="?", type=Path, default=REPO / "runs" / "mock_demo",
                        help="output directory (default: runs/mock_demo in the repository)")
    workdir = parser.parse_args().workdir
    workdir.mkdir(parents=True, exist_ok=True)

    examples = tuple(
        McqaInstance(f"seed-{i}", "grade school science", q, choices, answer)
        for i, (q, choices, answer) in enumerate(SEED_EXAMPLES)
    )
    fs = FewShotSet(topic="grade school science", examples=examples)
    write_jsonl(Corpus(examples, CorpusMeta(source="demo-seed")), workdir / "fewshot.jsonl")

    gen_cfg = GenerationConfig(strategy="json", target_count=64, seed=13)
    script, _ = fabricate_json_run(fs, gen_cfg, ScoringConfig())
    save_script(script, workdir / "script.json")
    (workdir / "run.ini").write_text(
        "[backend]\nkind = mock\nscript = script.json\n"
        "[generation]\nstrategy = json\ntarget_count = 64\nseed = 13\n"
    )

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["SOURCE_DATE_EPOCH"] = "1700000000"

    cli(workdir, env, "generate", "--config", "run.ini",
        "--fewshot", "fewshot.jsonl", "--out", "corpus.jsonl")
    cli(workdir, env, "score", "--config", "run.ini", "--fewshot", "fewshot.jsonl",
        "--in", "corpus.jsonl", "--out", "scored.jsonl")
    cli(workdir, env, "train", "--config", "run.ini", "--in", "scored.jsonl",
        "--out", "model.bin", "--loss", "distill", "--iterations", 200, "--seed", 5)
    cli(workdir, env, "eval", "--config", "run.ini", "--in", "scored.jsonl",
        "--model", "model.bin", "--out", "eval.json")
    cli(workdir, env, "stats", "--in", "corpus.jsonl", "--out", "stats.json",
        "--report", "corpus.jsonl.report.json")
    cli(workdir, env, "similarity", "--generated", "corpus.jsonl",
        "--reference", "fewshot.jsonl", "--out", "similarity.json")

    print("\nartifacts:")
    for path in sorted(workdir.iterdir()):
        print(f"  {path.name} ({path.stat().st_size} bytes)")
    payload = json.loads((workdir / "eval.json").read_text())
    print(f"\nfinal accuracy on the scored corpus: {payload['value']:.4f}")


if __name__ == "__main__":
    main()
