"""Chat prompt construction for every stage of the pipeline.

Every builder is a pure function of its arguments: identical inputs give
byte-identical message lists. The prompt texts are the paper's fixed
production prompts; across subjects only the topic changes, and it comes
from the few-shot set (or ``mcqa generate --topic``).
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .core import ChatMessage, FewShotSet, McqaInstance, index_to_identifier

JSON_SYSTEM = (
    "You are a bot that excel at creating question about the given topics, "
    "and will create question in JSON format!"
)
QUESTION_SYSTEM = "You are a bot that excel at creating question about the given topics!"
POSITIVE_SYSTEM = (
    "You are a bot that excel at answering question and will answer all "
    "question correctly(answer shortly)!"
)
NEGATIVE_SYSTEM = (
    "You are a bot that always answer question with possible but wrong answer "
    "and reply with diverse answer(answer shortly)!"
)
PARAPHRASE_SYSTEM = "You are a bot that excel at paraphrasing."
# The user turn of the json and question prompts; only the topic varies.
TOPIC_INSTRUCTION = "create a question about {topic}!"

# Fixed few-shot pairs for the paraphrase baseline prompt.
PARAPHRASE_FEW_SHOT = (
    (
        "paraphrase this : AI is transforming various sectors by taking over tasks "
        "that used to require human labor. While this advancement can lead to "
        "greater efficiency and cost savings, it also sparks worries about job "
        "loss and the moral considerations surrounding AI-driven choices.",
        "Artificial intelligence is revolutionizing industries by automating tasks "
        "that were previously performed by humans. This technology has the "
        "potential to increase efficiency and reduce costs, but it also raises "
        "concerns about job displacement and the ethical implications of AI "
        "decision-making.",
    ),
    (
        "paraphrase this : Despite the challenges they faced during the project, "
        "the team managed to deliver a high-quality product that exceeded the "
        "client’s expectations.",
        "Even with the obstacles encountered throughout the project, the team "
        "successfully produced a top-notch product that went beyond what the "
        "client had anticipated.",
    ),
    ("paraphrase this : Happy", "Joyful"),
    (
        "paraphrase this : What are the main factors that contribute to climate "
        "change, and how do they each affect the environment?",
        "What key elements drive climate change, and what impact does each one "
        "have on the environment?",
    ),
    (
        "paraphrase this : The project lead is Sarah.",
        "Sarah is leading the project.",
    ),
)


def format_example_object(inst: McqaInstance) -> str:
    """Serialize an example in the single-quoted object style of the few-shot prompts.

    This is Python container repr, which is what the generation prompts use:
    single quotes by default, double quotes when the content itself contains
    an apostrophe. The candidate parser accepts this style as well as strict
    JSON.
    """
    return repr(
        {
            "question": inst.question,
            "choices": list(inst.choices),
            "answer": inst.answer_index,
        }
    )


def scoring_user_block(inst: McqaInstance) -> str:
    """Question followed by one 'A. choice' line per choice."""
    lines = [inst.question]
    for i, choice in enumerate(inst.choices):
        lines.append(f"{index_to_identifier(i)}. {choice}")
    return "\n".join(lines)


def _shuffled(examples: Sequence[McqaInstance], seed: int) -> List[McqaInstance]:
    order = list(range(len(examples)))
    random.Random(seed).shuffle(order)
    return [examples[i] for i in order]


def build_json_generation_prompt(fs: FewShotSet, seed: int) -> List[ChatMessage]:
    """Prompt asking for a complete instance as a JSON-style object.

    One system message, then one user/assistant pair per few-shot example in a
    seed-shuffled order (shuffling the exemplars encourages output diversity),
    then a trailing user turn repeating the topic instruction.
    """
    instruction = TOPIC_INSTRUCTION.format(topic=fs.topic)
    messages = [ChatMessage("system", JSON_SYSTEM)]
    for example in _shuffled(fs.examples, seed):
        messages.append(ChatMessage("user", instruction))
        messages.append(ChatMessage("assistant", format_example_object(example)))
    messages.append(ChatMessage("user", instruction))
    return messages


def build_question_prompt(fs: FewShotSet, seed: int) -> List[ChatMessage]:
    """First decomposed stage: ask for a bare question about the topic."""
    instruction = TOPIC_INSTRUCTION.format(topic=fs.topic)
    messages = [ChatMessage("system", QUESTION_SYSTEM)]
    for example in _shuffled(fs.examples, seed):
        messages.append(ChatMessage("user", instruction))
        messages.append(ChatMessage("assistant", example.question))
    messages.append(ChatMessage("user", instruction))
    return messages


def build_positive_prompt(fs: FewShotSet, question: str) -> List[ChatMessage]:
    """Second decomposed stage: ask for the correct answer to a new question."""
    if not question.strip():
        raise ValueError("question must not be empty")
    messages = [ChatMessage("system", POSITIVE_SYSTEM)]
    for example in fs.examples:
        messages.append(ChatMessage("user", example.question))
        messages.append(ChatMessage("assistant", example.gold_choice))
    messages.append(ChatMessage("user", question))
    return messages


NEGATIVE_USER_HEADER = (
    "Answer the question with wrong but possible answer and use different answer "
    "from the Forbidden Answer!"
)


def _negative_user_turn(question: str, forbidden: Sequence[str]) -> str:
    seen = []
    for entry in forbidden:
        if entry not in seen:
            seen.append(entry)
    bullets = "\n".join(f"- {entry}" for entry in seen)
    return (
        f"{NEGATIVE_USER_HEADER}\n"
        f"Question: {question}\n"
        f"Forbidden Answer :\n"
        f"{bullets}\n"
        f"Answer:"
    )


def build_negative_prompt(
    fs: FewShotSet, question: str, forbidden: Sequence[str]
) -> List[ChatMessage]:
    """Third decomposed stage: ask for a wrong answer avoiding the forbidden list.

    The trailing user turn lists the question and every (de-duplicated)
    forbidden entry as a bullet, ending with "Answer:". Exemplar pairs mirror
    the growth of the forbidden list during sequential negative generation:
    exemplar k forbids the gold answer plus k prior wrong choices and answers
    with the next wrong choice.
    """
    if not forbidden:
        raise ValueError("forbidden list must not be empty")
    if not question.strip():
        raise ValueError("question must not be empty")
    messages = [ChatMessage("system", NEGATIVE_SYSTEM)]
    for k, example in enumerate(fs.examples):
        wrongs = [c for i, c in enumerate(example.choices) if i != example.answer_index]
        take = k % len(wrongs)
        exemplar_forbidden = [example.gold_choice] + wrongs[:take]
        messages.append(
            ChatMessage("user", _negative_user_turn(example.question, exemplar_forbidden))
        )
        messages.append(ChatMessage("assistant", wrongs[take]))
    messages.append(ChatMessage("user", _negative_user_turn(question, forbidden)))
    return messages


def build_scoring_prompt(fs: FewShotSet, inst: McqaInstance) -> List[ChatMessage]:
    """Prompt eliciting a single identifier letter for the gold choice.

    No system message; exemplars keep the few-shot set's order (scoring does
    not shuffle). Each exemplar's assistant turn is exactly its gold letter.
    """
    messages = []
    for example in fs.examples:
        messages.append(ChatMessage("user", scoring_user_block(example)))
        messages.append(
            ChatMessage("assistant", index_to_identifier(example.answer_index))
        )
    messages.append(ChatMessage("user", scoring_user_block(inst)))
    return messages


def build_paraphrase_prompt(text_to_rewrite: str) -> List[ChatMessage]:
    """Paraphrase-baseline prompt: system + five fixed pairs + the new text."""
    if not text_to_rewrite.strip():
        raise ValueError("text to rewrite must not be empty")
    messages = [ChatMessage("system", PARAPHRASE_SYSTEM)]
    for user, assistant in PARAPHRASE_FEW_SHOT:
        messages.append(ChatMessage("user", user))
        messages.append(ChatMessage("assistant", assistant))
    messages.append(ChatMessage("user", f"paraphrase this : {text_to_rewrite}"))
    return messages
