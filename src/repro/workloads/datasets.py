"""Synthetic request-length distributions for the paper's three applications.

Length statistics (medians / tails) are matched to the public descriptions of
the datasets:

* **ShareGPT** (chatbot): moderate prompts (a few hundred tokens), moderate
  outputs with a heavy tail -- the classic conversational mix.
* **HumanEval** (code completion): short prompts (function signature +
  docstring, ~150 tokens), short-to-moderate completions.
* **LongBench** (summarization): very long prompts (several thousand tokens,
  up to the context limit) with short summaries.

Lengths are drawn from truncated log-normal distributions, which is the shape
reported for production LLM traffic, and clipped to sane per-dataset ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.registry import Registry
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class RequestSample:
    """One synthetic request: a prompt length and a target output length."""

    prompt_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("prompt and output token counts must be positive")

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens


@dataclass(frozen=True)
class DatasetSpec:
    """Log-normal length model of one application's requests.

    ``*_mu`` / ``*_sigma`` are the parameters of the underlying normal in
    log-token space; ``*_min`` / ``*_max`` clip the samples to the dataset's
    realistic range.
    """

    name: str
    prompt_mu: float
    prompt_sigma: float
    prompt_min: int
    prompt_max: int
    output_mu: float
    output_sigma: float
    output_min: int
    output_max: int

    def sample(self, rng: np.random.Generator, n: int) -> List[RequestSample]:
        """Draw ``n`` requests."""
        return [RequestSample(p, o) for p, o in zip(*self.lengths(rng, n))]

    def lengths(self, rng: np.random.Generator, n: int) -> Tuple[List[int], List[int]]:
        """The prompt and output lengths of :meth:`sample`'s ``n`` requests, as two lists."""
        if n < 0:
            raise ValueError("n must be >= 0")
        prompts = np.exp(rng.normal(self.prompt_mu, self.prompt_sigma, size=n))
        outputs = np.exp(rng.normal(self.output_mu, self.output_sigma, size=n))
        prompts = np.clip(np.round(prompts), self.prompt_min, self.prompt_max).astype(int)
        outputs = np.clip(np.round(outputs), self.output_min, self.output_max).astype(int)
        return prompts.tolist(), outputs.tolist()

    @property
    def mean_prompt_tokens(self) -> float:
        """Approximate mean prompt length (log-normal mean, before clipping)."""
        return float(np.exp(self.prompt_mu + self.prompt_sigma**2 / 2))

    @property
    def mean_output_tokens(self) -> float:
        return float(np.exp(self.output_mu + self.output_sigma**2 / 2))


#: Dataset plugin registry: length models register here so the config layer,
#: CLI listings, and trace generation all resolve workload names uniformly.
#: Third-party length models join with ``DATASETS.register("name", spec)``.
DATASETS: Registry = Registry("dataset")
DATASETS.register(
    # Chatbot: ShareGPT-style conversational turns.
    "sharegpt",
    DatasetSpec(
        name="sharegpt",
        prompt_mu=np.log(220.0),
        prompt_sigma=0.9,
        prompt_min=16,
        prompt_max=2048,
        output_mu=np.log(190.0),
        output_sigma=0.8,
        output_min=8,
        output_max=1024,
    ),
    help="chatbot traffic: moderate prompts, heavy-tailed moderate outputs",
    aliases=("sg",),
)
DATASETS.register(
    # Code completion: HumanEval-style short prompts and completions.
    "humaneval",
    DatasetSpec(
        name="humaneval",
        prompt_mu=np.log(140.0),
        prompt_sigma=0.45,
        prompt_min=32,
        prompt_max=512,
        output_mu=np.log(70.0),
        output_sigma=0.6,
        output_min=8,
        output_max=384,
    ),
    help="code completion: short prompts, short-to-moderate completions",
    aliases=("he",),
)
DATASETS.register(
    # Long-article summarization: LongBench-style long prompts, short outputs.
    "longbench",
    DatasetSpec(
        name="longbench",
        prompt_mu=np.log(5200.0),
        prompt_sigma=0.55,
        prompt_min=1024,
        prompt_max=16384,
        output_mu=np.log(180.0),
        output_sigma=0.5,
        output_min=32,
        output_max=512,
    ),
    help="summarization: very long prompts, short outputs",
    aliases=("lb",),
)


def get_dataset_spec(name: str) -> DatasetSpec:
    """Look up a dataset by name or by the paper's two-letter alias."""
    try:
        return DATASETS[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown dataset {name!r}; known datasets: {sorted(DATASETS)}"
        ) from exc


def sample_requests(dataset: str, n: int, seed: int | np.random.Generator = 0) -> List[RequestSample]:
    """Convenience wrapper: sample ``n`` requests from a named dataset."""
    spec = get_dataset_spec(dataset)
    return spec.sample(make_rng(seed), n)
