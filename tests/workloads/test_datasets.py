"""Tests for synthetic dataset length distributions."""

import numpy as np
import pytest

from repro.utils.rng import make_rng
from repro.workloads.datasets import DATASETS, get_dataset_spec, sample_requests


def test_catalog_contains_paper_workloads():
    assert set(DATASETS) == {"sharegpt", "humaneval", "longbench"}


def test_aliases_resolve():
    assert get_dataset_spec("SG") is get_dataset_spec("sharegpt")
    assert get_dataset_spec("he") is get_dataset_spec("humaneval")
    assert get_dataset_spec("LB") is get_dataset_spec("longbench")


def test_unknown_dataset():
    with pytest.raises(KeyError):
        get_dataset_spec("wikitext")


def test_sample_counts_and_bounds():
    for name, spec in DATASETS.items():
        samples = spec.sample(make_rng(0), 500)
        assert len(samples) == 500
        for s in samples:
            assert spec.prompt_min <= s.prompt_tokens <= spec.prompt_max
            assert spec.output_min <= s.output_tokens <= spec.output_max


def test_sampling_deterministic_given_seed():
    a = sample_requests("sharegpt", 50, seed=7)
    b = sample_requests("sharegpt", 50, seed=7)
    assert [(s.prompt_tokens, s.output_tokens) for s in a] == [
        (s.prompt_tokens, s.output_tokens) for s in b
    ]


def test_longbench_prompts_much_longer_than_sharegpt():
    lb = np.mean([s.prompt_tokens for s in sample_requests("longbench", 400, seed=1)])
    sg = np.mean([s.prompt_tokens for s in sample_requests("sharegpt", 400, seed=1)])
    he = np.mean([s.prompt_tokens for s in sample_requests("humaneval", 400, seed=1)])
    assert lb > 5 * sg
    assert sg > he


def test_humaneval_outputs_shorter_than_sharegpt():
    he = np.mean([s.output_tokens for s in sample_requests("humaneval", 400, seed=2)])
    sg = np.mean([s.output_tokens for s in sample_requests("sharegpt", 400, seed=2)])
    assert he < sg


def test_longbench_output_shorter_than_prompt():
    samples = sample_requests("longbench", 200, seed=3)
    assert np.mean([s.prompt_tokens for s in samples]) > 5 * np.mean(
        [s.output_tokens for s in samples]
    )


def test_request_sample_total_and_validation():
    samples = sample_requests("sharegpt", 10, seed=0)
    assert all(s.total_tokens == s.prompt_tokens + s.output_tokens for s in samples)


def test_zero_samples():
    assert sample_requests("sharegpt", 0, seed=0) == []


def test_negative_samples_rejected():
    with pytest.raises(ValueError):
        get_dataset_spec("sharegpt").sample(make_rng(0), -1)


def test_mean_helpers_positive():
    for spec in DATASETS.values():
        assert spec.mean_prompt_tokens > 0
        assert spec.mean_output_tokens > 0
