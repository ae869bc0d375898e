"""The layouts the Parallelizer picks, pinned on every cell the repository builds Hetis on.

The cells are the claims table's models and datasets on the paper and small
clusters, the clusters the snapshot scripts, the CLI tests and the examples
plan, the Delta ablation's thresholds and Sec. 7.4's large-scale searches.
Each pins, per instance, every stage's device ids, layer count and TP degree
and the Attention workers' device ids, in order.  A change to the cost layer
that moves a layout fails here before it moves a study; ``plan.cost`` may move
without failing.
"""

from typing import List, NamedTuple, Optional, Sequence, Tuple

import pytest

from repro.api import build_cluster
from repro.core.parallelizer import Parallelizer, WorkloadHint
from repro.hardware.cluster import large_scale_cluster
from repro.models.spec import get_model_spec
from repro.systems import default_hint

Stage = Tuple[Sequence[int], int, int]
Instance = Tuple[List[Stage], Sequence[int]]


class Cell(NamedTuple):
    cluster: str
    """A ``build_cluster`` kind, or ``5-types-x-N`` for Sec. 7.4's large-scale cluster."""
    model: str
    dataset: Optional[str]
    """The dataset whose ``default_hint`` the plan uses; ``None`` for ``WorkloadHint()``."""
    delta: float
    max_instances: Optional[int]
    layout: List[Instance]
    """Per instance: its stages as ``(device ids, layers, TP degree)``, then its Attention workers' ids."""

    @property
    def id(self) -> str:
        parts = [self.cluster, self.model, self.dataset or "default-hint", f"delta={self.delta}"]
        if self.max_instances is not None:
            parts.append(f"max_instances={self.max_instances}")
        return "/".join(parts)


CELLS = [
    Cell("paper", "llama-13b", "sharegpt", 0.05, None, [([(range(0, 4), 28, 4), ([4, 5], 6, 2), ([6, 7], 6, 2)], range(11, 7, -1))]),
    Cell("paper", "llama-13b", "humaneval", 0.05, None, [
        ([([0, 1], 28, 2), ([4, 5], 12, 2)], [9, 8]),
        ([([2, 3], 28, 2), ([6, 7], 12, 2)], [11, 10]),
    ]),
    Cell("paper", "llama-13b", "longbench", 0.05, None, [([(range(0, 4), 28, 4), (range(4, 8), 12, 4)], range(11, 7, -1))]),
    Cell("paper", "opt-30b", "sharegpt", 0.05, None, [([(range(0, 4), 34, 4), (range(4, 8), 14, 4)], range(11, 7, -1))]),
    Cell("paper", "opt-30b", "humaneval", 0.05, None, [([(range(0, 4), 34, 4), (range(4, 8), 14, 4)], range(11, 7, -1))]),
    Cell("paper", "opt-30b", "longbench", 0.05, None, [([(range(0, 4), 34, 4), (range(4, 8), 14, 4)], range(11, 7, -1))]),
    Cell("paper", "llama-70b", "sharegpt", 0.05, None, [([(range(0, 4), 57, 4), (range(4, 8), 23, 4)], range(11, 7, -1))]),
    Cell("paper", "llama-70b", "humaneval", 0.05, None, [([(range(0, 4), 57, 4), (range(4, 8), 23, 4)], range(11, 7, -1))]),
    Cell("paper", "llama-70b", "longbench", 0.05, None, [([(range(0, 4), 57, 4), (range(4, 8), 23, 4)], range(11, 7, -1))]),
    Cell("small", "llama-13b", "sharegpt", 0.05, None, [([([0], 22, 1), ([1, 2], 18, 2)], [])]),
    Cell("small", "llama-13b", "humaneval", 0.05, None, [([([0], 22, 1), ([1, 2], 18, 2)], [])]),
    Cell("small", "llama-13b", "longbench", 0.05, None, [([([0], 22, 1), ([1, 2], 18, 2)], [])]),
    Cell("small", "opt-30b", "sharegpt", 0.05, None, [([([0], 26, 1), ([1, 2], 22, 2)], [])]),
    Cell("small", "opt-30b", "humaneval", 0.05, None, [([([0], 26, 1), ([1, 2], 22, 2)], [])]),
    Cell("small", "opt-30b", "longbench", 0.05, None, [([([0], 26, 1), ([1, 2], 22, 2)], [])]),
    Cell("small", "llama2-7b", "humaneval", 0.05, None, [([([0], 18, 1), ([1, 2], 14, 2)], [])]),
    Cell("a100:1,p100:2", "llama-13b", "longbench", 0.05, None, [([([0], 40, 1)], [2, 1])]),
    Cell("a100:1", "llama-13b", "sharegpt", 0.05, None, [([([0], 40, 1)], [])]),
    Cell("rtx3090:2", "llama-13b", "sharegpt", 0.05, None, [([([0, 1], 40, 2)], [])]),
    Cell("paper", "llama-70b", None, 0.0, None, [([(range(0, 4), 55, 4), (range(4, 8), 23, 4), (range(8, 12), 2, 4)], [])]),
    Cell("paper", "llama-70b", None, 0.02, None, [([(range(0, 4), 57, 4), (range(4, 8), 23, 4)], range(11, 7, -1))]),
    Cell("paper", "llama-70b", None, 0.05, None, [([(range(0, 4), 57, 4), (range(4, 8), 23, 4)], range(11, 7, -1))]),
    Cell("paper", "llama-70b", None, 0.1, None, [([(range(0, 4), 73, 4), ([4], 7, 1)], range(11, 4, -1))]),
    Cell("paper", "llama-70b", None, 0.3, None, [([(range(0, 4), 80, 4)], range(11, 3, -1))]),
    Cell("paper", "llama-13b", None, 0.05, None, [([(range(0, 4), 28, 4), (range(4, 8), 12, 4)], range(11, 7, -1))]),
    Cell("paper", "llama-13b", None, 0.05, 1, [([(range(0, 4), 28, 4), (range(4, 8), 12, 4)], range(11, 7, -1))]),
    Cell("small", "llama-13b", None, 0.05, None, [([([0], 22, 1), ([1, 2], 18, 2)], [])]),
    Cell("a100:4", "llama-13b", None, 0.05, None, [([(range(0, 4), 40, 4)], [])]),
    Cell("a100:2", "llama-13b", None, 0.05, None, [([([0, 1], 40, 2)], [])]),
    Cell("a100:2,rtx3090:2", "llama-13b", None, 0.0, None, [([([0, 1], 28, 2), ([2, 3], 12, 2)], [])]),
    Cell("5-types-x-16", "llama-70b", None, 0.05, 4, [
        (
            [(range(0, 8), 40, 8), (range(8, 16), 40, 8)],
            [*range(79, 63, -1), *range(47, 31, -1), *range(63, 47, -1), *range(31, 15, -1)],
        ),
    ]),
    Cell("5-types-x-32", "llama-70b", None, 0.05, 4, [
        (
            [(range(0, 8), 40, 8), (range(8, 16), 40, 8)],
            [*range(143, 127, -1), *range(79, 63, -1), *range(111, 95, -1), *range(47, 31, -1)],
        ),
        (
            [(range(16, 24), 40, 8), (range(24, 32), 40, 8)],
            [*range(159, 143, -1), *range(95, 79, -1), *range(127, 111, -1), *range(63, 47, -1)],
        ),
    ]),
]


def plan_layout(cell: Cell) -> List[Instance]:
    if cell.cluster.startswith("5-types-x-"):
        cluster = large_scale_cluster(int(cell.cluster.rsplit("-", 1)[1]))
    else:
        cluster = build_cluster(cell.cluster)
    hint = default_hint(cell.dataset) if cell.dataset else WorkloadHint()
    plan = Parallelizer(
        cluster, get_model_spec(cell.model), hint=hint, delta=cell.delta, max_instances=cell.max_instances
    ).plan()
    return [
        ([([d.device_id for d in s.devices], s.num_layers, s.tp_degree) for s in inst.stages],
         [d.device_id for d in inst.attention_workers])
        for inst in plan.config.instances
    ]


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
def test_layout_is_pinned(cell):
    expected = [
        ([(list(devices), layers, tp) for devices, layers, tp in stages], list(workers))
        for stages, workers in cell.layout
    ]
    assert plan_layout(cell) == expected
