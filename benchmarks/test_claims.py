"""Every claim of the paper's evaluation, one test per row of
:data:`repro.experiments.claims.CLAIMS`.

Each study runs once.  A row's test records its study's data and the row's
outcome in ``benchmark.extra_info``, so ``--benchmark-json`` carries every
reproduced number.  Rows whose study serves requests are ``slow``; the
analytic rest stays in the fast tier.  The tests after ``test_claim`` check
behaviour that is not the paper's point on the same cached study data.
"""

from functools import lru_cache

import pytest

from repro.experiments.claims import BASELINES, CLAIMS, DATASETS, MODELS, STUDIES

SERVING = {"fig8", "fig9", "fig10", "fig12-13", "fig14", "fig15a", "fig16a", "fig16b", "ablation-dynamic"}


@lru_cache(maxsize=None)
def study(name):
    return STUDIES[name]()


@pytest.mark.parametrize(
    "claim", [pytest.param(c, id=c.id, marks=pytest.mark.slow if c.study in SERVING else ()) for c in CLAIMS]
)
def test_claim(benchmark, claim):
    data = benchmark.pedantic(study, args=(claim.study,), rounds=1, iterations=1)
    value, bound, holds = claim.check(data)
    benchmark.extra_info.update(data)
    benchmark.extra_info["claim"] = {
        "figure": claim.figure,
        "text": claim.text,
        "value": value,
        "op": claim.op,
        "bound": bound,
        "paper": claim.paper,
        "provenance": claim.provenance,
    }
    assert holds, f"{claim.figure}, {claim.text}: {claim.value} = {value!r} is not {claim.op} {bound!r}"


def test_every_fig11_cell_is_positive():
    data = study("fig11")
    cells = [f"{model}_{dataset}_{system}_gb" for model in MODELS for dataset in DATASETS for system in ("hetis",) + BASELINES]
    assert all(data[cell] > 0 for cell in cells), {cell: data[cell] for cell in cells}


def test_accuracy_of_llama_70b_p100_worker_models():
    """llama-70b (r = 8): the fit profiles only head counts a request can hold, so the
    compute and transfer models of its four P100 workers predict held-out whole
    requests to within 1%."""
    data = study("accuracy")
    workers = [f"{kind}_llama-70b/p100:{i}" for kind in ("compute", "transfer") for i in range(8, 12)]
    assert all(data[worker] >= 0.99 for worker in workers), {worker: data[worker] for worker in workers}
