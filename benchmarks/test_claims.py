"""Every claim of the paper's evaluation, one test per row of
:data:`repro.experiments.claims.CLAIMS`.

Each study runs once.  A row's test records its study's data and the row's
outcome in ``benchmark.extra_info``, so ``--benchmark-json`` carries every
reproduced number.  Rows whose study serves requests are ``slow``; the
analytic rest stays in the fast tier.
"""

from functools import lru_cache

import pytest

from repro.experiments.claims import CLAIMS, STUDIES

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
