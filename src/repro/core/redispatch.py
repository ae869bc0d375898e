"""Re-dispatching: computation-time and KV-cache balancing (paper Sec. 5.3).

Two triggers cause a request's head allocation to be revised after initial
dispatch:

* **Computation imbalance.**  Long-context requests keep growing the load of
  whichever devices host them; when the current max per-device Attention time
  exceeds the ideal time ``f*`` by more than a threshold ``theta`` (50 % by
  default), the single request with the greatest improvement potential on the
  bottleneck device is re-dispatched (Sec. 5.3.1).
* **Cache exhaustion.**  When a device can no longer grow a resident request's
  cache, Hetis narrows victim selection to requests that actually occupy the
  exhausted device (a "modified LIFO"), and -- if the cluster as a whole still
  has room -- re-dispatches the victim's heads instead of evicting it
  (Sec. 5.3.2).  Only when no cluster capacity remains is the victim preempted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.attention_parallel import HeadSplit
from repro.core.dispatcher import Dispatcher
from repro.models.spec import ModelSpec


class RedispatchAction(str, enum.Enum):
    """What the policy decided to do for a given trigger."""

    NONE = "none"                  # balanced enough, or nothing to move
    REDISPATCH = "redispatch"      # move a request's heads (Hauler migrates caches)
    PREEMPT = "preempt"            # no capacity anywhere: evict the victim


@dataclass
class RedispatchDecision:
    """The outcome of one policy evaluation."""

    action: RedispatchAction
    request_id: Optional[int] = None
    new_split: Optional[HeadSplit] = None
    reason: str = ""


class RedispatchPolicy:
    """Implements the two re-dispatching triggers on top of a Dispatcher."""

    def __init__(self, model: ModelSpec, dispatcher: Dispatcher, theta: float = 0.5) -> None:
        if theta <= 0:
            raise ValueError("theta must be > 0")
        self.model = model
        self.dispatcher = dispatcher
        self.theta = theta

    # -- computation balance (Sec. 5.3.1) -------------------------------------------------

    def check_compute_balance(
        self,
        splits: Dict[int, HeadSplit],
        contexts: Dict[int, int],
    ) -> RedispatchDecision:
        """Re-dispatch one request when the load imbalance exceeds theta.

        ``splits`` maps request id -> current head split; ``contexts`` maps
        request id -> current context length.
        """
        if not splits:
            return RedispatchDecision(RedispatchAction.NONE, reason="no active requests")
        current = self.dispatcher.current_objective()
        check = self.dispatcher.check_ideal(
            [(rid, contexts[rid]) for rid in splits], current, self.theta
        )
        if not check.over:
            return RedispatchDecision(RedispatchAction.NONE, reason="within threshold")

        victim = self._pick_compute_victim(splits, contexts)
        if victim is None:
            return RedispatchDecision(RedispatchAction.NONE, reason="no movable request")
        new_split = self._redispatch_request(victim, splits[victim], contexts[victim])
        if new_split is None:
            return RedispatchDecision(RedispatchAction.NONE, reason="re-dispatch infeasible")
        return RedispatchDecision(
            RedispatchAction.REDISPATCH,
            request_id=victim,
            new_split=new_split,
            reason=f"imbalance {'' if check.exact else '≥ '}{current / check.ideal:.2f}x over ideal",
        )

    def _pick_compute_victim(
        self, splits: Dict[int, HeadSplit], contexts: Dict[int, int]
    ) -> Optional[int]:
        """The request contributing the most load to the bottleneck device."""
        bottleneck = max(
            self.dispatcher.targets,
            key=lambda t: t.device_model.attention_time(
                self.model, t.resident_heads, t.resident_token_heads
            ),
        )
        best_req, best_load = None, 0.0
        for rid, split in splits.items():
            heads_here = split.heads_on(bottleneck.target_id)
            if heads_here <= 0:
                continue
            load = heads_here * contexts.get(rid, 0)
            if load > best_load:
                best_req, best_load = rid, load
        return best_req

    def _redispatch_request(
        self, request_id: int, old_split: HeadSplit, context: int
    ) -> Optional[HeadSplit]:
        """Compute a fresh allocation for one request against current state.

        The dispatcher state still contains the request's existing placement,
        so we conservatively dispatch against free capacity only; the Hauler
        later reconciles old vs. new placement and frees the difference.
        """
        decision = self.dispatcher.dispatch_single(request_id, context)
        if not decision.feasible or request_id not in decision.splits:
            return None
        new_split = decision.splits[request_id]
        if new_split.allocation == old_split.allocation:
            return None
        return new_split

    # -- cache balance (Sec. 5.3.2) ----------------------------------------------------------

    def handle_cache_exhaustion(
        self,
        exhausted_target_id: int,
        splits: Dict[int, HeadSplit],
        contexts: Dict[int, int],
        admission_order: Iterable[int],
    ) -> RedispatchDecision:
        """React to a device running out of cache space.

        Victim selection is the paper's modified LIFO: among requests that
        actually hold cache on the exhausted device, pick the one admitted
        most recently.  If the cluster still has aggregate capacity the victim
        is re-dispatched; otherwise it is preempted.
        """
        candidates = [
            rid
            for rid in admission_order
            if rid in splits and splits[rid].heads_on(exhausted_target_id) > 0
        ]
        if not candidates:
            return RedispatchDecision(RedispatchAction.NONE, reason="no request on exhausted device")
        victim = candidates[-1]

        total_free = sum(t.free_token_heads for t in self.dispatcher.targets)
        # Freeing the victim's placement returns its token-heads to the pool.
        victim_token_heads = sum(
            heads * contexts.get(victim, 0) for heads in splits[victim].allocation.values()
        )
        demand = self.model.num_heads * contexts.get(victim, 0)
        if total_free + victim_token_heads < demand:
            return RedispatchDecision(
                RedispatchAction.PREEMPT,
                request_id=victim,
                reason="no cluster-wide cache capacity remaining",
            )
        new_split = self._redispatch_request(victim, splits[victim], contexts[victim])
        if new_split is None:
            return RedispatchDecision(
                RedispatchAction.PREEMPT,
                request_id=victim,
                reason="re-dispatch infeasible despite free capacity",
            )
        return RedispatchDecision(
            RedispatchAction.REDISPATCH,
            request_id=victim,
            new_split=new_split,
            reason=f"cache exhausted on target {exhausted_target_id}",
        )
