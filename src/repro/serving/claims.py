"""Location claims — the request type of the streaming detection service.

A :class:`LocationClaim` is what a node submits for verification: its
observation vector ``o`` (how many neighbours it heard from each
deployment group) plus, usually, the location it claims to be at.  Claims
without a claimed location ask the service to *localize first*: the
observation is run through the service's localization scheme (the
beaconless MLE engine — the only scheme that needs nothing beyond the
observation) and the resulting estimate is verified exactly like a claimed
one.

The module also carries the JSONL wire form used by ``lad-repro serve``:
one claim per line, ``{"id": ..., "observation": [...],
"claimed_location": [x, y]}``.  Malformed requests raise
:class:`ClaimError`, which transports turn into per-line error responses
instead of dropping the connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

__all__ = ["ClaimError", "LocationClaim", "claim_from_dict", "claim_to_dict"]


class ClaimError(ValueError):
    """A malformed or unserviceable location claim."""


@dataclass(frozen=True, eq=False)
class LocationClaim:
    """One location-verification request.

    Attributes
    ----------
    observation:
        The claimant's observation vector, shape ``(n_groups,)``.
    claimed_location:
        The location the node claims, shape ``(2,)`` — or ``None`` to ask
        the service to localize the observation first (beaconless scheme
        only).
    claim_id:
        Caller-chosen identifier echoed on the verdict (transports use it
        to match out-of-order responses).
    metric:
        Optional per-claim metric override; ``None`` uses the service's
        default metric.
    """

    observation: np.ndarray
    claimed_location: Optional[np.ndarray] = None
    claim_id: Optional[str] = None
    metric: Optional[str] = None

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        observation = _numeric(self.observation, "claim observation")
        if observation.ndim != 1 or observation.size == 0:
            raise ClaimError(
                f"claim observation must be a non-empty 1-D vector, got "
                f"shape {observation.shape}"
            )
        if not np.all(np.isfinite(observation)):
            raise ClaimError("claim observation contains non-finite values")
        set_(self, "observation", observation)
        if self.claimed_location is not None:
            location = _numeric(self.claimed_location, "claimed_location")
            if location.shape != (2,):
                raise ClaimError(
                    f"claimed_location must be a 2-vector, got shape "
                    f"{location.shape}"
                )
            if not np.all(np.isfinite(location)):
                raise ClaimError("claimed_location contains non-finite values")
            set_(self, "claimed_location", location)
        if self.claim_id is not None:
            set_(self, "claim_id", str(self.claim_id))
        if self.metric is not None:
            set_(self, "metric", str(self.metric))

    @property
    def needs_localization(self) -> bool:
        """Whether the service must localize before it can verify."""
        return self.claimed_location is None


def _numeric(value, what: str) -> np.ndarray:
    """*value* as a float64 array; text, ragged nesting or overflow is a ClaimError."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (ValueError, TypeError, OverflowError) as error:
        raise ClaimError(f"{what} is not a numeric array: {error}") from None


def claim_from_dict(payload: Mapping) -> LocationClaim:
    """Decode one JSONL request object into a :class:`LocationClaim`."""
    if not isinstance(payload, Mapping):
        raise ClaimError(f"claim must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {"id", "observation", "claimed_location", "metric"}
    if unknown:
        raise ClaimError(f"unknown claim field(s): {', '.join(sorted(unknown))}")
    if "observation" not in payload:
        raise ClaimError("claim is missing the 'observation' field")
    return LocationClaim(
        observation=payload["observation"],
        claimed_location=payload.get("claimed_location"),
        claim_id=payload.get("id"),
        metric=payload.get("metric"),
    )


def claim_to_dict(claim: LocationClaim) -> Dict[str, object]:
    """Encode a claim as its JSONL request object."""
    payload: Dict[str, object] = {"observation": claim.observation.tolist()}
    if claim.claimed_location is not None:
        payload["claimed_location"] = claim.claimed_location.tolist()
    if claim.claim_id is not None:
        payload["id"] = claim.claim_id
    if claim.metric is not None:
        payload["metric"] = claim.metric
    return payload
