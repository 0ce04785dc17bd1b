"""Tests for :mod:`repro.serving.claims` (the request type + wire form)."""

import numpy as np
import pytest

from repro.serving.claims import (
    ClaimError,
    LocationClaim,
    claim_from_dict,
    claim_to_dict,
)


class TestLocationClaim:
    def test_observation_coerced_to_float64_vector(self):
        claim = LocationClaim(observation=[1, 2, 3])
        assert claim.observation.dtype == np.float64
        assert claim.observation.shape == (3,)

    def test_claimed_location_coerced(self):
        claim = LocationClaim(observation=[1.0], claimed_location=[10, 20])
        assert claim.claimed_location.shape == (2,)
        assert not claim.needs_localization

    def test_missing_location_needs_localization(self):
        assert LocationClaim(observation=[1.0]).needs_localization

    @pytest.mark.parametrize(
        "observation", [[], [[1.0, 2.0]], np.zeros((2, 2))]
    )
    def test_bad_observation_shape_rejected(self, observation):
        with pytest.raises(ClaimError):
            LocationClaim(observation=observation)

    def test_non_finite_observation_rejected(self):
        with pytest.raises(ClaimError):
            LocationClaim(observation=[1.0, np.nan])

    def test_bad_location_shape_rejected(self):
        with pytest.raises(ClaimError):
            LocationClaim(observation=[1.0], claimed_location=[1.0, 2.0, 3.0])

    def test_non_finite_location_rejected(self):
        with pytest.raises(ClaimError):
            LocationClaim(observation=[1.0], claimed_location=[np.inf, 0.0])

    @pytest.mark.parametrize(
        "value", ["abc", [[1, 2], [3]], {"x": 1}, [10**400], 10**400]
    )
    def test_non_numeric_values_are_claim_errors(self, value):
        """Text, ragged nesting, objects and float overflow surface as
        ClaimError (which transports answer per line), not as the
        ValueError/TypeError/OverflowError of the float conversion."""
        with pytest.raises(ClaimError, match="observation is not a numeric"):
            LocationClaim(observation=value)
        with pytest.raises(ClaimError, match="claimed_location is not a numeric"):
            LocationClaim(observation=[1.0], claimed_location=value)

    def test_ids_and_metric_stringified(self):
        claim = LocationClaim(observation=[1.0], claim_id=7, metric="diff")
        assert claim.claim_id == "7"
        assert claim.metric == "diff"


class TestWireForm:
    def test_round_trip(self):
        claim = LocationClaim(
            observation=[1.0, 2.0],
            claimed_location=[10.0, 20.0],
            claim_id="c-1",
            metric="diff",
        )
        decoded = claim_from_dict(claim_to_dict(claim))
        assert np.array_equal(decoded.observation, claim.observation)
        assert np.array_equal(decoded.claimed_location, claim.claimed_location)
        assert decoded.claim_id == "c-1"
        assert decoded.metric == "diff"

    def test_optional_fields_omitted(self):
        payload = claim_to_dict(LocationClaim(observation=[1.0]))
        assert set(payload) == {"observation"}

    def test_missing_observation_rejected(self):
        with pytest.raises(ClaimError, match="observation"):
            claim_from_dict({"id": "x"})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ClaimError, match="unknown claim field"):
            claim_from_dict({"observation": [1.0], "extra": 1})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ClaimError):
            claim_from_dict([1, 2, 3])
