package main

import (
	"reflect"
	"testing"

	"splapi/internal/campaign"
)

func TestRequestGeneratorReproducible(t *testing.T) {
	a, b := genRound(7, 3), genRound(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and round gave different requests")
	}
	if reflect.DeepEqual(a, genRound(8, 3)) {
		t.Error("different seeds gave the same requests")
	}
	if reflect.DeepEqual(a, genRound(7, 4)) {
		t.Error("different rounds gave the same requests")
	}
	warm := genRound(7, warmRound)
	if !reflect.DeepEqual(hitRequests(7, warm, 50), hitRequests(7, warm, 50)) {
		t.Error("same seed gave different hit samples")
	}
}

func TestRequestMix(t *testing.T) {
	seen := map[string]bool{}
	for round := warmRound; round < 50; round++ {
		kinds := map[campaign.Kind]int{}
		for _, r := range genRound(1, round) {
			if _, err := campaign.Canonicalize(r); err != nil {
				t.Fatalf("invalid request %s: %v", reqKey(r), err)
			}
			if seen[reqKey(r)] {
				t.Errorf("campaign %s was already requested", reqKey(r))
			}
			seen[reqKey(r)] = true
			kinds[r.Kind]++
		}
		for _, k := range []campaign.Kind{campaign.Sweep, campaign.Chaos} {
			if kinds[k] != len(faultPresets) {
				t.Errorf("round %d: %d %s campaigns, want one per preset", round, kinds[k], k)
			}
		}
	}
	warm := genRound(1, warmRound)
	for _, r := range hitRequests(1, warm, hitSampleSize) {
		if !containsReq(warm, r) {
			t.Errorf("hit sample request %s repeats no warm-up campaign", reqKey(r))
		}
	}
}

func containsReq(reqs []campaign.Request, r campaign.Request) bool {
	for _, x := range reqs {
		if reflect.DeepEqual(x, r) {
			return true
		}
	}
	return false
}
