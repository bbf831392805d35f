package experiments

import (
	"strings"
	"testing"
)

// TestValidateBackendsGates exercises the artifact validator on the
// backends section: a healthy artifact passes, and each gate trips on the
// exact regression it guards.
func TestValidateBackendsGates(t *testing.T) {
	healthy := func() *BenchArtifact {
		return &BenchArtifact{
			Experiment: "backends",
			WallMs:     10,
			Backends: &BenchBackends{
				TimeoutMs: 2000,
				Points: []BenchBackendPoint{
					{Load: 0.75, Backend: "placer", WallUs: 1500, Feasible: true, Verified: true},
					{Load: 0.75, Backend: "anneal", WallUs: 90_000, Feasible: true, Verified: true},
					{Load: 0.75, Backend: "smt-incremental", WallUs: 2_000_000, Err: "budget"},
				},
				Races: []BenchBackendRace{{Load: 0.75, WallUs: 3000, Winner: "placer", Verified: true}},
				Rescue: &BenchBackendRescue{
					Family: "contended", Seeds: 1500, TimeoutMs: 300, PlacerFailures: 950,
					Members: []BenchRescueMember{
						{Backend: "anneal", Rescues: 108, Unique: 1, UniqueSeeds: []int64{358}},
						{Backend: "smt-incremental", Rescues: 141, Unique: 2, UniqueSeeds: []int64{3, 4}},
					},
				},
			},
		}
	}
	if err := healthy().Validate(); err != nil {
		t.Fatalf("healthy artifact rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*BenchArtifact)
		want   string
	}{
		{"unverified point", func(a *BenchArtifact) { a.Backends.Points[1].Verified = false }, "unverified plan"},
		{"unknown winner", func(a *BenchArtifact) { a.Backends.Races[0].Winner = "greedy" }, "unknown backend"},
		{"failed winner", func(a *BenchArtifact) { a.Backends.Races[0].Winner = "smt-incremental" }, "failed standalone"},
		// The bound is 2 × 1500 µs + 10 ms = 13 ms.
		{"race overhead", func(a *BenchArtifact) { a.Backends.Races[0].WallUs = 13_001 }, "exceeds overhead bound"},
		{"no rescue", func(a *BenchArtifact) { a.Backends.Rescue = nil }, "no rescue"},
		{"redundant member", func(a *BenchArtifact) {
			a.Backends.Rescue.Members[0].Unique, a.Backends.Rescue.Members[0].UniqueSeeds = 0, nil
		}, "race member anneal has no unique rescue"},
		{"inconsistent counts", func(a *BenchArtifact) { a.Backends.Rescue.Members[1].Rescues = 1 }, "inconsistent"},
	}
	for _, tc := range cases {
		a := healthy()
		tc.mutate(a)
		err := a.Validate()
		if err == nil {
			t.Fatalf("%s: validator accepted a broken artifact", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	a := healthy()
	a.Backends.Races[0].WallUs = 13_000
	if err := a.Validate(); err != nil {
		t.Fatalf("race at exactly the overhead bound rejected: %v", err)
	}
}
