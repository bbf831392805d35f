package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"etsn/internal/core"
	"etsn/internal/model"
	"etsn/internal/sched"
)

// boundsFingerprint hashes a plan's analytic bounds in stream-ID order.
func boundsFingerprint(pl *sched.Plan, network *model.Network, ects []*model.ECT) string {
	bounds := pl.Bounds(network, ects)
	ids := make([]string, 0, len(bounds))
	for id := range bounds {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%s %d\n", id, bounds[model.StreamID(id)])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPlanIdentityGolden pins the plans (and their analytic bounds) of
// E-TSN instances byte for byte: the 22-cell tree corpus through the
// default race, the same instance decomposed, the same corpus planned as
// the evaluation plans it (spread placement, shared drain reserves), and
// the paper testbed at 75% load. Planner optimizations must leave every
// fingerprint unchanged.
func TestPlanIdentityGolden(t *testing.T) {
	const treePlan = "421eb0f9f1453929"
	const treeBounds = "7a077d0debdcdd33"
	for _, decompose := range []bool{false, true} {
		res, fp, _, err := corpusSolve("tree", 22, DefaultSeed, core.BackendRace, decompose)
		if err != nil {
			t.Fatalf("tree/22 decompose=%v: %v", decompose, err)
		}
		if fp != treePlan {
			t.Errorf("tree/22 decompose=%v: plan fingerprint %s, want %s", decompose, fp, treePlan)
		}
		p, err := CorpusProblem("tree", 22, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		pl := &sched.Plan{Method: sched.MethodETSN, Schedule: res.Schedule, Result: res}
		if got := boundsFingerprint(pl, p.Network, p.ECT); got != treeBounds {
			t.Errorf("tree/22 decompose=%v: bounds fingerprint %s, want %s", decompose, got, treeBounds)
		}
	}

	p, err := CorpusProblem("tree", 22, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkETSN(t, "tree/22 spread+shared", sched.Problem{Network: p.Network, TCT: p.TCT, ECT: p.ECT,
		NProb: corpusNProb, Spread: true}, "69c29442e4bb5dcf", "578ddf0d8cfc902d")

	scen, err := NewTestbedScenario(0.75, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkETSN(t, "testbed", scen.Problem(), "be446c640bec499d", "3aec164787dcb7d0")
}

// checkETSN plans prob with E-TSN and compares its plan and bounds
// fingerprints with the pinned ones.
func checkETSN(t *testing.T, name string, prob sched.Problem, wantPlan, wantBounds string) {
	t.Helper()
	pl, err := sched.Build(sched.MethodETSN, prob, 1)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := PlanFingerprint(pl.Result); got != wantPlan {
		t.Errorf("%s: plan fingerprint %s, want %s", name, got, wantPlan)
	}
	if got := boundsFingerprint(pl, prob.Network, prob.ECT); got != wantBounds {
		t.Errorf("%s: bounds fingerprint %s, want %s", name, got, wantBounds)
	}
	if vs := core.Verify(prob.Network, pl.Result); len(vs) != 0 {
		t.Errorf("%s: plan fails verification: %v", name, vs[0])
	}
}
