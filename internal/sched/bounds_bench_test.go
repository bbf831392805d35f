package sched_test

import (
	"testing"

	"etsn/internal/experiments"
	"etsn/internal/sched"
)

// BenchmarkPlanBounds is the per-layer baseline of the analytic bounds:
// Plan.Bounds over an E-TSN plan of the 44-cell tree corpus (2200 TCT
// streams, 44 ECT streams), planned as the evaluation plans it.
func BenchmarkPlanBounds(b *testing.B) {
	p, err := experiments.CorpusProblem("tree", 44, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	prob := sched.Problem{Network: p.Network, TCT: p.TCT, ECT: p.ECT, NProb: p.Opts.NProb, Spread: true}
	plan, err := sched.BuildETSN(prob.Core())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(plan.Bounds(p.Network, p.ECT)); got != len(p.TCT)+len(p.ECT) {
			b.Fatalf("%d bounds for %d streams", got, len(p.TCT)+len(p.ECT))
		}
	}
}
