package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"etsn/internal/core"
	"etsn/internal/experiments"
)

// treeCorpus builds the decomposition corpus's tree family at the given
// cell count (50 cell-local TCT streams and one ECT per cell), scheduled
// monolithically by the placer with spread placement.
func treeCorpus(tb testing.TB, cells int, sharedReserves bool) *core.Problem {
	tb.Helper()
	p, err := experiments.CorpusProblem("tree", cells, experiments.DefaultSeed)
	if err != nil {
		tb.Fatal(err)
	}
	p.Opts.Backend = core.BackendPlacer
	p.Opts.SpreadFrames = true
	p.Opts.SharedReserves = sharedReserves
	return p
}

// TestScheduleAllocLinear guards against per-stream work that grows with
// the whole instance (a snapshot of every link before each placement, a
// scan of every stream per ECT): doubling the corpus must at most about
// double what one Schedule allocates. Allocation is counted instead of
// timed so the test does not depend on the machine.
func TestScheduleAllocLinear(t *testing.T) {
	alloc := func(p *core.Problem) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := core.Schedule(p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, shared := range []bool{false, true} {
		small := alloc(treeCorpus(t, 22, shared))
		large := alloc(treeCorpus(t, 44, shared))
		ratio := float64(large) / float64(small)
		t.Logf("shared reserves %v: 22 cells %d B, 44 cells %d B, ratio %.2f", shared, small, large, ratio)
		if ratio > 2.5 {
			t.Errorf("shared reserves %v: Schedule allocates %.2fx more at 44 cells than at 22 (%d vs %d B), want <= 2.5x",
				shared, ratio, large, small)
		}
	}
}

// BenchmarkSchedulePlacer is the per-layer baseline of the placer path:
// one monolithic Schedule of the tree corpus per iteration.
func BenchmarkSchedulePlacer(b *testing.B) {
	for _, cells := range []int{22, 44, 88} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			p := treeCorpus(b, cells, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Schedule(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
