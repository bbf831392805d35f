package main

import (
	"fmt"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/sched"
)

// seedStride spaces the instances one run draws from its seed, so
// neighbouring seeds share no instance.
const seedStride = 104729

// subSeed is the seed of a run's i-th instance; the first is the seed itself.
func subSeed(seed int64, i int) int64 { return seed + int64(i)*seedStride }

// checkPlan is the output check every plan gets: the independent verifier
// must accept the schedule, and, for plans whose gates open ECT inside
// shared slots, re-synthesizing the GCLs must give the deployed programs.
// On a traced pass the two calls are timed as the verify and synthesize
// layers.
//
// One violation is expected and exempt: PERIOD relabels its ECT reservation
// streams (Plan.Reserved) to the ECT priority after scheduling them as TCT,
// by design, which the verifier's E-TSN priority bands reject. It is still
// counted in core.verify_violations.
func checkPlan(p *probe, n *model.Network, plan *sched.Plan, ectOnShared bool) error {
	res := plan.Result
	end := p.span("core.verify")
	vs := core.Verify(n, res)
	end()
	p.add("core.verify_violations", float64(len(vs)))
	p.add("smt.decisions", float64(res.SolverStats.Decisions))
	p.add("smt.conflicts", float64(res.SolverStats.Conflicts))
	p.add("smt.propagations", float64(res.SolverStats.Propagations))
	for _, v := range vs {
		if v.Kind != "priority" || !plan.Reserved[v.Stream] {
			return fmt.Errorf("verifier: %d violations, first: %s", len(vs), v)
		}
	}
	if !ectOnShared {
		return nil
	}
	end = p.span("gcl.synthesize")
	again, err := gcl.Synthesize(res.Schedule, gcl.Config{OpenECTOnShared: true})
	end()
	if err != nil {
		return fmt.Errorf("gcl re-synthesis: %w", err)
	}
	for _, g := range again {
		p.add("gcl.entries", float64(len(g.Entries)))
	}
	if changed := gcl.ChangedPorts(plan.GCLs, again); len(changed) > 0 {
		return fmt.Errorf("re-synthesized GCLs differ on %d ports, first %s", len(changed), changed[0])
	}
	return nil
}
