package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"etsn/internal/core"
	"etsn/internal/experiments"
	"etsn/internal/model"
	"etsn/internal/sched"
	"etsn/internal/traffic"
)

// The factory workloads plan a tree of factory cells with cell-local
// traffic: a CORE switch, one edge switch per cell, six devices per cell,
// fifty TCT streams and one ECT per cell. The corpus is rebuilt here from
// the model and traffic APIs, with the parameters of the decomposition
// corpus in internal/experiments.
const (
	factoryLeaves         = 6
	factoryStreamsPerCell = 50
	factoryNProb          = 8
	factoryLoad           = 0.3

	// factory-plan: the scheduler does almost all the work (the placer,
	// quadratic in the stream count today) and the simulator none.
	factoryPlanCells     = 88
	factoryPlanInstances = 2

	// factory-exact: the exact SMT path per conflict-graph component,
	// where decomposition pays; the only workload that runs internal/smt.
	factoryExactCells     = 8
	factoryExactInstances = 8
)

type factoryRun struct {
	problems []sched.Problem
}

func setupFactoryPlan(seed int64, p *probe) (runner, error) {
	return setupFactory(seed, p, factoryPlanCells, factoryPlanInstances, 0, false)
}

func setupFactoryExact(seed int64, p *probe) (runner, error) {
	return setupFactory(seed, p, factoryExactCells, factoryExactInstances, core.BackendSMTIncremental, true)
}

// setupFactory builds the instances of one factory workload. Both run with
// the sched.Problem defaults the experiments use (spread placement, shared
// reserves); factory-exact pins the backend and decomposes.
func setupFactory(seed int64, p *probe, cells, instances int, backend core.Backend, decompose bool) (runner, error) {
	r := &factoryRun{}
	for i := 0; i < instances; i++ {
		n, tct, ect, err := factoryCorpus(cells, subSeed(seed, i), p)
		if err != nil {
			return nil, err
		}
		r.problems = append(r.problems, sched.Problem{
			Network: n, TCT: tct, ECT: ect, NProb: factoryNProb, Spread: true,
			Backend: backend, Decompose: decompose,
		})
	}
	return r, nil
}

func factorySwitch(c int) model.NodeID    { return model.NodeID(fmt.Sprintf("EDGE%d", c)) }
func factoryDevice(c, d int) model.NodeID { return model.NodeID(fmt.Sprintf("C%d-D%d", c, d)) }

// factoryCorpus builds the tree topology and its cell-local workload. Each
// cell's streams are generated on a star of the cell alone, so every path
// stays inside its cell and the conflict graph has one component per cell.
func factoryCorpus(cells int, seed int64, p *probe) (*model.Network, []*model.Stream, []*model.ECT, error) {
	cfg := model.LinkConfig{Bandwidth: experiments.LinkRate, PropDelay: 100 * time.Nanosecond}
	n := model.NewNetwork()
	if err := n.AddSwitch("CORE"); err != nil {
		return nil, nil, nil, err
	}
	var tct []*model.Stream
	var ects []*model.ECT
	for c := 0; c < cells; c++ {
		cell := model.NewNetwork()
		for _, net := range []*model.Network{n, cell} {
			if err := net.AddSwitch(factorySwitch(c)); err != nil {
				return nil, nil, nil, err
			}
			for d := 0; d < factoryLeaves; d++ {
				if err := net.AddDevice(factoryDevice(c, d)); err != nil {
					return nil, nil, nil, err
				}
				if err := net.AddLink(factoryDevice(c, d), factorySwitch(c), cfg); err != nil {
					return nil, nil, nil, err
				}
			}
		}
		if err := n.AddLink("CORE", factorySwitch(c), cfg); err != nil {
			return nil, nil, nil, err
		}
		streams, err := factoryCell(cell, seed+int64(c), p)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("cell %d workload: %w", c, err)
		}
		for _, s := range streams {
			s.ID = model.StreamID(fmt.Sprintf("c%02d-%s", c, s.ID))
		}
		tct = append(tct, streams...)
		path, err := cell.ShortestPath(factoryDevice(c, 0), factoryDevice(c, factoryLeaves-1))
		if err != nil {
			return nil, nil, nil, err
		}
		ects = append(ects, &model.ECT{
			ID: model.StreamID(fmt.Sprintf("c%02d-ect", c)), Path: path, E2E: experiments.SimInterevent,
			LengthBytes: model.MTUBytes, MinInterevent: experiments.SimInterevent,
		})
	}
	if err := n.Validate(); err != nil {
		return nil, nil, nil, err
	}
	return n, tct, ects, nil
}

// factoryRedraws bounds how often a cell's draw is redrawn, and
// redrawStride spaces the redraws' seeds away from every cell seed of a run.
const (
	factoryRedraws = 8
	redrawStride   = 1_000_003
)

// factoryCell generates one cell's streams. About one cell seed in 300
// draws endpoints and periods that exceed the target load even at one-MTU
// payloads, and traffic.Generate rejects it. Such a cell is redrawn from the
// next seed of its own sequence: rejection sampling, still a function of the
// seed alone.
func factoryCell(cell *model.Network, seed int64, p *probe) ([]*model.Stream, error) {
	for k := int64(0); ; k++ {
		end := p.span("traffic.generate")
		streams, err := traffic.Generate(traffic.Config{
			Network: cell, NumStreams: factoryStreamsPerCell, Periods: experiments.SimPeriods,
			TargetLoad: factoryLoad, ShareFraction: 1, E2EFactor: 2, Seed: seed + k*redrawStride,
		})
		end()
		if !errors.Is(err, traffic.ErrBadWorkload) || k == factoryRedraws {
			return streams, err
		}
	}
}

func (r *factoryRun) close() {}

func (r *factoryRun) pass(p *probe) (*passOut, error) {
	out := &passOut{figures: map[string]float64{}}
	reg, phases := p.hooks()
	plans := make([]*sched.Plan, len(r.problems))
	bounds := make([]map[model.StreamID]time.Duration, len(r.problems))
	clk := startClock()
	for i, prob := range r.problems {
		out.attempted++
		prob.Obs, prob.Phases = reg, phases
		end := p.span("sched.build")
		plan, err := sched.BuildETSN(prob.Core())
		end()
		if err != nil {
			out.failed++
			continue
		}
		end = p.span("sched.bounds")
		bounds[i] = plan.Bounds(prob.Network, prob.ECT)
		end()
		plans[i] = plan
	}
	out.wall, out.cpu = clk.stop()
	out.plan = out.wall

	h := sha256.New()
	for i, plan := range plans {
		if plan == nil {
			continue
		}
		prob := r.problems[i]
		if err := checkPlan(p, prob.Network, plan, true); err != nil && out.bad == nil {
			out.bad = fmt.Errorf("instance %d: %w", i, err)
		}
		// Every ECT and every non-sharing TCT stream has an analytic bound;
		// sharing streams are bounded by their deadline.
		if want := len(prob.TCT) + len(prob.ECT); len(bounds[i]) != want && out.bad == nil {
			out.bad = fmt.Errorf("instance %d: %d analytic bounds for %d streams", i, len(bounds[i]), want)
		}
		fmt.Fprintf(h, "%s %d\n", experiments.PlanFingerprint(plan.Result), plan.Result.SolverStats.Decisions)
		for _, s := range prob.TCT {
			fmt.Fprintf(h, "%s %d\n", s.ID, bounds[i][s.ID])
		}
		for _, e := range prob.ECT {
			fmt.Fprintf(h, "%s %d\n", e.ID, bounds[i][e.ID])
		}
	}
	out.digests = digests{Plans: hexSum(h)}
	return out, nil
}
