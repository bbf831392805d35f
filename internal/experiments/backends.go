package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"etsn/internal/core"
)

// BackendsTimeout bounds each standalone backend solve (and each race) in
// the backends experiment. The exact solvers can burn unbounded time on the
// full-size testbed instances; the heuristics give up when the budget runs
// out. Two seconds is far above any backend's feasible solve time on the
// fig11 grid, so a timeout here genuinely means "did not finish".
const BackendsTimeout = 2 * time.Second

// The rescue section's fixed configuration: contended seeds 1..rescueSeeds
// with spread placement off and per-stream (not shared) reserves, each
// standalone solve bounded by rescueTimeout.
const (
	rescueSeeds   = 1500
	rescueTimeout = 300 * time.Millisecond
)

// BackendsResult is the cross-backend benchmark over the Fig. 11 load grid:
// every race member solved standalone (wall time, feasibility, verifier
// verdict) plus one race per load, and the rescue count over the contended
// family.
type BackendsResult struct {
	Timeout time.Duration
	Points  []BenchBackendPoint
	Races   []BenchBackendRace
	Rescue  BenchBackendRescue
}

// solveBackendPoint runs one standalone backend solve against a scenario's
// scheduling problem, timing the wall and verifying any plan produced. The
// returned winner is the backend that actually produced the plan (relevant
// for the race, where it names the race winner).
func solveBackendPoint(scen *Scenario, b core.Backend, timeout time.Duration, opts RunOptions) (BenchBackendPoint, string) {
	p := scen.Problem()
	p.Obs = opts.Obs
	p.Phases = opts.Phases
	p.Backend = b
	p.Timeout = timeout
	start := time.Now()
	res, err := core.Schedule(p.Core())
	pt := BenchBackendPoint{
		Load:    scen.Load,
		Backend: b.String(),
		WallUs:  maxI64(time.Since(start).Microseconds(), 1),
	}
	if err != nil {
		pt.Err = err.Error()
		return pt, ""
	}
	pt.Feasible = true
	pt.Slots = res.Schedule.NumSlots()
	pt.Verified = len(core.Verify(scen.Network, res)) == 0
	return pt, res.BackendUsed.String()
}

// Backends runs the cross-backend benchmark on the Fig. 11 testbed load
// grid. Solves run strictly sequentially even under -parallel: the walls
// are the measurement, and concurrent solves contending for cores would
// skew them. Each scenario's expansion cache is warmed by an untimed placer
// run first, so every timed wall is a solve time, not an ECT-expansion
// time.
func Backends(opts RunOptions) (*BackendsResult, error) {
	opts = opts.withDefaults()
	out := &BackendsResult{Timeout: BackendsTimeout}
	for _, load := range Fig11Loads {
		scen, err := NewTestbedScenario(load, DefaultSeed)
		if err != nil {
			return nil, fmt.Errorf("backends load %v: %w", load, err)
		}
		warm := RunOptions{Seed: opts.Seed} // no Obs: the warm-up run is not part of the measurement
		if pt, _ := solveBackendPoint(scen, core.BackendPlacer, BackendsTimeout, warm); !pt.Feasible {
			return nil, fmt.Errorf("backends load %v: warm-up placer solve failed: %s", load, pt.Err)
		}
		for _, b := range core.RaceOrder() {
			pt, _ := solveBackendPoint(scen, b, BackendsTimeout, opts)
			out.Points = append(out.Points, pt)
		}
		rp, winner := solveBackendPoint(scen, core.BackendRace, BackendsTimeout, opts)
		if !rp.Feasible {
			return nil, fmt.Errorf("backends load %v: race failed: %s", load, rp.Err)
		}
		out.Races = append(out.Races, BenchBackendRace{
			Load:     load,
			WallUs:   rp.WallUs,
			Winner:   winner,
			Verified: rp.Verified,
		})
	}
	rs, err := rescue(opts)
	if err != nil {
		return nil, err
	}
	out.Rescue = *rs
	return out, nil
}

// rescue counts, over the contended family (core.ContendedProblem), how
// often each fallback step of the race closes an instance the placer gave
// up on: a rescue is a verifier-clean standalone plan on a seed where the
// placer returned a PlaceFailure, and a unique rescue is one no other race
// member matched. A member without unique rescues adds nothing the rest of
// the race does not already deliver. Seeds fan out over opts.Parallel
// workers; the counts are the measurement, not the walls.
func rescue(opts RunOptions) (*BenchBackendRescue, error) {
	members := core.RaceOrder()[1:]
	type outcome struct {
		placerFailed bool
		closed       []bool // per member
	}
	outs := make([]outcome, rescueSeeds)
	solve := func(seed int64, b core.Backend) (bool, error) {
		p, err := core.ContendedProblem(seed)
		if err != nil {
			return false, err
		}
		p.Opts.Backend = b
		p.Opts.Timeout = rescueTimeout
		res, err := core.Schedule(p)
		return err == nil && len(core.Verify(p.Network, res)) == 0, err
	}
	err := runJobs(RunOptions{Parallel: opts.Parallel}, rescueSeeds, func(i int, _ RunOptions) error {
		seed := int64(i + 1)
		ok, err := solve(seed, core.BackendPlacer)
		var pf *core.PlaceFailure
		if ok || !errors.As(err, &pf) {
			return nil
		}
		outs[i] = outcome{placerFailed: true, closed: make([]bool, len(members))}
		for m, b := range members {
			outs[i].closed[m], _ = solve(seed, b)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("rescue: %w", err)
	}
	r := &BenchBackendRescue{
		Family:    "contended",
		Seeds:     rescueSeeds,
		TimeoutMs: rescueTimeout.Milliseconds(),
		Members:   make([]BenchRescueMember, len(members)),
	}
	for m, b := range members {
		r.Members[m].Backend = b.String()
	}
	for i, o := range outs {
		if !o.placerFailed {
			continue
		}
		r.PlacerFailures++
		closers := 0
		for _, c := range o.closed {
			if c {
				closers++
			}
		}
		for m, c := range o.closed {
			if !c {
				continue
			}
			r.Members[m].Rescues++
			if closers == 1 {
				r.Members[m].Unique++
				r.Members[m].UniqueSeeds = append(r.Members[m].UniqueSeeds, int64(i+1))
			}
		}
	}
	return r, nil
}

// Bench converts the result into the artifact section.
func (r *BackendsResult) Bench() *BenchBackends {
	return &BenchBackends{
		TimeoutMs: r.Timeout.Milliseconds(),
		Points:    r.Points,
		Races:     r.Races,
		Rescue:    &r.Rescue,
	}
}

// WriteTable renders the benchmark. Wall times are real measurements, so
// unlike the figure tables this output is not byte-stable across runs.
func (r *BackendsResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Scheduler backends — standalone solves and race (testbed, fig11 load grid, timeout %v)\n", r.Timeout)
	for _, load := range Fig11Loads {
		fmt.Fprintf(w, "network load %.0f%%:\n", load*100)
		for _, pt := range r.Points {
			if pt.Load != load {
				continue
			}
			switch {
			case !pt.Feasible:
				fmt.Fprintf(w, "  %-16s %-12s gave up: %s\n", pt.Backend, fmtWallUs(pt.WallUs), pt.Err)
			case !pt.Verified:
				fmt.Fprintf(w, "  %-16s %-12s UNVERIFIED PLAN (%d slots)\n", pt.Backend, fmtWallUs(pt.WallUs), pt.Slots)
			default:
				fmt.Fprintf(w, "  %-16s %-12s ok, %d slots\n", pt.Backend, fmtWallUs(pt.WallUs), pt.Slots)
			}
		}
		for _, rc := range r.Races {
			if rc.Load != load {
				continue
			}
			fmt.Fprintf(w, "  %-16s %-12s winner=%s verified=%v\n", "race", fmtWallUs(rc.WallUs), rc.Winner, rc.Verified)
		}
	}
	rs := r.Rescue
	fmt.Fprintf(w, "Rescues over the %s family (seeds 1-%d, spread off, per-stream reserves, timeout %v): placer failed on %d\n",
		rs.Family, rs.Seeds, time.Duration(rs.TimeoutMs)*time.Millisecond, rs.PlacerFailures)
	for _, m := range rs.Members {
		fmt.Fprintf(w, "  %-16s rescued %4d, unique %3d %v\n", m.Backend, m.Rescues, m.Unique, m.UniqueSeeds)
	}
}

// fmtWallUs renders a microsecond wall time compactly.
func fmtWallUs(us int64) string {
	return (time.Duration(us) * time.Microsecond).Round(time.Microsecond).String()
}
