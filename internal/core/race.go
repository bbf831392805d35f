package core

import (
	"context"
	"errors"
	"fmt"
)

// raceOrder is BackendRace's fixed fallback chain: the first-fit placer
// (which closes nearly every instance, so the race wall tracks it), the
// phase-shift annealer (which rescues placer failures the no-wrap SMT
// formulation reports unsatisfiable), and the exact incremental SMT
// solver as the completeness anchor.
var raceOrder = [...]Backend{BackendPlacer, BackendAnneal, BackendSMTIncremental}

// RaceOrder returns the backends BackendRace runs, in order.
func RaceOrder() []Backend { return append([]Backend(nil), raceOrder[:]...) }

// solveRace runs the race as a sequential verified fallback: each backend
// of raceOrder solves the instance in turn under the caller's context, and
// the first plan that passes the independent verifier wins. A failed or
// rejected step falls through to the next, so the winner is the
// lowest-priority-index verified success — deterministic, and identical to
// the placer's own plan whenever the placer succeeds. When every step
// fails the error is smt-incremental's verdict, with the placer's
// PlaceFailure chained in so rerouting callers (ScheduleWithRouting) can
// still identify the stuck stream.
func solveRace(ctx context.Context, inst *instance) (*Result, error) {
	reg := inst.opts.Obs
	if reg != nil {
		reg.Counter("etsn_backend_races_total").Inc()
	}
	var err, placerErr error
	for _, b := range raceOrder {
		// Each step gets its own options view: solvers never write the
		// shared instance maps, but they may tune their own budgets.
		step := *inst
		step.opts.Backend = b
		var res *Result
		res, err = solveBackend(ctx, &step, b)
		if err == nil {
			vs := Verify(inst.problem.Network, res)
			if len(vs) == 0 {
				if reg != nil {
					reg.Counter(`etsn_backend_wins_total{backend="` + b.String() + `"}`).Inc()
				}
				return res, nil
			}
			if reg != nil {
				reg.Counter(`etsn_backend_verify_rejects_total{backend="` + b.String() + `"}`).Inc()
			}
			err = fmt.Errorf("%w: race: backend %v plan rejected by verifier (%d violations, first: %s)",
				ErrBudget, b, len(vs), vs[0])
		}
		if b == BackendPlacer {
			placerErr = err
		}
	}
	var pf *PlaceFailure
	if errors.As(placerErr, &pf) && !errors.As(err, &pf) {
		return nil, fmt.Errorf("%w (placer: %w)", err, placerErr)
	}
	return nil, err
}
