package sched

import (
	"time"

	"etsn/internal/core"
	"etsn/internal/model"
)

// Bounds derives the analytic worst-case end-to-end latency of every
// stream the plan can bound, for runtime conformance scoring
// (sim.Config.Bounds):
//
//   - TCT streams: the schedule-implied worst case (core.TCTWorstCase,
//     through the last reserved slot) plus the final-hop propagation the
//     slot chain does not cover. Sharing streams (Share) instead get their
//     deadline: ECT may displace shared slots into pooled drain reserves
//     the stream's own slot chain does not cover, and the deadline is what
//     the scheduler guarantees under that displacement.
//   - E-TSN ECT streams: core.ECTWorstCaseBounds (schedule term plus
//     per-hop non-preemptive blocking and EP-window gaps).
//   - PERIOD ECT streams: an event waits at most one dedicated period for
//     the reservation chain, then rides it like a TCT stream.
//   - CQF: every critical stream advances one hop per cycle, the classic
//     (hops+1) x cycle bound.
//
// Streams without an analytic bound (AVB's shaped ECT class, best effort)
// are omitted. ects lists the live event sources so methods that do not
// carry ECT in the schedule (CQF) can still bound them.
func (pl *Plan) Bounds(network *model.Network, ects []*model.ECT) map[model.StreamID]time.Duration {
	out := make(map[model.StreamID]time.Duration)
	if pl.Schedule == nil {
		return out
	}
	if pl.Method == MethodCQF {
		if pl.CQF == nil {
			return out
		}
		for id, st := range pl.Schedule.Streams {
			if st.Type == model.StreamDet {
				out[id] = time.Duration(len(st.Path)+1) * pl.CQF.CycleTime
			}
		}
		for _, e := range ects {
			out[e.ID] = time.Duration(len(e.Path)+1) * pl.CQF.CycleTime
		}
		return out
	}
	if pl.Result == nil {
		return out
	}
	for id, st := range pl.Schedule.Streams {
		if st.Type != model.StreamDet || st.Reserve {
			continue
		}
		if st.Share {
			// Displacement into shared drain reserves invalidates the slot
			// chain; the deadline is the analytic guarantee instead.
			if st.E2E > 0 {
				out[id] = st.E2E
			}
			continue
		}
		wc, err := core.TCTWorstCase(network, pl.Result, id)
		if err != nil {
			continue
		}
		wc += lastHopProp(network, st.Path)
		if pl.Reserved[id] {
			// PERIOD reservation: the event itself arrives at any phase, so
			// it waits up to one dedicated period for the chain to start.
			wc += st.Period
		}
		out[id] = wc
	}
	// E-TSN ECT streams appear in the schedule as probabilistic
	// possibilities pointing at their parent.
	for parent, b := range core.ECTWorstCaseBounds(network, pl.Result) {
		out[parent] = b
	}
	return out
}

// lastHopProp returns the propagation delay of a path's final link: the
// slot chain bounds latency through the last transmission, and delivery
// happens one propagation later.
func lastHopProp(network *model.Network, path []model.LinkID) time.Duration {
	if len(path) == 0 {
		return 0
	}
	if link, ok := network.LinkByID(path[len(path)-1]); ok {
		return link.PropDelay
	}
	return 0
}
