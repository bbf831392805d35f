package core

import (
	"errors"
	"fmt"

	"etsn/internal/model"
)

// ErrNeedsReplan is returned by Admit when the requested change cannot be
// made without moving already-deployed slots.
var ErrNeedsReplan = errors.New("admission requires a full re-plan")

// Admit performs online admission (the paper's Sec. VII-C future-work
// direction): it schedules additional streams into an existing result
// without moving any already-deployed slot, so running switches only
// receive GCL additions.
//
// Supported additions:
//   - new ECT streams (their possibilities ride existing shared slots plus
//     freshly placed superposition slots, and new drain capacity is
//     reserved for them), and
//   - new non-sharing TCT streams (placed into residual space).
//
// Adding a *sharing* TCT stream changes the reservation structure of the
// deployed schedule, and ECT admission in strict per-stream reservation
// mode would grow existing streams' frame sets — both return
// ErrNeedsReplan.
func Admit(orig *Problem, prev *Result, newTCT []*model.Stream, newECT []*model.ECT) (*Result, error) {
	if prev == nil || prev.Schedule == nil {
		return nil, fmt.Errorf("%w: nil previous result", ErrInvalidProblem)
	}
	if len(newTCT) == 0 && len(newECT) == 0 {
		return prev, nil
	}
	for _, s := range newTCT {
		if s.Share {
			return nil, fmt.Errorf("%w: new sharing TCT stream %q changes deployed reservations",
				ErrNeedsReplan, s.ID)
		}
	}
	opts := orig.Opts.withDefaults()
	if len(newECT) > 0 && !opts.SharedReserves && !opts.DisablePrudentReservation {
		return nil, fmt.Errorf("%w: ECT admission with per-stream reservations grows existing frame sets",
			ErrNeedsReplan)
	}

	combined := &Problem{
		Network: orig.Network,
		TCT:     append(append([]*model.Stream(nil), orig.TCT...), newTCT...),
		ECT:     append(append([]*model.ECT(nil), orig.ECT...), newECT...),
		Opts:    opts,
	}
	inst, err := buildInstance(combined, opts)
	if err != nil {
		return nil, err
	}

	// Seed the placer with the deployed slots, frozen in place.
	p := newPlacer(inst)
	frozen := make(map[model.StreamID]bool, len(prev.Schedule.Streams))
	for id := range prev.Schedule.Streams {
		frozen[id] = true
		if _, ok := p.streamIdx[id]; !ok {
			return nil, fmt.Errorf("%w: deployed stream %q absent from the original problem",
				ErrInvalidProblem, id)
		}
	}
	for _, lid := range prev.Schedule.Links() {
		l := p.link(lid)
		for _, fs := range prev.Schedule.SlotsOn(lid) {
			i, ok := p.streamIdx[fs.Stream]
			if !ok {
				return nil, fmt.Errorf("%w: deployed slot of unknown stream %q", ErrInvalidProblem, fs.Stream)
			}
			ps := &p.streams[i]
			// A frame the instance does not have is never read back;
			// the count check below rejects mismatched frame sets.
			if at, ok := ps.frame(lid, fs.Index); ok {
				ps.vphi[at] = fs.VirtualOffset()
			}
			p.placed[l] = append(p.placed[l], placedSlot{
				offset:  fs.Offset,
				length:  fs.Length,
				period:  fs.Period,
				stream:  ps.s,
				reserve: fs.Reserve,
			})
		}
	}
	// Deployed frame counts must match the combined instance (they do, as
	// long as the additions did not change reservation structure).
	for id := range frozen {
		s := p.streams[p.streamIdx[id]].s
		for _, lid := range s.Path {
			want := inst.frames[id][lid]
			got := len(prev.Schedule.StreamSlots(id, lid))
			if want != got {
				return nil, fmt.Errorf("%w: stream %q needs %d slots on %s but %d are deployed",
					ErrNeedsReplan, id, want, lid, got)
			}
		}
	}

	// Place only the new streams, in the standard order.
	var fresh []*model.Stream
	for _, s := range placementOrder(inst.streams) {
		if !frozen[s.ID] {
			fresh = append(fresh, s)
		}
	}
	if err := p.placeAll(fresh, opts.SpreadFrames); err != nil {
		return nil, err
	}

	res := extractSchedule(inst, p.offset)
	res.BackendUsed = BackendPlacer
	return res, nil
}

// SlotsUnchanged reports whether every slot of prev appears identically in
// next (the stability property online admission guarantees).
func SlotsUnchanged(prev, next *model.Schedule) bool {
	for _, lid := range prev.Links() {
		nextSlots := make(map[frameKey]model.FrameSlot)
		for _, fs := range next.SlotsOn(lid) {
			nextSlots[frameKey{stream: fs.Stream, link: lid, index: fs.Index}] = fs
		}
		for _, fs := range prev.SlotsOn(lid) {
			got, ok := nextSlots[frameKey{stream: fs.Stream, link: lid, index: fs.Index}]
			if !ok || got != fs {
				return false
			}
		}
	}
	return true
}
