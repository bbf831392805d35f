package core

import (
	"fmt"
	"time"

	"etsn/internal/model"
)

// applyPrudentReservation implements Alg. 1 (PRUDENTSLOTRESERVATION): for
// every time-slot-sharing TCT stream, on every link of its path, and for
// every ECT stream crossing that link, reserve
//
//	n = s_e.l × ceil(s_t.l × T_frame / s_e.T)
//
// extra frame slots, where lengths are in frames, T_frame is the time to
// transmit one frame on the link, and s_e.T is the minimum interevent time.
// The extra slots let the TCT stream drain after ECT preempts its shared
// slots, at link granularity rather than along the whole path.
func applyPrudentReservation(inst *instance, ects []*model.ECT) {
	// The ECT streams crossing each link, in problem order, so each hop
	// of a sharing stream visits only those.
	crossing := make(map[model.LinkID][]*model.ECT)
	for _, se := range ects {
		for _, lid := range se.Path {
			if on := crossing[lid]; len(on) == 0 || on[len(on)-1] != se {
				crossing[lid] = append(on, se)
			}
		}
	}
	for _, st := range inst.streams {
		if st.Type != model.StreamDet || !st.Share {
			continue
		}
		for _, lid := range st.Path {
			link, ok := inst.problem.Network.LinkByID(lid)
			if !ok {
				continue
			}
			extra := 0
			for _, se := range crossing[lid] {
				extra += ExtraSlots(st, se, link)
			}
			inst.frames[st.ID][lid] += extra
		}
	}
}

// ExtraSlots computes Alg. 1's per-(TCT stream, ECT stream, link) extra slot
// count n = s_e.l × ceil(s_t.l × T_frame / s_e.T).
func ExtraSlots(st *model.Stream, se *model.ECT, link *model.Link) int {
	return extraSlotsFor(messageWindow(st, link), se)
}

// messageWindow is s_t.l × T_frame: the time one message of the stream
// occupies the link.
func messageWindow(st *model.Stream, link *model.Link) time.Duration {
	perFrame := st.LengthBytes
	if st.Frames() > 1 {
		perFrame = model.MTUBytes
	}
	return time.Duration(st.Frames()) * link.TxTime(perFrame)
}

// extraSlotsFor is s_e.l × ceil(window / s_e.T), at least one event's
// worth; it never decreases as the window grows.
func extraSlotsFor(window time.Duration, se *model.ECT) int {
	events := int64(window+se.MinInterevent-1) / int64(se.MinInterevent)
	if events < 1 {
		events = 1
	}
	return se.Frames() * int(events)
}

// FrameCounts exposes the post-reservation |F_{s,link}| table of a Result.
func (r *Result) FrameCountOn(id model.StreamID, link model.LinkID) int {
	if m, ok := r.FrameCounts[id]; ok {
		return m[link]
	}
	return 0
}

// DrainStreamID names the reservation-only drain stream for an ECT on one
// link (SharedReserves mode).
func DrainStreamID(ect model.StreamID, link model.LinkID) model.StreamID {
	return model.StreamID(fmt.Sprintf("drain:%s:%s", ect, link))
}

// drainStreams builds per-(ECT, link) reservation-only streams: one
// single-link stream per link of the ECT's path whose frames repeat at the
// ECT's minimum interevent time and whose total size covers the largest
// per-stream reservation Alg. 1 would make on that link. One event per
// interevent time injects at most that much displaced work per link, so the
// shared drain windows replace the per-stream extras without the
// double-counting that makes short-period streams over-reserve.
func drainStreams(p *Problem, tct []*model.Stream) []*model.Stream {
	hyper := sharingHyperperiod(tct)
	// The longest message window of any sharing stream on each link: the
	// largest per-stream reservation on a link comes from it, because
	// extraSlotsFor never decreases as the window grows.
	widest := make(map[model.LinkID]time.Duration)
	for _, st := range tct {
		if !st.Share {
			continue
		}
		for _, lid := range st.Path {
			link, ok := p.Network.LinkByID(lid)
			if !ok {
				continue
			}
			w := messageWindow(st, link)
			if old, seen := widest[lid]; !seen || w > old {
				widest[lid] = w
			}
		}
	}
	var out []*model.Stream
	for _, e := range p.ECT {
		period := drainPeriod(hyper, e.MinInterevent)
		for _, lid := range e.Path {
			w, ok := widest[lid]
			if !ok {
				continue // no sharing stream here, nothing to displace
			}
			n := extraSlotsFor(w, e)
			out = append(out, &model.Stream{
				ID:          DrainStreamID(e.ID, lid),
				Path:        []model.LinkID{lid},
				E2E:         period,
				Priority:    model.PrioritySharedLow,
				LengthBytes: n * model.MTUBytes,
				Period:      period,
				Type:        model.StreamDet,
				Share:       true,
				Parent:      e.ID,
				Reserve:     true,
			})
		}
	}
	return out
}

// sharingHyperperiod is the LCM of the periods of the sharing TCT streams
// (the streams a drain reserve serves), or 0 when there are none.
func sharingHyperperiod(tct []*model.Stream) int64 {
	var hyper int64 = 0
	for _, s := range tct {
		if s.Type != model.StreamDet || !s.Share || s.Reserve {
			continue
		}
		if hyper == 0 {
			hyper = int64(s.Period)
		} else {
			hyper = model.LCM(hyper, int64(s.Period))
		}
	}
	return hyper
}

// drainPeriod picks the drain streams' repetition period: at most the ECT's
// interevent time (so the capacity guarantee holds), but harmonic with the
// sharing TCT periods. A period that does not divide evenly into the TCT
// hyperperiod smears the drain's instances across every TCT phase, making
// it need a window that is simultaneously free at all alignments — usually
// none exists. The largest multiple of the TCT hyperperiod that fits is
// fully phase-locked; failing that, the largest divisor of the hyperperiod
// bounds the smear. Repeating more often than the interevent time only adds
// capacity, so both choices stay conservative. hyper is the sharing TCT
// hyperperiod (sharingHyperperiod); 0 means there is no sharing stream.
func drainPeriod(hyper int64, interevent time.Duration) time.Duration {
	if hyper == 0 {
		return interevent
	}
	if hyper <= int64(interevent) {
		return time.Duration(int64(interevent) / hyper * hyper)
	}
	// Largest divisor of the hyperperiod at or below the interevent time.
	best := int64(1)
	for d := int64(1); d*d <= hyper; d++ {
		if hyper%d != 0 {
			continue
		}
		if d <= int64(interevent) && d > best {
			best = d
		}
		if q := hyper / d; q <= int64(interevent) && q > best {
			best = q
		}
	}
	return time.Duration(best)
}
