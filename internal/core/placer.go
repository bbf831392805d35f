package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"etsn/internal/model"
)

// placedSlot is a committed reservation used for conflict checks during
// placement. offset is in the periodic (mod-period) domain.
type placedSlot struct {
	offset  int64
	length  int64
	period  int64
	stream  *model.Stream
	reserve bool
}

// placer is a deterministic first-fit scheduler: it processes streams in a
// fixed order (TCT by ascending period, then probabilistic streams by parent
// and occurrence time) and places each frame at the earliest *virtual* time
// (an unrolled timeline that may wrap past period boundaries) satisfying
// constraints (1)-(4) and (7), skipping over conflicting reservations per
// constraint (5). Wrapping gives late possibilities a pipeline into the next
// period, which the paper's strict formulation cannot express; the slot's
// Epoch field records the shift. The placer is sound (the verifier re-checks
// its output) but incomplete: on failure the caller can fall back to SMT.
//
// Its state is indexed densely: links by first appearance, streams by
// position in inst.streams, and each stream's frames hop by hop, so the
// per-frame work does no map lookups and placing a stream touches only its
// own path links.
type placer struct {
	inst *instance
	// linkIdx numbers every link that carries a slot.
	linkIdx map[model.LinkID]int
	// placed[l] holds the committed reservations of link l.
	placed [][]placedSlot
	// streamIdx maps a stream ID to its index in inst.streams and streams.
	streamIdx map[model.StreamID]int
	streams   []placerStream
	// marks is the rollback snapshot of the stream being placed: the slot
	// count of each of its path links before placement started.
	marks []int
}

// placerStream is one stream's dense placement state.
type placerStream struct {
	s    *model.Stream
	hops []placerHop
	// vphi holds the virtual start time of every frame, hop by hop.
	vphi []int64
}

// placerHop is the instance data of one path hop, copied out of the
// instance's per-stream maps.
type placerHop struct {
	link  int // dense link index
	first int // position of the hop's frame 0 in vphi
	count int // frames on the hop, own plus reserve
	// tx and lastTx are the slot lengths of a full-MTU frame and of the
	// message's final fragment (instance.frameLen); prop is the link's
	// propagation delay.
	tx, lastTx, prop int64
}

// frameLen returns the slot length of frame j on hop h (instance.frameLen).
func (ps *placerStream) frameLen(h, j int) int64 {
	if j == ps.s.Frames()-1 {
		return ps.hops[h].lastTx
	}
	return ps.hops[h].tx
}

// newPlacer builds an empty placer over every stream of the instance.
func newPlacer(inst *instance) *placer {
	p := &placer{
		inst:      inst,
		linkIdx:   make(map[model.LinkID]int),
		streamIdx: make(map[model.StreamID]int, len(inst.streams)),
		streams:   make([]placerStream, len(inst.streams)),
	}
	nHops, nFrames := 0, 0
	for _, s := range inst.streams {
		nHops += len(s.Path)
		for _, lid := range s.Path {
			nFrames += inst.frames[s.ID][lid]
		}
	}
	// Two backing arrays serve every stream's slices.
	hops := make([]placerHop, nHops)
	vphi := make([]int64, nFrames)
	for i, s := range inst.streams {
		p.streamIdx[s.ID] = i
		ps := placerStream{s: s}
		ps.hops, hops = hops[:len(s.Path):len(s.Path)], hops[len(s.Path):]
		n := 0
		for h, lid := range s.Path {
			ps.hops[h] = placerHop{
				link:   p.link(lid),
				first:  n,
				count:  inst.frames[s.ID][lid],
				tx:     inst.txUnits[s.ID][lid],
				lastTx: inst.lastTxUnits[s.ID][lid],
				prop:   inst.propUnits[lid],
			}
			n += ps.hops[h].count
		}
		ps.vphi, vphi = vphi[:n:n], vphi[n:]
		p.streams[i] = ps
	}
	return p
}

// link returns the dense index of a link, numbering it on first use.
func (p *placer) link(lid model.LinkID) int {
	l, ok := p.linkIdx[lid]
	if !ok {
		l = len(p.placed)
		p.linkIdx[lid] = l
		p.placed = append(p.placed, nil)
	}
	return l
}

// frame locates frame index j of a stream on a link: its position in the
// stream's vphi, or false when the stream has no such frame there.
func (ps *placerStream) frame(lid model.LinkID, j int) (int, bool) {
	for h, l := range ps.s.Path {
		if l == lid {
			return ps.hops[h].first + j, j >= 0 && j < ps.hops[h].count
		}
	}
	return 0, false
}

// offset returns the virtual start of a placed frame, in the shape
// extractSchedule asks for it.
func (p *placer) offset(k frameKey) int64 {
	ps := &p.streams[p.streamIdx[k.stream]]
	at, _ := ps.frame(k.link, k.index)
	return ps.vphi[at]
}

// reset drops every reservation, keeping the slices' storage.
func (p *placer) reset() {
	for l := range p.placed {
		p.placed[l] = p.placed[l][:0]
	}
}

// solvePlacer schedules the instance with the first-fit placer.
func solvePlacer(inst *instance) (*Result, error) {
	sp := inst.opts.Phases.Begin("place")
	defer sp.End()
	p := newPlacer(inst)
	order := placementOrder(inst.streams)
	if err := p.placeAll(order, inst.opts.SpreadFrames); err != nil {
		if !inst.opts.SpreadFrames {
			return nil, err
		}
		// Spread placement fragments congested links; restart the whole
		// placement ASAP before declaring infeasibility.
		p.reset()
		if err := p.placeAll(order, false); err != nil {
			return nil, err
		}
	}
	res := extractSchedule(inst, p.offset)
	res.BackendUsed = BackendPlacer
	return res, nil
}

// placementOrder sorts streams for first-fit placement: deterministic TCT
// streams first (ascending period, so tightly repeating streams grab the
// grid early; within a period class, bulkier messages first — first-fit
// decreasing packs fragmented links far better), then probabilistic streams
// grouped by parent in occurrence order so consecutive possibilities can
// stack onto the same slots.
func placementOrder(streams []*model.Stream) []*model.Stream {
	out := append([]*model.Stream(nil), streams...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a.Type == model.StreamProb) != (b.Type == model.StreamProb) {
			return a.Type != model.StreamProb
		}
		if a.Type == model.StreamProb {
			if a.Parent != b.Parent {
				return a.Parent < b.Parent
			}
			return a.OccurrenceTime < b.OccurrenceTime
		}
		if a.Period != b.Period {
			return a.Period < b.Period
		}
		if a.Frames() != b.Frames() {
			return a.Frames() > b.Frames()
		}
		return a.ID < b.ID
	})
	return out
}

// placeAll places every stream in order, per-stream falling back from
// spread to ASAP placement before failing.
func (p *placer) placeAll(order []*model.Stream, spread bool) error {
	for _, s := range order {
		ps := &p.streams[p.streamIdx[s.ID]]
		if spread {
			p.mark(ps)
		}
		err := p.placeStream(ps, spread)
		if err != nil && spread {
			p.rollback(ps)
			err = p.placeStream(ps, false)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// mark snapshots the reservation counts of the stream's path links, the
// only links placeStream appends to.
func (p *placer) mark(ps *placerStream) {
	p.marks = p.marks[:0]
	for _, h := range ps.hops {
		p.marks = append(p.marks, len(p.placed[h.link]))
	}
}

// rollback truncates the stream's path links to the last mark.
func (p *placer) rollback(ps *placerStream) {
	for i, h := range ps.hops {
		p.placed[h.link] = p.placed[h.link][:p.marks[i]]
	}
}

func (p *placer) placeStream(ps *placerStream, spread bool) error {
	inst := p.inst
	s := ps.s
	t := inst.periodUnits[s.ID]
	for li := range ps.hops {
		hop := &ps.hops[li]
		for j := 0; j < hop.count; j++ {
			l := ps.frameLen(li, j)
			lb := int64(0)
			if li == 0 && j == 0 && s.Type == model.StreamProb {
				lb = inst.otUnits[s.ID]
			}
			if li == 0 && s.Type == model.StreamDet && spread {
				// Stagger streams by a deterministic phase and spread a
				// stream's frames evenly over its period, mimicking the
				// dispersed slot layouts SMT solvers produce.
				lb = maxI64(lb, streamPhase(s.ID, t)+int64(j)*(t/int64(hop.count)))
			}
			if j > 0 {
				lb = maxI64(lb, ps.vphi[hop.first+j-1]+ps.frameLen(li, j-1))
			}
			if li > 0 {
				up := &ps.hops[li-1]
				o := up.count - hop.count
				if o < 0 {
					o = 0
				}
				upIdx := j + o
				if upIdx >= up.count {
					upIdx = up.count - 1
				}
				arr := ps.vphi[up.first+upIdx] + ps.frameLen(li-1, upIdx) + up.prop
				lb = maxI64(lb, arr)
			}
			reserve := inst.isReserveIndex(s, j)
			v, ok := p.findSlot(hop.link, s, reserve, lb, l, t)
			if !ok {
				return &PlaceFailure{Stream: s.ID, Frame: j, Link: s.Path[li],
					Reason: "no free slot"}
			}
			ps.vphi[hop.first+j] = v
			p.placed[hop.link] = append(p.placed[hop.link], placedSlot{
				offset: v % t, length: l, period: t, stream: s, reserve: reserve,
			})
		}
	}
	// (4) end-to-end check on the virtual timeline, including the last
	// frame's transmission time.
	lastHop := len(ps.hops) - 1
	lastLink := s.Path[lastHop]
	end := ps.vphi[len(ps.vphi)-1] + ps.frameLen(lastHop, ps.hops[lastHop].count-1)
	start := ps.vphi[0]
	if s.Type == model.StreamProb {
		start = inst.otFloorUnits[s.ID]
	}
	if end-start > inst.e2eUnits[s.ID] {
		return &PlaceFailure{Stream: s.ID, Link: lastLink,
			Reason: fmt.Sprintf("end-to-end %d units exceeds bound %d", end-start, inst.e2eUnits[s.ID])}
	}
	return nil
}

// PlaceFailure reports which stream the first-fit placer could not fit; it
// unwraps to ErrInfeasible. Joint-routing retries use it to pick the stream
// to reroute.
type PlaceFailure struct {
	// Stream is the failing stream (possibly a possibility or drain
	// stream derived from an ECT).
	Stream model.StreamID
	// Frame is the failing frame index.
	Frame int
	// Link is where placement failed.
	Link model.LinkID
	// Reason is a human-readable cause.
	Reason string
}

// Error renders the failure.
func (e *PlaceFailure) Error() string {
	return fmt.Sprintf("infeasible scheduling problem: placer: stream %q frame %d on %s: %s",
		e.Stream, e.Frame, e.Link, e.Reason)
}

// Unwrap ties the failure to ErrInfeasible.
func (e *PlaceFailure) Unwrap() error { return ErrInfeasible }

// findSlot returns the earliest virtual time v >= lb such that the frame's
// periodic instances (at (v mod period) + n·period) do not overlap any
// incompatible reservation on the link (a dense index) and the slot does not
// straddle a period boundary. It gives up after scanning one full period
// without a fit.
func (p *placer) findSlot(link int, s *model.Stream, reserve bool, lb, length, period int64) (int64, bool) {
	v := lb
	for {
		if v-lb > period {
			return 0, false
		}
		off := v % period
		if off+length > period {
			v += period - off // skip to next period start
			continue
		}
		next := off
		for _, ps := range p.placed[link] {
			if slotsCanOverlap(s, ps.stream, reserve, ps.reserve, p.inst.opts.SharedReserves) {
				continue
			}
			hyper := model.LCM(period, ps.period)
			for x := int64(0); x < hyper/period; x++ {
				a0 := off + x*period
				a1 := a0 + length
				for y := int64(0); y < hyper/ps.period; y++ {
					b0 := ps.offset + y*ps.period
					be := b0 + ps.length
					if a0 < be && b0 < a1 {
						// Clear this busy instance: shift so that our
						// instance x starts at its end.
						if cand := be - x*period; cand > next {
							next = cand
						}
					}
				}
			}
		}
		if next == off {
			return v, true
		}
		v += next - off
	}
}

// streamPhase derives a deterministic placement phase in [0, period/2) from
// the stream ID.
func streamPhase(id model.StreamID, period int64) int64 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int64(h.Sum32()) % (period/2 + 1)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
