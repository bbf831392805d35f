package core

import (
	"testing"
	"time"

	"etsn/internal/model"
)

func shareStream(period time.Duration) *model.Stream {
	return &model.Stream{Type: model.StreamDet, Share: true, Period: period}
}

func TestDrainPeriodHarmonics(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name       string
		periods    []time.Duration
		interevent time.Duration
		want       time.Duration
	}{
		// Hyperperiod 8ms, interevent 50ms: largest multiple of 8 <= 50.
		{"multiple of hyper", []time.Duration{2 * ms, 4 * ms, 8 * ms}, 50 * ms, 48 * ms},
		// Hyperperiod 16ms == interevent: unchanged.
		{"equal", []time.Duration{4 * ms, 8 * ms, 16 * ms}, 16 * ms, 16 * ms},
		// Hyperperiod 20ms > interevent 10ms: largest divisor of 20 <= 10.
		{"divisor", []time.Duration{5 * ms, 10 * ms, 20 * ms}, 10 * ms, 10 * ms},
		// Hyperperiod 16ms > interevent 10ms: divisors of 16 <= 10 -> 8.
		{"divisor rounding", []time.Duration{4 * ms, 16 * ms}, 10 * ms, 8 * ms},
		// No sharing streams: interevent as is.
		{"no sharing", nil, 12 * ms, 12 * ms},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tct []*model.Stream
			for _, p := range c.periods {
				tct = append(tct, shareStream(p))
			}
			if got := drainPeriod(sharingHyperperiod(tct), c.interevent); got != c.want {
				t.Fatalf("drainPeriod = %v, want %v", got, c.want)
			}
		})
	}
}

func TestDrainPeriodIgnoresNonSharing(t *testing.T) {
	tct := []*model.Stream{
		shareStream(4 * time.Millisecond),
		{Type: model.StreamDet, Share: false, Period: 7 * time.Millisecond},
		{Type: model.StreamProb, Period: 9 * time.Millisecond},
	}
	// Only the 4ms sharing stream counts: hyper 4ms, interevent 10ms -> 8ms.
	if got := drainPeriod(sharingHyperperiod(tct), 10*time.Millisecond); got != 8*time.Millisecond {
		t.Fatalf("drainPeriod = %v, want 8ms", got)
	}
}

func TestDrainStreamsPerLink(t *testing.T) {
	n := fig2Network(t)
	cycle := 5 * mtuTx
	st := &model.Stream{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: 6 * mtuTx,
		LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet, Share: true}
	e := &model.ECT{ID: "e1", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
		LengthBytes: 2 * model.MTUBytes, MinInterevent: cycle}
	p := &Problem{Network: n, TCT: []*model.Stream{st}, ECT: []*model.ECT{e}}
	drains := drainStreams(p, []*model.Stream{st})
	// The ECT crosses D2->SW1 (no sharing stream) and SW1->D3 (s1): one
	// drain, on the shared link only.
	if len(drains) != 1 {
		t.Fatalf("drains = %d, want 1", len(drains))
	}
	d := drains[0]
	if d.Path[0] != (model.LinkID{From: "SW1", To: "D3"}) {
		t.Fatalf("drain on %v", d.Path)
	}
	if !d.Reserve || !d.Share || d.Parent != "e1" {
		t.Fatalf("drain flags = %+v", d)
	}
	// Capacity: the 2-frame ECT needs 2 MTUs of drain.
	if d.Frames() != 2 {
		t.Fatalf("drain frames = %d, want 2", d.Frames())
	}
	if d.ID != DrainStreamID("e1", d.Path[0]) {
		t.Fatalf("drain id = %s", d.ID)
	}

	// Against an ECT arriving every 2 MTU times, s1's 3-MTU message spans
	// two events (4 extra slots) and a 1-MTU sharing stream on the same
	// link one (2 slots): the drain covers the larger reservation,
	// whichever stream comes first.
	short := &model.Stream{ID: "s0", Path: mustPath(t, n, "D2", "D3"), E2E: 6 * mtuTx,
		LengthBytes: model.MTUBytes, Period: cycle, Type: model.StreamDet, Share: true}
	fast := &model.ECT{ID: "e2", Path: e.Path, E2E: cycle,
		LengthBytes: 2 * model.MTUBytes, MinInterevent: 2 * mtuTx}
	p = &Problem{Network: n, TCT: []*model.Stream{short, st}, ECT: []*model.ECT{fast}}
	link, _ := n.LinkByID(model.LinkID{From: "SW1", To: "D3"})
	if a, b := ExtraSlots(short, fast, link), ExtraSlots(st, fast, link); a != 2 || b != 4 {
		t.Fatalf("ExtraSlots = %d (s0), %d (s1), want 2, 4", a, b)
	}
	for _, d := range drainStreams(p, p.TCT) {
		want := 2 // D2->SW1 carries s0 only
		if d.Path[0] == link.ID() {
			want = 4
		}
		if d.Frames() != want {
			t.Fatalf("drain on %v has %d frames, want %d", d.Path[0], d.Frames(), want)
		}
	}
}
