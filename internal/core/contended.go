package core

import (
	"fmt"
	"math/rand"
	"time"

	"etsn/internal/model"
)

// ContendedProblem derives a small, deliberately tight random scheduling
// problem from the seed: three switches in a line with two devices each
// (100 Mb/s), 4–17 TCT streams with 1, 2 or 4 ms periods — half of them
// with an end-to-end bound of half their period, half of them sharing —
// and an ECT stream half the time, at NProb 8. The first-fit placer gives
// up on most seeds, which makes the family the placer-hard input the
// race's fallback steps are measured and tested on. Options beyond NProb
// are left for the caller to set.
func ContendedProblem(seed int64) (*Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	n := model.NewNetwork()
	devs := []model.NodeID{"D1", "D2", "D3", "D4", "D5", "D6"}
	for _, d := range devs {
		if err := n.AddDevice(d); err != nil {
			return nil, err
		}
	}
	for _, sw := range []model.NodeID{"SW1", "SW2", "SW3"} {
		if err := n.AddSwitch(sw); err != nil {
			return nil, err
		}
	}
	for _, l := range [][2]model.NodeID{
		{"D1", "SW1"}, {"D2", "SW1"}, {"SW1", "SW2"}, {"D3", "SW2"},
		{"D4", "SW2"}, {"SW2", "SW3"}, {"D5", "SW3"}, {"D6", "SW3"},
	} {
		if err := n.AddLink(l[0], l[1], model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
			return nil, err
		}
	}
	periods := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	p := &Problem{Network: n, Opts: Options{NProb: 8}}
	nStreams := 4 + rng.Intn(14)
	for i := 0; i < nStreams; i++ {
		src := rng.Intn(len(devs))
		dst := (src + 1 + rng.Intn(len(devs)-1)) % len(devs)
		period := periods[rng.Intn(len(periods))]
		e2e := period
		if rng.Intn(2) == 0 {
			e2e = period / 2
		}
		path, err := n.ShortestPath(devs[src], devs[dst])
		if err != nil {
			return nil, err
		}
		p.TCT = append(p.TCT, &model.Stream{
			ID:          model.StreamID(fmt.Sprintf("s%02d", i)),
			Path:        path,
			Period:      period,
			E2E:         e2e,
			LengthBytes: (1 + rng.Intn(3)) * model.MTUBytes,
			Type:        model.StreamDet,
			Share:       rng.Intn(2) == 0,
		})
	}
	if rng.Intn(2) == 0 {
		path, err := n.ShortestPath("D1", "D6")
		if err != nil {
			return nil, err
		}
		p.ECT = append(p.ECT, &model.ECT{
			ID:            "ect",
			Path:          path,
			E2E:           4 * time.Millisecond,
			LengthBytes:   model.MTUBytes,
			MinInterevent: 4 * time.Millisecond,
		})
	}
	return p, nil
}
