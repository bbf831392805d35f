package sched

import (
	"testing"
	"time"

	"etsn/internal/core"
	"etsn/internal/model"
	"etsn/internal/stats"
	"etsn/internal/traffic"
)

// testbedNetwork builds the paper's testbed topology (Fig. 10): D1,D2-SW1,
// SW1-SW2, SW2-D3,D4 at 100 Mb/s.
func testbedNetwork(t testing.TB) *model.Network {
	t.Helper()
	n := model.NewNetwork()
	for _, d := range []model.NodeID{"D1", "D2", "D3", "D4"} {
		if err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, sw := range []model.NodeID{"SW1", "SW2"} {
		if err := n.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
	}
	cfg := model.LinkConfig{Bandwidth: 100_000_000}
	for _, pair := range [][2]model.NodeID{
		{"D1", "SW1"}, {"D2", "SW1"}, {"SW1", "SW2"}, {"SW2", "D3"}, {"SW2", "D4"},
	} {
		if err := n.AddLink(pair[0], pair[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// testbedProblem assembles the paper's testbed scenario at the given load.
func testbedProblem(t testing.TB, load float64) (*core.Problem, *model.ECT) {
	t.Helper()
	n := testbedNetwork(t)
	tct, err := traffic.Generate(traffic.Config{
		Network:       n,
		NumStreams:    10,
		Periods:       []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond},
		TargetLoad:    load,
		ShareFraction: 1,
		E2EFactor:     2,
		Seed:          60802,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	path, err := n.ShortestPath("D2", "D4")
	if err != nil {
		t.Fatal(err)
	}
	ect := &model.ECT{
		ID:            "ect",
		Path:          path,
		E2E:           16 * time.Millisecond,
		LengthBytes:   model.MTUBytes,
		MinInterevent: 16 * time.Millisecond,
	}
	return &core.Problem{Network: n, TCT: tct, ECT: []*model.ECT{ect},
		Opts: core.Options{NProb: 64, Backend: core.BackendPlacer, SpreadFrames: true}}, ect
}

func TestBuildETSN(t *testing.T) {
	p, ect := testbedProblem(t, 0.5)
	plan, err := BuildETSN(p)
	if err != nil {
		t.Fatalf("BuildETSN: %v", err)
	}
	if plan.Method != MethodETSN || plan.ECTPriority != model.PriorityECT {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.GCLs) == 0 {
		t.Fatal("no GCLs")
	}
	bound, err := core.ECTWorstCaseBound(p.Network, plan.Result, ect.ID)
	if err != nil {
		t.Fatalf("ECTWorstCaseBound: %v", err)
	}
	if bound > ect.E2E {
		t.Fatalf("bound %v exceeds deadline %v", bound, ect.E2E)
	}
}

func TestBuildPERIOD(t *testing.T) {
	p, ect := testbedProblem(t, 0.5)
	plan, err := BuildPERIOD(p, 1)
	if err != nil {
		t.Fatalf("BuildPERIOD: %v", err)
	}
	if plan.Method != MethodPERIOD {
		t.Fatalf("method = %v", plan.Method)
	}
	if !plan.Reserved[ect.ID] {
		t.Fatal("ECT reservation stream not marked reserved")
	}
	if plan.SlotBudget[ect.ID] < 1 {
		t.Fatalf("slot budget = %d", plan.SlotBudget[ect.ID])
	}
	// The dedicated stream must carry the ECT priority in the schedule.
	if got := plan.Schedule.Streams[ect.ID].Priority; got != model.PriorityECT {
		t.Fatalf("dedicated stream priority = %d", got)
	}
}

func TestBuildPERIODMultiplier(t *testing.T) {
	p, ect := testbedProblem(t, 0.25)
	base, err := BuildPERIOD(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := BuildPERIOD(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if quad.SlotBudget[ect.ID] <= base.SlotBudget[ect.ID] {
		t.Fatalf("multiplier did not increase budget: %d vs %d",
			quad.SlotBudget[ect.ID], base.SlotBudget[ect.ID])
	}
}

func TestBuildAVB(t *testing.T) {
	p, _ := testbedProblem(t, 0.5)
	plan, err := BuildAVB(p)
	if err != nil {
		t.Fatalf("BuildAVB: %v", err)
	}
	if plan.ECTPriority != model.PriorityAVB {
		t.Fatalf("ECT priority = %d", plan.ECTPriority)
	}
	if plan.CBS[model.PriorityAVB] != DefaultAVBIdleSlope {
		t.Fatalf("CBS = %v", plan.CBS)
	}
}

func TestBuildDispatch(t *testing.T) {
	p, _ := testbedProblem(t, 0.25)
	prob := Problem{Network: p.Network, TCT: p.TCT, ECT: p.ECT, NProb: 8}
	for _, m := range []Method{MethodETSN, MethodPERIOD, MethodAVB} {
		plan, err := Build(m, prob, 1)
		if err != nil {
			t.Fatalf("Build(%v): %v", m, err)
		}
		if plan.Method != m {
			t.Fatalf("method = %v, want %v", plan.Method, m)
		}
	}
	if _, err := Build(Method(99), prob, 1); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		MethodETSN: "E-TSN", MethodPERIOD: "PERIOD", MethodAVB: "AVB",
		Method(9): "Method(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestMethodsEndToEndOrdering is the shape check behind the paper's headline
// claim: simulated ECT latency under E-TSN is far below PERIOD and AVB.
func TestMethodsEndToEndOrdering(t *testing.T) {
	p, ect := testbedProblem(t, 0.5)
	prob := Problem{Network: p.Network, TCT: p.TCT, ECT: p.ECT, NProb: 64, Spread: true}
	summaries := make(map[Method]stats.Summary)
	for _, m := range []Method{MethodETSN, MethodPERIOD, MethodAVB} {
		plan, err := Build(m, prob, 1)
		if err != nil {
			t.Fatalf("Build(%v): %v", m, err)
		}
		r, err := plan.Simulate(p.Network, p.ECT, nil, 4*time.Second, 99)
		if err != nil {
			t.Fatalf("Simulate(%v): %v", m, err)
		}
		if r.Delivered(ect.ID) < 100 {
			t.Fatalf("%v delivered only %d ECT messages", m, r.Delivered(ect.ID))
		}
		summaries[m] = stats.Summarize(r.Latencies(ect.ID))
	}
	et, pe, avb := summaries[MethodETSN], summaries[MethodPERIOD], summaries[MethodAVB]
	t.Logf("E-TSN: %+v", et)
	t.Logf("PERIOD: %+v", pe)
	t.Logf("AVB: %+v", avb)
	if et.Mean >= pe.Mean || et.Mean >= avb.Mean {
		t.Fatalf("E-TSN mean %v not below PERIOD %v / AVB %v", et.Mean, pe.Mean, avb.Mean)
	}
	if et.Max >= pe.Max {
		t.Fatalf("E-TSN worst %v not below PERIOD worst %v", et.Max, pe.Max)
	}
	if et.StdDev >= pe.StdDev {
		t.Fatalf("E-TSN jitter %v not below PERIOD jitter %v", et.StdDev, pe.StdDev)
	}
}

// TestBackendsSolve plans a tiny problem through BuildETSN with every
// accepted backend passed through Problem.Backend: each must yield a
// verified plan with GCLs, solved by that backend (the auto and race
// compositions by the placer, their first step).
func TestBackendsSolve(t *testing.T) {
	for _, b := range core.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			n := testbedNetwork(t)
			path, err := n.ShortestPath("D1", "D3")
			if err != nil {
				t.Fatal(err)
			}
			p := Problem{Network: n, Backend: b, TCT: []*model.Stream{{
				ID: "s1", Path: path, Period: 4 * time.Millisecond, E2E: 4 * time.Millisecond,
				LengthBytes: model.MTUBytes, Type: model.StreamDet,
			}}}
			plan, err := BuildETSN(p.Core())
			if err != nil {
				t.Fatalf("BuildETSN: %v", err)
			}
			if len(plan.GCLs) == 0 {
				t.Fatal("plan has no GCLs")
			}
			want := b
			if b == core.BackendAuto || b == core.BackendRace {
				want = core.BackendPlacer
			}
			if got := plan.Result.BackendUsed; got != want {
				t.Fatalf("BackendUsed = %v, want %v", got, want)
			}
		})
	}
}
