package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"etsn/internal/model"
)

// allConcreteBackends are the backends that solve on their own (everything
// but the auto and race compositions).
var allConcreteBackends = []Backend{
	BackendPlacer, BackendAnneal, BackendSMT, BackendSMTIncremental,
}

func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range Backends() {
		got, err := ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Fatalf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	if got, err := ParseBackend(""); err != nil || got != BackendAuto {
		t.Fatalf("ParseBackend(\"\") = %v, %v; want auto", got, err)
	}
	// Removed backends fail at the boundary like any unknown name.
	for _, name := range []string{"z3", "greedy", "tabu"} {
		if _, err := ParseBackend(name); !errors.Is(err, ErrInvalidProblem) {
			t.Fatalf("ParseBackend(%q) err = %v, want ErrInvalidProblem", name, err)
		}
	}
}

// TestAllBackendsVerifyFig4 checks that every backend closes the paper's
// Sec. II example with a verifier-clean schedule and reports itself.
func TestAllBackendsVerifyFig4(t *testing.T) {
	for _, b := range allConcreteBackends {
		t.Run(b.String(), func(t *testing.T) {
			n := fig2Network(t)
			p := fig4Problem(t, n)
			p.Opts.Backend = b
			res, err := Schedule(p)
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			verifyClean(t, n, res)
			if res.BackendUsed != b {
				t.Fatalf("BackendUsed = %v, want %v", res.BackendUsed, b)
			}
		})
	}
}

// TestHeuristicBackendsVerifyFig6 runs the heuristics on the Sec. III-B
// example (TCT sharing + expanded ECT). The SMT backends are excluded: the
// strict formulation cannot express the epoch wrap the late possibilities
// need, so they correctly report the strict problem unsatisfiable.
func TestHeuristicBackendsVerifyFig6(t *testing.T) {
	for _, b := range []Backend{BackendPlacer, BackendAnneal} {
		t.Run(b.String(), func(t *testing.T) {
			n := fig2Network(t)
			p := fig6Problem(t, n)
			p.Opts.Backend = b
			res, err := Schedule(p)
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			verifyClean(t, n, res)
			if res.BackendUsed != b {
				t.Fatalf("BackendUsed = %v, want %v", res.BackendUsed, b)
			}
		})
	}
}

// randomProblem derives a small random scheduling problem from the seed: a
// two-switch topology with four devices and a handful of TCT streams (plus
// sometimes an ECT). The placer closes most of these.
func randomProblem(t testing.TB, seed int64) (*model.Network, *Problem) {
	rng := rand.New(rand.NewSource(seed))
	n := model.NewNetwork()
	devs := []model.NodeID{"D1", "D2", "D3", "D4"}
	for _, d := range devs {
		if err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, sw := range []model.NodeID{"SW1", "SW2"} {
		if err := n.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]model.NodeID{
		{"D1", "SW1"}, {"D2", "SW1"}, {"SW1", "SW2"}, {"D3", "SW2"}, {"D4", "SW2"},
	} {
		if err := n.AddLink(l[0], l[1], model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
			t.Fatal(err)
		}
	}
	periods := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond}
	p := &Problem{Network: n}
	nStreams := 3 + rng.Intn(5)
	for i := 0; i < nStreams; i++ {
		src := devs[rng.Intn(len(devs))]
		dst := devs[rng.Intn(len(devs))]
		if src == dst {
			dst = devs[(rng.Intn(len(devs)-1)+1+indexOf(devs, src))%len(devs)]
		}
		period := periods[rng.Intn(len(periods))]
		path, err := n.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		p.TCT = append(p.TCT, &model.Stream{
			ID:          model.StreamID("s" + string(rune('A'+i))),
			Path:        path,
			Period:      period,
			E2E:         2 * period,
			LengthBytes: (1 + rng.Intn(3)) * model.MTUBytes,
			Type:        model.StreamDet,
			Share:       rng.Intn(2) == 0,
		})
	}
	if rng.Intn(2) == 0 {
		path, err := n.ShortestPath("D1", "D4")
		if err != nil {
			t.Fatal(err)
		}
		p.ECT = append(p.ECT, &model.ECT{
			ID:            "ect",
			Path:          path,
			E2E:           16 * time.Millisecond,
			LengthBytes:   model.MTUBytes,
			MinInterevent: 16 * time.Millisecond,
		})
	}
	p.Opts.NProb = 8
	return n, p
}

// contendedProblem is the placer-hard input: ContendedProblem's family
// (spread off, per-stream reserves), on which the placer fails on most
// seeds and the race's fallback steps do the work.
func contendedProblem(t testing.TB, seed int64) (*model.Network, *Problem) {
	p, err := ContendedProblem(seed)
	if err != nil {
		t.Fatal(err)
	}
	return p.Network, p
}

// problemFamilies are the random inputs the backend property tests sweep.
var problemFamilies = []struct {
	name string
	gen  func(testing.TB, int64) (*model.Network, *Problem)
}{
	{"random", randomProblem},
	{"contended", contendedProblem},
}

func indexOf(devs []model.NodeID, d model.NodeID) int {
	for i, x := range devs {
		if x == d {
			return i
		}
	}
	return -1
}

// TestBackendsVerifyRandomScenarios is the property test: on randomized
// problems, every backend either produces a plan with zero verifier
// violations or fails with a clean give-up/infeasibility error — never an
// invalid schedule, never an unclassified error.
func TestBackendsVerifyRandomScenarios(t *testing.T) {
	for _, fam := range problemFamilies {
		for seed := int64(1); seed <= 12; seed++ {
			for _, b := range append(allConcreteBackends, BackendRace) {
				n, p := fam.gen(t, seed)
				p.Opts.Backend = b
				p.Opts.MaxDecisions = 500_000
				res, err := Schedule(p)
				if err != nil {
					if !errors.Is(err, ErrInfeasible) && !errors.Is(err, ErrBudget) {
						t.Fatalf("%s seed %d backend %v: unclassified error %v", fam.name, seed, b, err)
					}
					continue
				}
				if vs := Verify(n, res); len(vs) != 0 {
					t.Fatalf("%s seed %d backend %v: %d violations, first: %s", fam.name, seed, b, len(vs), vs[0])
				}
			}
		}
	}
}

// TestRaceDeterministic: the race winner and its schedule are byte-stable
// across runs.
func TestRaceDeterministic(t *testing.T) {
	for _, fam := range problemFamilies {
		run := func(seed int64) (*Result, error) {
			_, p := fam.gen(t, seed)
			p.Opts.Backend = BackendRace
			return Schedule(p)
		}
		for seed := int64(1); seed <= 6; seed++ {
			a, errA := run(seed)
			b, errB := run(seed)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s seed %d: outcome diverged: %v vs %v", fam.name, seed, errA, errB)
			}
			if errA != nil {
				continue
			}
			if a.BackendUsed != b.BackendUsed {
				t.Fatalf("%s seed %d: winner diverged: %v vs %v", fam.name, seed, a.BackendUsed, b.BackendUsed)
			}
			if !reflect.DeepEqual(a.Schedule, b.Schedule) {
				t.Fatalf("%s seed %d: schedules diverged for winner %v", fam.name, seed, a.BackendUsed)
			}
		}
	}
}

// TestRaceMatchesPlacer: wherever the placer succeeds on its own, the race
// returns exactly the placer's plan (the first step of the chain wins).
func TestRaceMatchesPlacer(t *testing.T) {
	matched := 0
	for _, fam := range problemFamilies {
		for seed := int64(1); seed <= 40; seed++ {
			_, pp := fam.gen(t, seed)
			pp.Opts.Backend = BackendPlacer
			placed, err := Schedule(pp)
			if err != nil {
				continue
			}
			_, pr := fam.gen(t, seed)
			pr.Opts.Backend = BackendRace
			raced, err := Schedule(pr)
			if err != nil {
				t.Fatalf("%s seed %d: placer succeeded but race failed: %v", fam.name, seed, err)
			}
			if raced.BackendUsed != BackendPlacer {
				t.Fatalf("%s seed %d: race won by %v, want placer", fam.name, seed, raced.BackendUsed)
			}
			if !reflect.DeepEqual(raced.Schedule, placed.Schedule) {
				t.Fatalf("%s seed %d: race plan differs from the placer's", fam.name, seed)
			}
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("the placer closed no instance; the comparison is vacuous")
	}
}

// raceRescueSeed is a contended seed where the placer gives up, the
// no-wrap smt-incremental formulation reports the instance infeasible, and
// the annealer closes it verifier-clean: the rescue that keeps anneal in
// the race.
const raceRescueSeed = 358

// TestRacePriorityOrder: each step of the chain wins exactly where the
// steps before it fail — the placer on the paper's Fig. 4 example, the
// annealer on the placer-hard rescue seed.
func TestRacePriorityOrder(t *testing.T) {
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendRace
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)
	if res.BackendUsed != BackendPlacer {
		t.Fatalf("fig4: BackendUsed = %v, want placer", res.BackendUsed)
	}

	n2, p2 := contendedProblem(t, raceRescueSeed)
	p2.Opts.Backend = BackendRace
	res2, err := Schedule(p2)
	if err != nil {
		t.Fatalf("contended seed %d: %v", raceRescueSeed, err)
	}
	verifyClean(t, n2, res2)
	if res2.BackendUsed != BackendAnneal {
		t.Fatalf("contended seed %d: BackendUsed = %v, want anneal", raceRescueSeed, res2.BackendUsed)
	}
}

// TestRaceAnnealRescue pins why anneal stays in the race: on the rescue
// seed the placer fails with a PlaceFailure and smt-incremental alone
// reports ErrInfeasible, yet the race ships anneal's verifier-clean plan.
func TestRaceAnnealRescue(t *testing.T) {
	solve := func(b Backend) (*model.Network, *Result, error) {
		n, p := contendedProblem(t, raceRescueSeed)
		p.Opts.Backend = b
		res, err := Schedule(p)
		return n, res, err
	}
	var pf *PlaceFailure
	if _, _, err := solve(BackendPlacer); !errors.As(err, &pf) {
		t.Fatalf("placer err = %v, want a PlaceFailure", err)
	}
	if _, _, err := solve(BackendSMTIncremental); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("smt-incremental err = %v, want ErrInfeasible", err)
	}
	n, res, err := solve(BackendRace)
	if err != nil {
		t.Fatalf("race: %v", err)
	}
	if res.BackendUsed != BackendAnneal {
		t.Fatalf("race BackendUsed = %v, want anneal", res.BackendUsed)
	}
	verifyClean(t, n, res)
}

// infeasibleProblem overfills one link: two non-sharing streams whose
// combined transmission time exceeds their common period.
func infeasibleProblem(t *testing.T, n *model.Network) *Problem {
	cycle := 5 * mtuTx
	return &Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: cycle,
				LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet},
			{ID: "s2", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
				LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet},
		},
	}
}

// TestRaceInfeasibleProof: when every step fails, the race reports
// smt-incremental's infeasibility verdict (not a heuristic give-up) with
// the placer's PlaceFailure chained in for rerouting callers.
func TestRaceInfeasibleProof(t *testing.T) {
	n := fig2Network(t)
	p := infeasibleProblem(t, n)
	p.Opts.Backend = BackendRace
	_, err := Schedule(p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	var pf *PlaceFailure
	if !errors.As(err, &pf) {
		t.Fatalf("err = %v, want the placer's PlaceFailure chained in", err)
	}
}

// TestScheduleContextCancelled: a cancelled context stops the cancellable
// backends with a budget-flavored error.
func TestScheduleContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fam := range problemFamilies {
		for _, b := range []Backend{BackendAnneal, BackendSMTIncremental, BackendRace} {
			_, p := fam.gen(t, 3)
			p.Opts.Backend = b
			_, err := ScheduleContext(ctx, p)
			if err == nil {
				// The placer (the race's first step) may legitimately
				// finish before anything polls the context.
				continue
			}
			if !errors.Is(err, ErrBudget) && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s backend %v: cancelled err = %v, want ErrBudget", fam.name, b, err)
			}
		}
	}
}

func BenchmarkBackends(b *testing.B) {
	for _, backend := range []Backend{BackendPlacer, BackendAnneal, BackendRace} {
		b.Run(backend.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, p := randomProblem(b, 5)
				p.Opts.Backend = backend
				if _, err := Schedule(p); err != nil {
					b.Skip(err)
				}
			}
		})
	}
}
