package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"etsn/internal/core"
	"etsn/internal/experiments"
	"etsn/internal/faults"
	"etsn/internal/model"
	"etsn/internal/obs"
	"etsn/internal/qcc"
	"etsn/internal/sched"
	"etsn/internal/service"
	"etsn/internal/traffic"
)

// cnc-admit: the CNC daemon as a user meets it. An in-process
// service.Server with no journal directory (no fsync) and the default race
// policy serves one closed-loop client at a time: per tenant, a plan job for
// the 4-switch/12-device topology, then admit jobs one by one, each
// submitted only once the previous one is done. The scheduler runs here as
// many small incremental solves and full replans instead of one big solve.
const (
	// cncTenants x cncAdmits admit samples per pass keep more than ten
	// samples above the reported p95.
	cncTenants = 24
	cncAdmits  = 9
	cncTCT     = 16
	cncLoad    = 0.35
	cncNProb   = 16
	// cncJobDeadline is the daemon's default per-job deadline, which it
	// writes into every plan job's timeout and splits for admit replans.
	cncJobDeadline = 30 * time.Second
	cncBackend     = "race"
)

type cncTenant struct {
	plan   []byte
	admits [][]byte
}

type cncRun struct {
	srv     *service.Server
	tenants []cncTenant
	passes  int
}

func setupCNC(seed int64, p *probe) (runner, error) {
	netCfg, n, err := cncNetwork()
	if err != nil {
		return nil, err
	}
	r := &cncRun{}
	for i := 0; i < cncTenants; i++ {
		t, err := cncTenantInputs(n, netCfg, subSeed(seed, i), p)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		r.tenants = append(r.tenants, t)
	}
	if r.srv, err = newDaemon(); err != nil {
		return nil, err
	}
	return r, nil
}

// cncNetwork is the paper's simulation topology (experiments.SimulationNetwork)
// as a configuration document, plus the network itself for generating
// workloads on.
func cncNetwork() (qcc.NetworkConfig, *model.Network, error) {
	n, err := experiments.SimulationNetwork()
	if err != nil {
		return qcc.NetworkConfig{}, nil, err
	}
	var cfg qcc.NetworkConfig
	for _, node := range n.Nodes() {
		if node.IsDevice() {
			cfg.Devices = append(cfg.Devices, string(node.ID))
		} else {
			cfg.Switches = append(cfg.Switches, string(node.ID))
		}
	}
	for _, l := range n.Links() {
		// Links() lists both directions; the document names each cable once.
		if l.From < l.To {
			cfg.Links = append(cfg.Links, qcc.LinkConfig{A: string(l.From), B: string(l.To),
				BandwidthBps: l.Bandwidth, PropDelayNs: int64(l.PropDelay)})
		}
	}
	return cfg, n, nil
}

// cncTenantInputs generates one tenant's plan configuration and its admit
// requests. The admits cycle through the three kinds the daemon handles
// differently: a non-sharing TCT stream and an ECT stream (both placed
// incrementally around the deployed slots when they fit) and a sharing TCT
// stream (which changes the reservations and so always replans in full).
func cncTenantInputs(n *model.Network, netCfg qcc.NetworkConfig, seed int64, p *probe) (cncTenant, error) {
	end := p.span("traffic.generate")
	tct, err := traffic.Generate(traffic.Config{
		Network: n, NumStreams: cncTCT, Periods: experiments.SimPeriods,
		TargetLoad: cncLoad, ShareFraction: 0.5, E2EFactor: 2, Seed: seed,
	})
	end()
	if err != nil {
		return cncTenant{}, err
	}
	cfg := qcc.Config{
		Network: netCfg,
		Options: qcc.SchedulerOptions{NProb: cncNProb, Spread: true, SharedReserves: true},
	}
	for _, s := range tct {
		cfg.Streams = append(cfg.Streams, qcc.StreamRequirement{
			ID: string(s.ID), Talker: string(s.Source()), Listener: string(s.Destination()),
			Type: qcc.TypeTimeTriggered, PeriodUs: s.Period.Microseconds(),
			MaxLatencyUs: s.E2E.Microseconds(), PayloadBytes: s.LengthBytes, Share: s.Share,
		})
	}
	ect := experiments.SimInterevent.Microseconds()
	cfg.Streams = append(cfg.Streams, qcc.StreamRequirement{
		ID: "ect0", Talker: "D1", Listener: "D12", Type: qcc.TypeEventTriggered,
		PeriodUs: ect, MaxLatencyUs: ect, PayloadBytes: model.MTUBytes,
	})
	var t cncTenant
	if t.plan, err = json.Marshal(cfg); err != nil {
		return cncTenant{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	devices := cfg.Network.Devices
	for j := 0; j < cncAdmits; j++ {
		a := rng.Intn(len(devices))
		b := (a + 1 + rng.Intn(len(devices)-1)) % len(devices)
		period := experiments.SimPeriods[rng.Intn(len(experiments.SimPeriods))].Microseconds()
		req := qcc.StreamRequirement{
			ID: fmt.Sprintf("adm%d", j), Talker: devices[a], Listener: devices[b],
			Type: qcc.TypeTimeTriggered, PeriodUs: period, MaxLatencyUs: period, PayloadBytes: 200,
		}
		switch j % 3 {
		case 1:
			req.Share = true
		case 2:
			req.Type, req.PeriodUs, req.MaxLatencyUs, req.PayloadBytes = qcc.TypeEventTriggered, 2*ect, 2*ect, 500
		}
		body, err := json.Marshal(service.AdmitRequest{Streams: []qcc.StreamRequirement{req}})
		if err != nil {
			return cncTenant{}, err
		}
		t.admits = append(t.admits, body)
	}
	return t, nil
}

func (r *cncRun) close() { r.srv.Shutdown() }

// submit runs one job through the daemon and waits for it: the closed loop.
func (r *cncRun) submit(tenant string, kind service.JobKind, body []byte) (time.Duration, bool) {
	t0 := time.Now()
	job, err := r.srv.Submit(tenant, kind, body)
	if err != nil {
		return time.Since(t0), false
	}
	<-job.Done()
	return time.Since(t0), job.State() == service.JobDone
}

func (r *cncRun) pass(p *probe) (*passOut, error) {
	out := &passOut{figures: map[string]float64{}, samples: map[string][]float64{}}
	names := make([]string, len(r.tenants))
	lat := make([][]time.Duration, len(r.tenants))
	admitted := 0
	clk := startClock()
	for i, t := range r.tenants {
		// Fresh tenant names per pass: every pass deploys from scratch.
		names[i] = fmt.Sprintf("p%d-t%d", r.passes, i)
		end := p.span("service.job", "kind", "plan")
		d, ok := r.submit(names[i], service.KindPlan, t.plan)
		end()
		out.attempted++
		lat[i] = append(lat[i], d)
		out.plan += d
		out.samples["plan_job_ms"] = append(out.samples["plan_job_ms"], ms(d))
		if !ok {
			out.failed++
			continue
		}
		for _, body := range t.admits {
			end := p.span("service.job", "kind", "admit")
			d, ok := r.submit(names[i], service.KindAdmit, body)
			end()
			out.attempted++
			lat[i] = append(lat[i], d)
			out.samples["admit_ms"] = append(out.samples["admit_ms"], ms(d))
			if ok {
				admitted++
			} else {
				out.failed++
			}
		}
	}
	out.wall, out.cpu = clk.stop()
	out.figures["admit_ok_ratio"] = float64(admitted) / float64(cncTenants*cncAdmits)

	h := sha256.New()
	exports := make([][][]byte, len(r.tenants))
	for i, name := range names {
		versions, err := r.srv.Plans(name)
		if err != nil {
			if out.bad == nil {
				out.bad = fmt.Errorf("tenant %d: %w", i, err)
			}
			continue
		}
		for _, v := range versions {
			exports[i] = append(exports[i], v.Export)
			fmt.Fprintf(h, "%d %v %v %v\n", v.Version, v.Incremental, v.ShedTCT, v.ShedBE)
			h.Write(v.Export)
		}
	}
	out.digests = digests{Plans: hexSum(h)}

	// The first pass and every traced pass replay the requests directly
	// through the CNC library: that checks every plan the daemon deployed,
	// and on a traced pass splits the daemon's latency into its layers.
	if r.passes == 0 || p != nil {
		if err := r.replay(p, lat, exports); err != nil && out.bad == nil {
			out.bad = err
		}
	}
	r.passes++
	// A fresh daemon for the next pass, so memory held for this pass's
	// tenants does not pile up across passes.
	r.srv.Shutdown()
	srv, err := newDaemon()
	if err != nil {
		return nil, err
	}
	r.srv = srv
	return out, nil
}

// newDaemon starts the in-process daemon: no journal directory, the default
// race policy, one worker per usable CPU.
func newDaemon() (*service.Server, error) {
	return service.New(service.Config{Workers: runtime.GOMAXPROCS(0)})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replay runs each tenant's requests through qcc.Compute and
// faults.Controller.Admit, as the daemon's workers do, and checks that every
// plan passes core.Verify, that every incremental admission left the
// deployed slots where they were, and that each export is byte-identical to
// the version the daemon deployed. lat holds the daemon's job latencies.
func (r *cncRun) replay(p *probe, lat [][]time.Duration, exports [][][]byte) error {
	reg, phases := p.hooks()
	race, err := core.ParseBackend(cncBackend)
	if err != nil {
		return err
	}
	var compute, export, full, incr, overhead, raceRatio []float64
	attempts, admits := 0, 0
	var bad error
	fail := func(err error) {
		if bad == nil {
			bad = err
		}
	}
	for i, t := range r.tenants {
		cfg, err := qcc.Parse(t.plan)
		if err != nil {
			return err
		}
		cfg.Options.Backend = cncBackend
		cfg.Options.TimeoutMs = cncJobDeadline.Milliseconds()
		cfg.Obs, cfg.Phases = reg, phases
		t0 := time.Now()
		end := p.span("qcc.compute")
		dep, err := qcc.Compute(cfg)
		end()
		dc := time.Since(t0)
		if err != nil {
			fail(fmt.Errorf("tenant %d plan: %w", i, err))
			continue
		}
		t1 := time.Now()
		end = p.span("qcc.export")
		raw, err := json.Marshal(dep.Export())
		end()
		de := time.Since(t1)
		if err != nil {
			return err
		}
		compute = append(compute, ms(dc))
		export = append(export, ms(de))
		overhead = append(overhead, ms(lat[i][0]-dc-de))
		if err := checkPlan(p, dep.Network, &sched.Plan{Result: dep.Result, GCLs: dep.GCLs}, true); err != nil {
			fail(fmt.Errorf("tenant %d plan: %w", i, err))
		}
		if len(exports[i]) == 0 || !bytes.Equal(raw, exports[i][0]) {
			fail(fmt.Errorf("tenant %d plan: the daemon deployed a different plan than qcc.Compute gives", i))
		}
		if p != nil {
			// The same hooks as the race run, into sinks of their own, so
			// the ratio compares like with like and the layer totals above
			// count only what the daemon runs.
			placer := *cfg
			placer.Options.Backend = "placer"
			placer.Obs, placer.Phases = obs.NewRegistry(), obs.NewTracer()
			t2 := time.Now()
			if _, err := qcc.Compute(&placer); err != nil {
				fail(fmt.Errorf("tenant %d placer-only plan: %w", i, err))
			}
			raceRatio = append(raceRatio, float64(dc)/float64(time.Since(t2)))
		}

		ctrl, err := faults.NewController(dep.Problem, dep.Result, dep.GCLs, nil)
		if err != nil {
			return err
		}
		ctrl.Obs = reg
		ctrl.ReplanBackend = race
		ctrl.BaseTimeout = cncJobDeadline / 4
		for j, body := range t.admits {
			var req service.AdmitRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			prob, prev, _ := ctrl.Deployed()
			t0 := time.Now()
			end := p.span("faults.admit")
			newTCT, newECT, err := qcc.BuildStreams(prob.Network, req.Streams)
			var rec *faults.Recovery
			if err == nil {
				rec, err = ctrl.Admit(newTCT, newECT)
			}
			end()
			da := time.Since(t0)
			if err != nil {
				fail(fmt.Errorf("tenant %d admit %d: %w", i, j, err))
				continue
			}
			admits++
			attempts += rec.Attempts
			if rec.Incremental {
				incr = append(incr, ms(da))
				if !core.SlotsUnchanged(prev.Schedule, rec.Result.Schedule) {
					fail(fmt.Errorf("tenant %d admit %d: incremental admission moved deployed slots", i, j))
				}
			} else {
				full = append(full, ms(da))
			}
			if err := checkPlan(p, rec.Problem.Network, &sched.Plan{Result: rec.Result, GCLs: rec.GCLs}, true); err != nil {
				fail(fmt.Errorf("tenant %d admit %d: %w", i, j, err))
			}
			dep := &qcc.Deployment{Network: rec.Problem.Network, Problem: rec.Problem, Result: rec.Result, GCLs: rec.GCLs}
			raw, err := json.Marshal(dep.Export())
			if err != nil {
				return err
			}
			if len(exports[i]) <= j+1 || !bytes.Equal(raw, exports[i][j+1]) {
				fail(fmt.Errorf("tenant %d admit %d: the daemon deployed a different plan than faults.Controller.Admit gives", i, j))
			}
			if j+1 < len(lat[i]) {
				overhead = append(overhead, ms(lat[i][j+1]-da))
			}
		}
	}
	if p != nil {
		// Per-call medians, not per-pass sums: these layers run once per job.
		p.vals["qcc.compute_ms"] = median(compute)
		p.vals["qcc.export_ms"] = median(export)
		p.vals["faults.admit_full_ms"] = median(full)
		p.vals["faults.admit_incremental_ms"] = median(incr)
		p.vals["service.overhead_ms"] = median(overhead)
		p.vals["core.race_over_placer"] = median(raceRatio)
		if admits > 0 {
			p.vals["faults.incremental_share"] = float64(len(incr)) / float64(admits)
			p.vals["faults.attempts_per_admit"] = float64(attempts) / float64(admits)
		}
	}
	return bad
}
