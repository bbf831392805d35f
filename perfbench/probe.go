package main

import (
	"runtime"
	"time"

	"etsn/internal/obs"
)

// layer is one per-layer metric of the traced run.
type layer struct{ name, unit string }

// perLayer lists every metric a traced run reports, in BENCHMARK.json
// order. A layer a workload does not run reads 0.
var perLayer = []layer{
	{"sim.run_ms", "ms"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.allocs_per_event", "allocs/event"},
	{"sim.bytes_per_event", "B/event"},
	{"core.schedule_ms", "ms"},
	{"core.expand_ms", "ms"},
	{"core.reserve_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.expanded_streams", "count"},
	{"core.verify_ms", "ms"},
	{"core.verify_violations", "count"},
	{"gcl.synthesize_ms", "ms"},
	{"gcl.entries", "count"},
	{"sched.bounds_ms", "ms"},
	{"core.race_over_placer", "ratio"},
	{"faults.admit_full_ms", "ms"},
	{"faults.admit_incremental_ms", "ms"},
	{"faults.incremental_share", "ratio"},
	{"faults.attempts_per_admit", "count"},
	{"smt.decisions", "count"},
	{"smt.conflicts", "count"},
	{"smt.propagations", "count"},
	{"smt.decisions_per_s", "1/s"},
	{"core.components", "count"},
	{"qcc.compute_ms", "ms"},
	{"qcc.export_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"traffic.generate_ms", "ms"},
	{"sim_s_per_host_s", "s/s"},
	{"ect_worst_us", "us"},
	{"bound_miss_ratio", "ratio"},
	{"plan_job_ms", "ms"},
	{"admit_p50_ms", "ms"},
	{"admit_p95_ms", "ms"},
	{"admit_ok_ratio", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// probe records one traced pass: spans the benchmark opens around calls
// into each layer, and the program's own hooks (core.Options.Obs/Phases,
// sim.Config.Obs) switched on. Every method is a no-op on the nil probe,
// which is what untraced passes use.
type probe struct {
	// tr holds the benchmark's spans; phases is handed to the program as
	// its Phases hook, kept apart so the program's span depths stay its own.
	tr, phases *obs.Tracer
	reg        *obs.Registry
	vals       map[string]float64
}

func newProbe() *probe {
	return &probe{tr: obs.NewTracer(), phases: obs.NewTracer(), reg: obs.NewRegistry(), vals: map[string]float64{}}
}

// span opens a span around one layer call; the returned func closes it and
// adds its wall time to the metric name+"_ms".
func (p *probe) span(name string, labels ...string) func() {
	if p == nil {
		return func() {}
	}
	sp := p.tr.Begin(name, labels...)
	t0 := time.Now()
	return func() {
		sp.End()
		p.vals[name+"_ms"] += float64(time.Since(t0)) / float64(time.Millisecond)
	}
}

// memSpan is span plus the heap allocations made inside it, added to
// name+".mallocs" and name+".bytes". It stops the world twice, so it is
// only used around calls long enough for that not to matter.
func (p *probe) memSpan(name string, labels ...string) func() {
	if p == nil {
		return func() {}
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	end := p.span(name, labels...)
	return func() {
		end()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.vals[name+".mallocs"] += float64(after.Mallocs - before.Mallocs)
		p.vals[name+".bytes"] += float64(after.TotalAlloc - before.TotalAlloc)
	}
}

// add accumulates a value into a metric.
func (p *probe) add(name string, v float64) {
	if p != nil {
		p.vals[name] += v
	}
}

// hooks returns the Obs registry and Phases tracer to hand to the program,
// both nil on an untraced pass.
func (p *probe) hooks() (*obs.Registry, *obs.Tracer) {
	if p == nil {
		return nil, nil
	}
	return p.reg, p.phases
}

// values derives the pass's per-layer metrics from the benchmark's spans
// and the program's counters and phase spans.
func (p *probe) values() map[string]float64 {
	v := make(map[string]float64, len(p.vals)+8)
	for k, x := range p.vals {
		v[k] = x
	}
	for _, s := range p.phases.Spans() {
		ms := float64(s.WallNs) / 1e6
		component := false
		for i := 0; i+1 < len(s.Labels); i += 2 {
			component = component || s.Labels[i] == "component"
		}
		switch s.Name {
		case "expand", "reserve", "solve", "decompose":
			if s.Depth != 0 {
				continue
			}
			if s.Name != "decompose" {
				// Summed over components, which may run concurrently.
				v["core."+s.Name+"_ms"] += ms
			}
			if !component {
				v["core.schedule_ms"] += ms
			}
		}
	}
	v["sim.events"] = float64(p.reg.Counter("etsn_sim_events_total").Value())
	v["core.components"] = float64(p.reg.Counter("etsn_core_components").Value())
	v["core.expanded_streams"] = float64(p.reg.Counter("etsn_core_streams_total").Value())
	if ev := v["sim.events"]; ev > 0 {
		v["sim.events_per_s"] = ev / (v["sim.run_ms"] / 1e3)
		v["sim.allocs_per_event"] = v["sim.run.mallocs"] / ev
		v["sim.bytes_per_event"] = v["sim.run.bytes"] / ev
	}
	if d, ms := v["smt.decisions"], v["core.solve_ms"]; d > 0 && ms > 0 {
		v["smt.decisions_per_s"] = d / (ms / 1e3)
	}
	return v
}

// layerMetrics takes the median over traced passes of every per-layer
// metric, the set-up layers from the traced set-up, and the workload's
// outcome figures from the untraced passes of the same run.
func layerMetrics(probes []*probe, setup *probe, figures map[string]float64, pooled map[string][]float64) map[string]float64 {
	per := map[string][]float64{}
	for _, p := range probes {
		for k, x := range p.values() {
			per[k] = append(per[k], x)
		}
	}
	out := map[string]float64{}
	for k, xs := range per {
		out[k] = median(xs)
	}
	out["traffic.generate_ms"] = setup.vals["traffic.generate_ms"]
	for k, x := range figures {
		out[k] = x
	}
	if s := sortedCopy(pooled["plan_job_ms"]); len(s) > 0 {
		out["plan_job_ms"] = quantile(s, 0.5)
	}
	if s := sortedCopy(pooled["admit_ms"]); len(s) > 0 {
		out["admit_p50_ms"] = quantile(s, 0.5)
		out["admit_p95_ms"] = quantile(s, 0.95)
	}
	return out
}
