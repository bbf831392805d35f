package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etsn/internal/core"
	"etsn/internal/qcc"
)

// admitBodyBackend is admitBody with an explicit replan backend (also a
// fuzz seed for DecodeAdmit).
const admitBodyBackend = `{"backend": "anneal", "streams": [
  {"id": "t2", "talker": "D4", "listener": "D2", "type": "time-triggered",
   "period_us": 620, "max_latency_us": 744, "payload_bytes": 500}
]}`

// planConfigNoBackend strips the pinned backend from the test config so the
// daemon's default policy applies.
func planConfigNoBackend() string {
	return strings.Replace(planConfig, `"backend": "placer"`, `"backend": ""`, 1)
}

// TestSubmitBackendDefaultsToRace: a plan job that does not pin a backend
// runs (and journals) the daemon's race policy, so a restart rebuilds the
// live plan with exactly the backend that produced it.
func TestSubmitBackendDefaultsToRace(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	job, err := s.Submit("acme", KindPlan, []byte(planConfigNoBackend()))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := waitJob(t, job); snap.State != JobDone {
		t.Fatalf("plan job: %+v", snap)
	}
	ten := s.tenantGet("acme")
	ten.mu.Lock()
	effective := string(ten.effective)
	ten.mu.Unlock()
	if !strings.Contains(effective, `"backend":"race"`) {
		t.Fatalf("effective config does not journal the race default: %s", effective)
	}
	if v := s.reg.CounterValue("etsn_backend_races_total"); v == 0 {
		t.Fatal("plan job did not run the race")
	}
	s.Shutdown()

	// Restart: the journaled effective config carries the backend, so the
	// replayed live controller solves with it too.
	s2 := newTestServer(t, Config{DataDir: dir})
	defer s2.Shutdown()
	adm, err := s2.Submit("acme", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	if snap := waitJob(t, adm); snap.State != JobDone {
		t.Fatalf("admit after restart: %+v", snap)
	}
}

// TestAdmitBackendAppliedToReplans: an admit request's backend lands on the
// live controller's replan knob; an unknown name is rejected at decode time
// as invalid input.
func TestAdmitBackendAppliedToReplans(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown()
	job, err := s.Submit("acme", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := waitJob(t, job); snap.State != JobDone {
		t.Fatalf("plan job: %+v", snap)
	}
	adm, err := s.Submit("acme", KindAdmit, []byte(admitBodyBackend))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	if snap := waitJob(t, adm); snap.State != JobDone {
		t.Fatalf("admit job: %+v", snap)
	}
	ctrl, err := s.liveController(s.tenantGet("acme"))
	if err != nil {
		t.Fatalf("liveController: %v", err)
	}
	if ctrl.ReplanBackend != core.BackendAnneal {
		t.Fatalf("ReplanBackend = %v, want anneal", ctrl.ReplanBackend)
	}

	if _, err := DecodeAdmit(bytes.NewReader([]byte(
		`{"backend": "quantum", "streams": [{"id": "a", "talker": "D1", "listener": "D2",
		  "type": "time-triggered", "period_us": 620, "max_latency_us": 744, "payload_bytes": 100}]}`,
	)), 0); Classify(err) != ClassInvalid {
		t.Fatalf("unknown admit backend classified %v (%v), want invalid", Classify(err), err)
	}
}

// TestRemovedBackendsRejected: naming a backend the scheduler no longer
// has is invalid input at the boundary — a plan or admit submission gets
// ErrBadConfig, i.e. HTTP 400, before anything is journaled.
func TestRemovedBackendsRejected(t *testing.T) {
	_, ts := newHTTPServer(t, Config{})
	for _, name := range []string{"greedy", "tabu"} {
		cfg := strings.Replace(planConfig, `"backend": "placer"`, `"backend": "`+name+`"`, 1)
		if _, err := DecodeSubmit(strings.NewReader(cfg), 0); !errors.Is(err, qcc.ErrBadConfig) {
			t.Fatalf("DecodeSubmit(%s) err = %v, want ErrBadConfig", name, err)
		}
		if resp, body := doJSON(t, "POST", ts.URL+"/v1/tenants/acme/jobs", cfg); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("plan submission naming %s = %d (%s), want 400", name, resp.StatusCode, body)
		}
		admit := strings.Replace(admitBodyBackend, `"backend": "anneal"`, `"backend": "`+name+`"`, 1)
		if resp, body := doJSON(t, "POST", ts.URL+"/v1/tenants/acme/streams", admit); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("admit submission naming %s = %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}

// TestRestartWithRemovedBackendInJournal: a journal written when "greedy"
// still existed names it in the tenant's effective config. A restart must
// still serve the journaled plan, and the tenant's next admission must fail
// as invalid input naming the backend — never silently replan with a
// different one.
func TestRestartWithRemovedBackendInJournal(t *testing.T) {
	dir := t.TempDir()
	payload := strings.Replace(planConfig, `"backend": "placer"`, `"backend": "greedy"`, 1)
	var effective bytes.Buffer
	if err := json.Compact(&effective, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	export := `{"hyperperiod_ns":620000,"backend":"greedy","links":[]}`
	records := []journalRecord{
		{Seq: 1, Kind: "submitted", Job: "j-1", Tenant: "acme", JobKind: KindPlan, Payload: json.RawMessage(effective.Bytes())},
		{Seq: 2, Kind: "started", Job: "j-1", Tenant: "acme"},
		{Seq: 3, Kind: "done", Job: "j-1", Tenant: "acme", Version: 1,
			Export: json.RawMessage(export), Effective: json.RawMessage(effective.Bytes())},
	}
	var journal bytes.Buffer
	for _, rec := range records {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal.Write(append(line, '\n'))
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{DataDir: dir})
	defer s.Shutdown()
	pv, err := s.Plan("acme", 1)
	if err != nil {
		t.Fatalf("Plan after restart: %v", err)
	}
	if string(pv.Export) != export {
		t.Fatalf("served export %s, want the journaled %s", pv.Export, export)
	}
	adm, err := s.Submit("acme", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	snap := waitJob(t, adm)
	if snap.State != JobFailed || snap.Class != ClassInvalid.String() || !strings.Contains(snap.Error, `unknown backend "greedy"`) {
		t.Fatalf("admit over a greedy journal: %+v, want an invalid-input failure naming greedy", snap)
	}
	if versions, err := s.Plans("acme"); err != nil || len(versions) != 1 {
		t.Fatalf("plans after the failed admit: %d versions, %v; want the journaled one only", len(versions), err)
	}
}
