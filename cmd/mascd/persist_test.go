package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/workflow"
)

func getInstances(t *testing.T, srv *httptest.Server) []instanceSummary {
	t.Helper()
	hr, err := srv.Client().Get(srv.URL + "/api/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("GET /api/v1/instances status = %d", hr.StatusCode)
	}
	var page struct {
		Instances []instanceSummary `json:"instances"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page.Instances
}

// TestDaemonCrashRecoveryEndToEnd is the PR's acceptance scenario at
// daemon level: an OrderingProcess instance suspended mid-run survives
// a simulated crash (store abandoned without flush) and — after the
// daemon is rebuilt over the same data dir — appears in
// /api/v1/instances as recovered, resumes via the API, and completes.
func TestDaemonCrashRecoveryEndToEnd(t *testing.T) {
	cfg := daemon.Config{DataDir: t.TempDir(), Sync: "always"}
	d1, _ := boot(t, cfg)

	inst, err := d1.Engine().CreateInstance("OrderingProcess", orderingInputs())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if !inst.AwaitState(workflow.StateSuspended, 2*time.Second) {
		t.Fatalf("instance did not park; state = %s", inst.State())
	}
	d1.Store().Abandon() // crash: no clean close

	d2, srv := boot(t, cfg)

	list := getInstances(t, srv)
	if len(list) != 1 || list[0].ID != inst.ID() || !list[0].Recovered || list[0].State != "suspended" {
		t.Fatalf("instances after recovery = %+v", list)
	}
	if h := getHealth(t, srv); h.Store == nil || h.Store.RecoveredInstances != 1 {
		t.Fatalf("healthz store section = %+v", h.Store)
	}

	hr, err := srv.Client().Post(srv.URL+"/api/v1/instances/"+inst.ID()+"/resume",
		"application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("resume status = %d", hr.StatusCode)
	}

	rec, err := d2.Engine().Instance(inst.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := rec.Wait(5 * time.Second); err != nil || st != workflow.StateCompleted {
		t.Fatalf("recovered instance state = %s err = %v", st, err)
	}
	// The confirmation came from a real retailer through the VEP.
	if out, ok := rec.GetVar("confirmation"); !ok || out == nil {
		t.Fatal("recovered instance has no confirmation output")
	}
	// The completion checkpoint is durable (decode the delta chain).
	raw, ok := d2.Store().Get(workflow.SpaceInstances, inst.ID())
	if !ok {
		t.Fatal("terminal checkpoint missing")
	}
	doc, err := workflow.DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.AttrValue("", "state"); got != "completed" {
		t.Fatalf("terminal checkpoint state = %q, want completed", got)
	}

	// The export endpoint decodes the same chain to XML.
	hr2, err := srv.Client().Get(srv.URL + "/api/v1/instances/" + inst.ID() + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr2.Body)
	hr2.Body.Close()
	if hr2.StatusCode != 200 || !strings.Contains(string(body), "instanceSnapshot") {
		t.Fatalf("checkpoint export status = %d body = %q", hr2.StatusCode, body)
	}
}

// TestInstancesAPIStartAndList covers POST /api/v1/instances with the
// default demo inputs and the listing/detail endpoints.
func TestInstancesAPIStartAndList(t *testing.T) {
	d, srv := boot(t, daemon.Config{})

	hr, err := srv.Client().Post(srv.URL+"/api/v1/instances", "application/json",
		bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	var started instanceSummary
	err = json.NewDecoder(hr.Body).Decode(&started)
	hr.Body.Close()
	if err != nil || hr.StatusCode != 202 {
		t.Fatalf("status = %d err = %v", hr.StatusCode, err)
	}
	if started.Definition != "OrderingProcess" || started.ID == "" {
		t.Fatalf("started = %+v", started)
	}

	inst, err := d.Engine().Instance(started.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := inst.Wait(5 * time.Second); err != nil || st != workflow.StateCompleted {
		t.Fatalf("state = %s err = %v", st, err)
	}

	list := getInstances(t, srv)
	if len(list) != 1 || list[0].State != "completed" {
		t.Fatalf("instances = %+v", list)
	}

	// Unknown definition → 404 envelope.
	hr2, err := srv.Client().Post(srv.URL+"/api/v1/instances", "application/json",
		bytes.NewReader([]byte(`{"definition":"Ghost"}`)))
	if err != nil {
		t.Fatal(err)
	}
	hr2.Body.Close()
	if hr2.StatusCode != 404 {
		t.Fatalf("ghost status = %d", hr2.StatusCode)
	}
}
