package main

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/workflow"
)

// timelineReport is /api/v1/instances/{id}/timeline as the tests read
// it.
type timelineReport struct {
	Instance string   `json:"instance"`
	Sources  []string `json:"sources"`
	Count    int      `json:"count"`
	Events   []struct {
		Time       time.Time                 `json:"time"`
		Source     string                    `json:"source"`
		Decision   *decision.Record          `json:"decision"`
		Journal    *telemetry.Entry          `json:"journal"`
		Checkpoint *workflow.CheckpointEvent `json:"checkpoint"`
	} `json:"events"`
}

// TestInstanceTimelineMergesSources is the PR's acceptance scenario:
// an OrderingProcess instance that needed messaging-layer recovery
// yields a /api/v1/instances/{id}/timeline response merging at least
// three source kinds in time order, with the adaptation decision and
// its checkpoints visible in one view.
func TestInstanceTimelineMergesSources(t *testing.T) {
	// A persistent daemon whose Retailer VEP lists a dead backend first:
	// every process invoke exercises retry + failover — an adapted
	// instance with decisions, journal entries, trace spans, and
	// checkpoints to merge.
	d, srv := bootDeadFirst(t, daemon.Config{DataDir: t.TempDir(), Sync: "always"})

	inst, err := d.Engine().Start("OrderingProcess", orderingInputs())
	if err != nil {
		t.Fatal(err)
	}
	state, err := inst.Wait(30 * time.Second)
	if err != nil || state != workflow.StateCompleted {
		t.Fatalf("instance state = %v err = %v", state, err)
	}

	hr, err := srv.Client().Get(srv.URL + "/api/v1/instances/" + inst.ID() + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("GET timeline status = %d", hr.StatusCode)
	}
	var rep timelineReport
	if err := json.NewDecoder(hr.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Instance != inst.ID() || rep.Count != len(rep.Events) || rep.Count == 0 {
		t.Fatalf("timeline report = instance %q count %d events %d",
			rep.Instance, rep.Count, len(rep.Events))
	}
	if len(rep.Sources) < 3 {
		t.Fatalf("timeline sources = %v, want >= 3 kinds", rep.Sources)
	}

	// Events come back in time order.
	for i := 1; i < len(rep.Events); i++ {
		if rep.Events[i].Time.Before(rep.Events[i-1].Time) {
			t.Fatalf("timeline out of order at %d: %v after %v",
				i, rep.Events[i].Time, rep.Events[i-1].Time)
		}
	}

	// The merge contains the adaptation decision that explains the
	// recovery, a journal entry, and the instance's checkpoints.
	var sawAdapt, sawJournal, sawCheckpoint, sawFullAnchor bool
	for _, ev := range rep.Events {
		switch ev.Source {
		case "decision":
			if ev.Decision == nil {
				t.Fatalf("decision event without detail: %+v", ev)
			}
			if ev.Decision.Policy == "retry-then-failover" &&
				ev.Decision.Verdict == decision.VerdictMatched {
				if ev.Decision.Instance != inst.ID() {
					t.Fatalf("adaptation decision instance = %q, want %q",
						ev.Decision.Instance, inst.ID())
				}
				sawAdapt = true
			}
		case "journal":
			if ev.Journal == nil || ev.Journal.Conversation != inst.ID() {
				t.Fatalf("journal event = %+v", ev)
			}
			sawJournal = true
		case "checkpoint":
			if ev.Checkpoint == nil || ev.Checkpoint.Instance != inst.ID() {
				t.Fatalf("checkpoint event = %+v", ev)
			}
			sawCheckpoint = true
			if ev.Checkpoint.Kind == "full" {
				sawFullAnchor = true
			}
		}
	}
	if !sawAdapt {
		t.Fatalf("no matched retry-then-failover decision in timeline\n%+v", rep.Events)
	}
	if !sawJournal || !sawCheckpoint || !sawFullAnchor {
		t.Fatalf("journal=%v checkpoint=%v fullAnchor=%v", sawJournal, sawCheckpoint, sawFullAnchor)
	}
}

// TestInstanceTimelineUnknownInstance asserts the timeline verb 404s
// for unknown IDs like the other instance resources.
func TestInstanceTimelineUnknownInstance(t *testing.T) {
	_, srv := bootDeadFirst(t, daemon.Config{})

	hr, err := srv.Client().Get(srv.URL + "/api/v1/instances/nope/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", hr.StatusCode)
	}
}
