package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	if err := run(true, false, false, false, false, 200, 7, t.TempDir(), ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallFigure5AndThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	if err := run(false, true, true, false, false, 40, 7, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(true, false, true, false, false, 40, 7, "", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("bench JSON does not parse: %v", err)
	}
	if report.Seed != 7 || report.Requests != 40 {
		t.Errorf("config echoed wrong: requests=%d seed=%d", report.Requests, report.Seed)
	}
	if len(report.Table1) == 0 {
		t.Error("table1 section empty")
	}
	if len(report.Throughput) == 0 {
		t.Error("throughput section empty")
	}
	if report.Figure5 != nil || report.Hedge != nil || report.Ablations != nil {
		t.Error("sections for experiments that did not run should be omitted")
	}
	if report.Version != "dev" { // unstamped test build
		t.Errorf("version = %q", report.Version)
	}
	for _, row := range report.Table1 {
		if row.Requests <= 0 {
			t.Errorf("table1 row %q has no requests", row.Configuration)
		}
		mediated := strings.HasPrefix(row.Configuration, "wsBus")
		if mediated != (row.Adaptation != nil) {
			t.Errorf("table1 row %q adaptation = %+v", row.Configuration, row.Adaptation)
		}
		if mediated && row.Adaptation.Attempts < row.Adaptation.Invocations {
			t.Errorf("adaptation snapshot inconsistent: %+v", row.Adaptation)
		}
	}
}
