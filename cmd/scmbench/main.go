// Command scmbench regenerates the paper's evaluation artifacts on the
// WS-I Supply Chain Management case study:
//
//	scmbench -table1      # Table 1: reliability/availability, direct vs wsBus
//	scmbench -figure5     # Figure 5: RTT vs request size, direct vs wsBus
//	scmbench -throughput  # throughput sweep (§3.2 metric)
//	scmbench -hedge       # hedged invocation vs plain: tail latency under QoS degradation
//	scmbench -ablations   # retry budget, strategy, policy-reparse, listener
//	scmbench -all         # everything
//
// Results print as formatted tables; -csv additionally writes per-
// experiment CSV files and -bench-json (or the MASC_BENCH_JSON
// environment variable) writes one machine-readable JSON document with
// every result from the run, for CI trend tracking.
//
// See EXPERIMENTS.md for how each output maps onto the paper.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/masc-project/masc/internal/experiments"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/version"
)

func main() {
	var (
		table1     = flag.Bool("table1", false, "run the Table 1 reliability/availability experiment")
		figure5    = flag.Bool("figure5", false, "run the Figure 5 RTT-vs-size experiment")
		throughput = flag.Bool("throughput", false, "run the throughput sweep")
		hedge      = flag.Bool("hedge", false, "run the hedged-invocation tail-latency comparison")
		ablations  = flag.Bool("ablations", false, "run the ablation studies")
		all        = flag.Bool("all", false, "run everything")
		requests   = flag.Int("requests", 0, "requests per configuration (0 = default)")
		seed       = flag.Int64("seed", 42, "fault-injection and jitter seed")
		csvDir     = flag.String("csv", "", "also write results as CSV files into this directory")
		benchJSON  = flag.String("bench-json", "", "write all results as one JSON file (default $MASC_BENCH_JSON)")
	)
	flag.Parse()
	if !*table1 && !*figure5 && !*throughput && !*hedge && !*ablations && !*all {
		flag.Usage()
		os.Exit(2)
	}
	jsonPath := *benchJSON
	if jsonPath == "" {
		jsonPath = os.Getenv("MASC_BENCH_JSON")
	}
	if err := run(*table1 || *all, *figure5 || *all, *throughput || *all, *hedge || *all, *ablations || *all, *requests, *seed, *csvDir, jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "scmbench:", err)
		os.Exit(1)
	}
}

// benchReport is the machine-readable shape written by -bench-json.
// Sections are present only for the experiments that ran; durations
// serialize as nanoseconds (time.Duration's JSON form).
type benchReport struct {
	Version    string                        `json:"version"`
	Requests   int                           `json:"requests"`
	Seed       int64                         `json:"seed"`
	Table1     []experiments.Table1Row       `json:"table1,omitempty"`
	Figure5    []experiments.Figure5Point    `json:"figure5,omitempty"`
	Throughput []experiments.ThroughputPoint `json:"throughput,omitempty"`
	Hedge      []experiments.HedgePoint      `json:"hedge,omitempty"`
	Ablations  *ablationReport               `json:"ablations,omitempty"`
	// Runtime captures the bench process's allocation and GC pressure
	// across the whole run.
	Runtime *runtimeReport `json:"runtime,omitempty"`
}

// runtimeReport is the allocation-pressure section of -bench-json.
type runtimeReport struct {
	Before telemetry.RuntimeSnapshot `json:"before"`
	After  telemetry.RuntimeSnapshot `json:"after"`
	Delta  telemetry.RuntimeDelta    `json:"delta"`
}

type ablationReport struct {
	RetrySweep []experiments.RetrySweepPoint `json:"retry_sweep"`
	Selection  []experiments.SelectionPoint  `json:"selection"`
	Reparse    []experiments.ReparsePoint    `json:"reparse"`
	Listener   []experiments.ListenerPoint   `json:"listener"`
}

func run(table1, figure5, throughput, hedge, ablations bool, requests int, seed int64, csvDir, jsonPath string) error {
	writeCSV := func(name string, write func(io.Writer) error) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return write(f)
	}

	report := benchReport{Version: version.Version, Requests: requests, Seed: seed}
	runtimeBefore := telemetry.CaptureRuntime()

	if table1 {
		rows, err := experiments.RunTable1(experiments.Table1Config{Requests: requests, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable1(rows))
		report.Table1 = rows
		if err := writeCSV("table1.csv", func(w io.Writer) error {
			return experiments.WriteTable1CSV(w, rows)
		}); err != nil {
			return err
		}
	}
	if figure5 {
		points, err := experiments.RunFigure5(experiments.Figure5Config{RequestsPerPoint: requests, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure5(points))
		report.Figure5 = points
		if err := writeCSV("figure5.csv", func(w io.Writer) error {
			return experiments.WriteFigure5CSV(w, points)
		}); err != nil {
			return err
		}
	}
	if throughput {
		points, err := experiments.RunThroughput(experiments.ThroughputConfig{RequestsPerClient: requests, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatThroughput(points))
		report.Throughput = points
		if err := writeCSV("throughput.csv", func(w io.Writer) error {
			return experiments.WriteThroughputCSV(w, points)
		}); err != nil {
			return err
		}
	}
	if hedge {
		points, err := experiments.RunHedgeComparison(experiments.HedgeConfig{Requests: requests, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatHedge(points))
		report.Hedge = points
		if err := writeCSV("hedge.csv", func(w io.Writer) error {
			return experiments.WriteHedgeCSV(w, points)
		}); err != nil {
			return err
		}
	}
	if ablations {
		sweep, err := experiments.RunRetrySweep(experiments.Table1Config{Requests: requests, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatRetrySweep(sweep))

		sel, err := experiments.RunSelectionComparison(experiments.Table1Config{Requests: requests, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatSelection(sel))

		rep, err := experiments.RunReparseAblation(experiments.Table1Config{Requests: requests, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatReparse(rep))

		lis, err := experiments.RunListenerAblation(experiments.ThroughputConfig{RequestsPerClient: requests, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatListener(lis))
		report.Ablations = &ablationReport{
			RetrySweep: sweep,
			Selection:  sel,
			Reparse:    rep,
			Listener:   lis,
		}
	}
	runtimeAfter := telemetry.CaptureRuntime()
	report.Runtime = &runtimeReport{
		Before: runtimeBefore,
		After:  runtimeAfter,
		Delta:  runtimeAfter.DeltaSince(runtimeBefore),
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
