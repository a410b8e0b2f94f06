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
// experiment CSV files. (The machine-readable benchmark of the daemon
// is benchmark/, declared in BENCHMARK.json.)
//
// See EXPERIMENTS.md for how each output maps onto the paper.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/masc-project/masc/internal/experiments"
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
	)
	flag.Parse()
	if !*table1 && !*figure5 && !*throughput && !*hedge && !*ablations && !*all {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*table1 || *all, *figure5 || *all, *throughput || *all, *hedge || *all, *ablations || *all, *requests, *seed, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "scmbench:", err)
		os.Exit(1)
	}
}

func run(table1, figure5, throughput, hedge, ablations bool, requests int, seed int64, csvDir string) error {
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

	if table1 {
		rows, err := experiments.RunTable1(experiments.Table1Config{Requests: requests, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable1(rows))
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
	}
	return nil
}
