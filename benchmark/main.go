//go:build linux

// Command benchmark is the one benchmark of mascd: it builds
// cmd/mascd, boots it as a subprocess with its stock flags, drives it
// closed-loop over loopback HTTP, validates every reply and prints
// every metric BENCHMARK.json names. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run (default: all six)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 0, "measuring time per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, no tracing; 1: per-layer metrics (scrape, layer bench, traced replica)")
	out := fs.String("out", "", "append each result as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	selfcheck := fs.Bool("selfcheck", false, "run two sets of 3 runs of this build and compare them")
	if err := fs.Parse(args); err != nil {
		return err
	}

	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1))
	}

	todo := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		todo = []*workload{w}
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	budget := time.Duration(*seconds) * time.Second

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := newHarness(ctx)
	if err != nil {
		return err
	}
	defer h.close()

	if *selfcheck {
		return h.selfcheck(spec, todo, *seed, budget)
	}
	fmt.Printf("harness.build_s %.3f s\n", h.buildS)
	for _, w := range todo {
		var res *result
		if *trace == 1 {
			res, err = h.runTraced(spec, w, *seed)
		} else {
			res, err = h.runE2E(spec, w, *seed, budget)
		}
		if err != nil {
			return err
		}
		if err := res.emit(*out); err != nil {
			return err
		}
	}
	return nil
}

// emit prints every metric by name with its unit, then the result as
// one JSON line (the last line of output, which the driver parses),
// and appends the full record to the -out file.
func (r *result) emit(outFile string) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d epochs=%d input_sha=%s ops_attempted=%d ops_failed=%d\n",
		r.Workload, r.Seed, r.Epochs, r.InputSHA, r.Attempted, r.Failed)
	for _, name := range names {
		fmt.Printf("%s %s %v %s\n", r.Workload, name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	if outFile != "" {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(outFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
