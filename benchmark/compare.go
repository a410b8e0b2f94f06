//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// readResults loads an -out file: one result per line.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives (exclusive method), which is what the driver computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// row is the verdict on one (workload, end-to-end metric) pairing.
type row struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3
	worse            float64    // share of a's median by which b's median is worse
	spread           float64    // the wider interquartile range, as a share of a's median
	bound            float64
	verdict          string // ok, regressed, unresolved
}

// compareSets judges set b against set a with the bounds of
// BENCHMARK.json. A difference is a regression only when it exceeds
// the bound and the spread is narrow enough to resolve it; with a wide
// spread the row is unresolved unless every run of b beats every run
// of a.
func compareSets(spec *benchSpec, a, b []*result) []row {
	collect := func(rs []*result) map[string]map[string][]float64 {
		m := map[string]map[string][]float64{}
		for _, r := range rs {
			if m[r.Workload] == nil {
				m[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				m[r.Workload][name] = append(m[r.Workload][name], v.Value)
			}
		}
		return m
	}
	ma, mb := collect(a), collect(b)
	var rows []row
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := ma[w.Name][m.Name], mb[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{workload: w.Name, metric: m.Name, bound: m.Bound}
			r.a[0], r.a[1], r.a[2] = quartiles(va)
			r.b[0], r.b[1], r.b[2] = quartiles(vb)
			sign := 1.0 // lower is better: b worse when larger
			if m.Better == "higher" {
				sign = -1
			}
			r.worse = sign * (r.b[1] - r.a[1]) / r.a[1]
			r.spread = (r.a[2] - r.a[0]) / r.a[1]
			if s := (r.b[2] - r.b[0]) / r.a[1]; s > r.spread {
				r.spread = s
			}
			allBetter := true
			for _, x := range va {
				for _, y := range vb {
					if sign*(y-x) >= 0 {
						allBetter = false
					}
				}
			}
			switch {
			// Set-up time is a few milliseconds of process start; like the
			// driver, judge it on its median alone.
			case r.spread > r.bound && !allBetter && m.Name != "setup_s":
				r.verdict = "unresolved"
			case r.worse > r.bound:
				r.verdict = "regressed"
			default:
				r.verdict = "ok"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// report prints the rows and returns how many are regressed and
// unresolved.
func report(rows []row) (regressed, unresolved int) {
	fmt.Printf("%-16s %-19s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-16s %-19s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.a[1], r.b[1], r.worse*100, r.spread*100, r.bound*100, r.verdict)
		switch r.verdict {
		case "regressed":
			regressed++
		case "unresolved":
			unresolved++
		}
	}
	return regressed, unresolved
}

func compareFiles(spec *benchSpec, fileA, fileB string) error {
	a, err := readResults(fileA)
	if err != nil {
		return err
	}
	b, err := readResults(fileB)
	if err != nil {
		return err
	}
	if regressed, _ := report(compareSets(spec, a, b)); regressed > 0 {
		return fmt.Errorf("%d end-to-end metric(s) regressed beyond the bound", regressed)
	}
	return nil
}

// selfcheck runs two sets of three runs of this build, alternating,
// each run on its own seed, and holds the benchmark to its own bounds:
// a regressed or unresolved row means the benchmark, not mascd, is too
// noisy.
func (h *harness) selfcheck(spec *benchSpec, todo []*workload, seed int64, budget time.Duration) error {
	var sets [2][]*result
	for run := 0; run < 6; run++ {
		for _, w := range todo {
			res, err := h.runE2E(spec, w, seed+int64(run), budget)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
			sets[run%2] = append(sets[run%2], res)
		}
	}
	if regressed, unresolved := report(compareSets(spec, sets[0], sets[1])); regressed+unresolved > 0 {
		return fmt.Errorf("two sets of the same build disagree: %d regressed, %d unresolved", regressed, unresolved)
	}
	return nil
}
