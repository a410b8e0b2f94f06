package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteTable1CSV emits Table 1 rows as CSV for external analysis.
func WriteTable1CSV(w io.Writer, rows []Table1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"configuration", "requests", "failures", "failures_per_1000", "availability", "mean_rtt_us"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Configuration,
			strconv.Itoa(r.Requests),
			strconv.Itoa(r.Failures),
			fmt.Sprintf("%.2f", r.FailuresPer1000),
			fmt.Sprintf("%.4f", r.Availability),
			strconv.FormatInt(r.MeanRTT.Microseconds(), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure5CSV emits the Figure 5 series as CSV, one row per
// (operation, size) point — the data behind the paper's two charts.
func WriteFigure5CSV(w io.Writer, points []Figure5Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"operation", "size_kb", "direct_rtt_us", "wsbus_rtt_us", "overhead_pct"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			p.Operation,
			strconv.Itoa(p.SizeKB),
			strconv.FormatInt(p.DirectRTT.Microseconds(), 10),
			strconv.FormatInt(p.BusRTT.Microseconds(), 10),
			fmt.Sprintf("%.2f", p.OverheadPct),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteHedgeCSV emits the hedging comparison as CSV.
func WriteHedgeCSV(w io.Writer, points []HedgePoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"mode", "requests", "failures", "mean_us", "p50_us", "p95_us", "p99_us", "hedges_launched", "hedges_won"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			p.Mode,
			strconv.Itoa(p.Requests),
			strconv.Itoa(p.Failures),
			strconv.FormatInt(p.Mean.Microseconds(), 10),
			strconv.FormatInt(p.P50.Microseconds(), 10),
			strconv.FormatInt(p.P95.Microseconds(), 10),
			strconv.FormatInt(p.P99.Microseconds(), 10),
			strconv.FormatUint(p.HedgesLaunched, 10),
			strconv.FormatUint(p.HedgesWon, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteThroughputCSV emits the throughput sweep as CSV.
func WriteThroughputCSV(w io.Writer, points []ThroughputPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"clients", "direct_rps", "wsbus_rps", "loss_pct"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			strconv.Itoa(p.Concurrency),
			fmt.Sprintf("%.1f", p.DirectRPS),
			fmt.Sprintf("%.1f", p.BusRPS),
			fmt.Sprintf("%.2f", p.OverheadPct),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
