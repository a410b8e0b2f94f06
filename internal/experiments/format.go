package experiments

import (
	"fmt"
	"strings"
)

// FormatTable1 renders Table 1 rows the way the paper presents them.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1. Reliability and availability of direct interactions vs channeling through wsBus\n")
	sb.WriteString(fmt.Sprintf("%-55s | %-26s | %-12s | %s\n",
		"Configuration", "Reliability", "Availability", "Mean RTT"))
	sb.WriteString(strings.Repeat("-", 112) + "\n")
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-55s | %6.1f failures per 1000   | %12.3f | %v\n",
			r.Configuration, r.FailuresPer1000, r.Availability, r.MeanRTT.Round(10_000)))
	}
	return sb.String()
}

// FormatFigure5 renders the Figure 5 series as aligned columns, one
// block per operation.
func FormatFigure5(points []Figure5Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 5. Round trip time (RTT) for direct interactions vs channeling through wsBus\n")
	current := ""
	for _, p := range points {
		if p.Operation != current {
			current = p.Operation
			sb.WriteString(fmt.Sprintf("\n%s:\n", current))
			sb.WriteString(fmt.Sprintf("  %-10s %-14s %-14s %s\n", "size (KB)", "direct RTT", "wsBus RTT", "overhead"))
		}
		sb.WriteString(fmt.Sprintf("  %-10d %-14v %-14v %+.1f%%\n",
			p.SizeKB, p.DirectRTT.Round(1000), p.BusRTT.Round(1000), p.OverheadPct))
	}
	return sb.String()
}

// FormatThroughput renders the throughput sweep.
func FormatThroughput(points []ThroughputPoint) string {
	var sb strings.Builder
	sb.WriteString("Throughput: successful getCatalog requests/second, direct vs wsBus\n")
	sb.WriteString(fmt.Sprintf("  %-12s %-14s %-14s %s\n", "clients", "direct rps", "wsBus rps", "loss"))
	for _, p := range points {
		sb.WriteString(fmt.Sprintf("  %-12d %-14.0f %-14.0f %+.1f%%\n",
			p.Concurrency, p.DirectRPS, p.BusRPS, p.OverheadPct))
	}
	return sb.String()
}

// FormatRetrySweep renders the retry-budget ablation.
func FormatRetrySweep(points []RetrySweepPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: retry budget vs failures per 1000 (Table 1 fault profile)\n")
	sb.WriteString(fmt.Sprintf("  %-12s %-10s %-20s %s\n", "maxAttempts", "failover", "failures per 1000", "mean RTT"))
	for _, p := range points {
		sb.WriteString(fmt.Sprintf("  %-12d %-10v %-20.1f %v\n",
			p.MaxAttempts, p.Failover, p.FailuresPer1000, p.MeanRTT.Round(10_000)))
	}
	return sb.String()
}

// FormatSelection renders the strategy comparison.
func FormatSelection(points []SelectionPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: recovery strategy comparison (Table 1 fault profile)\n")
	sb.WriteString(fmt.Sprintf("  %-28s %-20s %s\n", "strategy", "failures per 1000", "mean RTT"))
	for _, p := range points {
		sb.WriteString(fmt.Sprintf("  %-28s %-20.1f %v\n", p.Strategy, p.FailuresPer1000, p.MeanRTT.Round(10_000)))
	}
	return sb.String()
}

// FormatReparse renders the policy-representation ablation.
func FormatReparse(points []ReparsePoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: policy object repository vs re-parse per decision\n")
	for _, p := range points {
		sb.WriteString(fmt.Sprintf("  %-24s mean RTT %-10v policy parses %d\n", p.Mode, p.MeanRTT.Round(1000), p.Parses))
	}
	return sb.String()
}

// FormatListener renders the listener-model ablation.
func FormatListener(points []ListenerPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: listener serving model throughput at 16 clients\n")
	for _, p := range points {
		sb.WriteString(fmt.Sprintf("  %-24s %.0f req/s\n", p.Mode, p.Throughput))
	}
	return sb.String()
}
