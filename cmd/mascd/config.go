package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/store"
)

// config is mascd's parsed command line: the daemon's Config plus the
// two flags only the command acts on.
type config struct {
	listen  string
	version bool
	daemon.Config
}

// intFlag declares an integer flag that must be at least min when it
// is given. Left unset, *p keeps its zero value, which the package
// consuming it reads as "use the default".
func intFlag[T int | int64](fs *flag.FlagSet, p *T, name string, min T, usage string) {
	fs.Func(name, usage, func(s string) error {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || T(n) < min {
			return fmt.Errorf("want an integer >= %d", min)
		}
		*p = T(n)
		return nil
	})
}

// newFlagSet declares every mascd flag, each filling its field of cfg.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("mascd", flag.ContinueOnError)
	fs.StringVar(&cfg.listen, "listen", ":8080", "`address` the SOAP gateway and the management API listen on")
	fs.StringVar(&cfg.Policies, "policies", "", "WS-Policy4MASC `file` replacing the built-in policy document")
	fs.StringVar(&cfg.PolicyDir, "policy-dir", "", "`directory` of *.xml policy documents loaded as one bundle")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "`directory` of the durable WAL+snapshot store (none: in-memory only)")
	fs.StringVar(&cfg.Sync, "sync", "batched", "store fsync `mode`: always, batched, or off")
	intFlag(fs, &cfg.Checkpoint.AnchorEvery, "ckpt-anchor-every", 1, "delta `records` per checkpoint chain before a fresh full snapshot (default 32)")
	intFlag(fs, &cfg.Checkpoint.QueueDepth, "ckpt-queue", 1, "async checkpoint queue `depth`, the backpressure point (default 256)")
	fs.BoolVar(&cfg.Checkpoint.DurableFinish, "ckpt-durable-finish", false, "instance completion waits for the terminal checkpoint's fsync")
	intFlag(fs, &cfg.DecisionRing, "decision-ring", 1, "decision `records` kept in memory (default 4096)")
	intFlag(fs, &cfg.DecisionLog.SegmentBytes, "decision-log-segment", 1, "`bytes` per durable decision-log segment (default 4 MiB)")
	intFlag(fs, &cfg.DecisionLog.MaxSegments, "decision-log-keep", 1, "decision-log `segments` retained (default 8)")
	fs.StringVar(&cfg.Cluster.NodeID, "node-id", "", "this node's cluster `id`; enables cluster mode")
	fs.StringVar(&cfg.Cluster.Advertise, "advertise", "", "base `URL` peers reach this node at")
	fs.Func("cluster-seed", "peer as `id=http://host:port`; repeatable", func(s string) error {
		seed, err := parseSeed(s)
		if err != nil {
			return err
		}
		cfg.Cluster.Seeds = append(cfg.Cluster.Seeds, seed)
		return nil
	})
	intFlag(fs, &cfg.Cluster.ReplicationLevel, "replication-level", 0, "`followers` that must acknowledge an instance's terminal checkpoint")
	fs.StringVar(&cfg.Cluster.Secret, "cluster-secret", "", "shared `token` required on heartbeats and WAL fetches")
	fs.DurationVar(&cfg.Cluster.Heartbeat, "cluster-heartbeat", 0, "failure-detector `interval` (default 1s)")
	fs.BoolVar(&cfg.Debug, "debug", false, "mount /debug/pprof")
	fs.BoolVar(&cfg.version, "version", false, "print the version and exit")
	return fs
}

// parseSeed parses one -cluster-seed value, "id=http://host:port".
func parseSeed(s string) (cluster.NodeInfo, error) {
	id, addr, ok := strings.Cut(s, "=")
	if !ok || id == "" || addr == "" {
		return cluster.NodeInfo{}, fmt.Errorf("-cluster-seed: want id=http://host:port, got %q", s)
	}
	return cluster.NodeInfo{ID: id, Addr: strings.TrimRight(addr, "/")}, nil
}

// parseFlags turns the command line into a config, rejecting anything
// it cannot honour before the daemon has any side effect. On -h it
// prints the flag list to usage and returns flag.ErrHelp.
func parseFlags(args []string, usage io.Writer) (*config, error) {
	cfg := &config{}
	fs := newFlagSet(cfg)
	fs.SetOutput(io.Discard) // the caller reports the error, once
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(usage)
			fs.Usage()
		}
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, err := store.ParseSyncMode(cfg.Sync); err != nil {
		return nil, fmt.Errorf("-sync: %w", err)
	}
	if cfg.Policies != "" && cfg.PolicyDir != "" {
		return nil, fmt.Errorf("-policies and -policy-dir are mutually exclusive")
	}
	cfg.Cluster.Advertise = strings.TrimRight(cfg.Cluster.Advertise, "/")
	if cfg.Cluster.NodeID != "" && cfg.Cluster.Advertise == "" {
		return nil, fmt.Errorf("-node-id requires -advertise (peers must be able to reach this node)")
	}
	return cfg, nil
}
