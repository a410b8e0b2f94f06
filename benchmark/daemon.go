//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns what outlives one daemon: the mascd binary, the scratch
// directory every data dir lives under, and the context whose
// cancellation (SIGINT, test timeout) kills every running daemon.
type harness struct {
	ctx    context.Context
	root   string // repository root (holds go.mod and BENCHMARK.json)
	out    string // <root>/.bench_build: binaries, traces, and the scratch directory
	work   string // scratch directory for data dirs, removed by close
	bin    string // built mascd
	buildS float64
	api    *http.Client // management API and scrapes; never the load path
	// layerDiv divides the layer bench's frozen call counts; tests set
	// it to check names and wiring without paying for the timing.
	layerDiv int
}

// repoRoot walks up from the working directory to the one holding
// go.mod: the driver runs the benchmark from the root, `go test` from
// benchmark/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "mascd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod with cmd/mascd above the working directory: the benchmark builds mascd from this repository's source")
		}
		dir = parent
	}
}

// newHarness builds cmd/mascd into <root>/.bench_build and prepares
// the scratch directory for data dirs.
func newHarness(ctx context.Context) (*harness, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	h := &harness{ctx: ctx, root: root, out: out, bin: filepath.Join(out, "mascd"),
		api: &http.Client{Timeout: 30 * time.Second}, layerDiv: 1}
	t0 := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", h.bin, "./cmd/mascd")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/mascd: %v\n%s", err, msg)
	}
	h.buildS = time.Since(t0).Seconds()
	if h.work, err = os.MkdirTemp(out, "run-"); err != nil {
		return nil, err
	}
	return h, nil
}

// close removes every data dir of the run.
func (h *harness) close() { os.RemoveAll(h.work) }

// daemon is one mascd subprocess started with its stock flags.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr *tailBuffer
	waited chan struct{}
}

// tailBuffer keeps the last bytes of the daemon's stderr for error
// reports; mascd logs one JSON line per fault there.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// start execs mascd with the stock flag set plus extra, and returns
// once its "SOAP gateway on" line gives the address. listen is
// 127.0.0.1:0 except for cluster nodes, whose peers must know the port
// before boot.
func (h *harness) start(dataDir, listen string, extra ...string) (*daemon, error) {
	args := append([]string{"-listen", listen, "-debug", "-data-dir", dataDir, "-sync", "batched",
		"-policy-dir", filepath.Join(h.root, "benchmark", "policies")}, extra...)
	cmd := exec.CommandContext(h.ctx, h.bin, args...)
	// The daemon must not outlive the harness, however the harness dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
	d := &daemon{cmd: cmd, stderr: &tailBuffer{}, waited: make(chan struct{})}
	cmd.Stderr = d.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.waited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "SOAP gateway on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		_ = cmd.Wait() // the exit status of a signalled daemon carries nothing
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
		return d, nil
	case <-d.waited:
		return nil, fmt.Errorf("mascd exited before listening: %s", d.stderr)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("mascd printed no gateway address within 20s: %s", d.stderr)
	}
}

// awaitReady polls url until it answers 200 and ok(body) holds.
func (h *harness) awaitReady(url string, ok func([]byte) bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		body, err := h.get(url)
		if err == nil && (ok == nil || ok(body)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 20s (last error: %v)", url, err)
		}
		select {
		case <-h.ctx.Done():
			return h.ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// boot starts one daemon and waits for its first 200 from readyz;
// the returned duration is the setup_s sample.
func (h *harness) boot(dataDir string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := h.start(dataDir, "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	if err := h.awaitReady(d.base+"/api/v1/readyz", nil); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// bootCluster starts nodes a and b seeded with each other and waits
// until each sees its peer alive. The ports are taken from the kernel
// and released just before the daemons bind them.
func (h *harness) bootCluster(dirA, dirB string) ([]*daemon, time.Duration, error) {
	var held [2]net.Listener
	var ports [2]string
	for i := range held {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		defer ln.Close()
		held[i], ports[i] = ln, ln.Addr().String()
	}
	t0 := time.Now()
	var nodes []*daemon
	stopAll := func() {
		for _, d := range nodes {
			d.kill()
		}
	}
	for i, id := range []string{"a", "b"} {
		held[i].Close() // released only now, so node a cannot be handed node b's port
		d, err := h.start([]string{dirA, dirB}[i], ports[i],
			"-node-id", id, "-advertise", "http://"+ports[i],
			"-cluster-seed", []string{"b", "a"}[i]+"=http://"+ports[1-i],
			"-replication-level", "1", "-cluster-heartbeat", "200ms")
		if err != nil {
			stopAll()
			return nil, 0, err
		}
		nodes = append(nodes, d)
	}
	for _, d := range nodes {
		err := h.awaitReady(d.base+"/api/v1/cluster", func(body []byte) bool {
			var st struct {
				Members []struct{ State string } `json:"members"`
			}
			return json.Unmarshal(body, &st) == nil && len(st.Members) == 1 && st.Members[0].State == "alive"
		})
		if err == nil {
			err = h.awaitReady(d.base+"/api/v1/readyz", nil)
		}
		if err != nil {
			stopAll()
			return nil, 0, err
		}
	}
	return nodes, time.Since(t0), nil
}

// stop sends SIGTERM (mascd drains and closes its store), waits, and
// kills a daemon that does not leave within 10 s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// kill ends the daemon at once and waits until it is gone; harmless
// on one that has already left.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.waited
}

func (h *harness) get(url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(h.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.api.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}

// sample is one reading of a daemon's counters from outside it: the
// Prometheus exposition, runtime.MemStats as pprof prints it, and the
// kernel's view of the process.
type sample struct {
	series  map[string]float64 // full series text ("name{labels}") -> value
	mem     map[string]float64 // MemStats field -> value
	pauseNs []float64          // MemStats.PauseNs ring
	cpuUS   float64            // utime+stime
	hwmMB   float64            // VmHWM
	rssMB   float64            // VmRSS
}

// scrape reads the daemon. heapFirst orders the reads so that the two
// heap readings bracket the window as tightly as possible: last before
// it, first after it.
func (h *harness) scrape(d *daemon, heapFirst bool) (*sample, error) {
	s := &sample{series: map[string]float64{}, mem: map[string]float64{}}
	heap := func() error {
		body, err := h.get(d.base + "/debug/pprof/heap?debug=1")
		if err != nil {
			return err
		}
		_, stats, ok := bytes.Cut(body, []byte("# runtime.MemStats"))
		if !ok {
			return fmt.Errorf("heap profile carries no runtime.MemStats block")
		}
		for _, line := range strings.Split(string(stats), "\n") {
			name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
			if !ok {
				continue
			}
			if name == "PauseNs" {
				for _, f := range strings.Fields(strings.Trim(val, "[]")) {
					v, _ := strconv.ParseFloat(f, 64)
					s.pauseNs = append(s.pauseNs, v)
				}
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				s.mem[name] = v
			}
		}
		return nil
	}
	metrics := func() error {
		body, err := h.get(d.base + "/api/v1/metrics")
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if v, err := strconv.ParseFloat(line[i+1:], 64); i > 0 && err == nil {
				s.series[line[:i]] = v
			}
		}
		return nil
	}
	steps := []func() error{metrics, func() error { return s.readProc(d.cmd.Process.Pid) }, heap}
	if heapFirst {
		steps[0], steps[2] = steps[2], steps[0]
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// readProc reads CPU time and memory high-water mark from /proc.
func (s *sample) readProc(pid int) error {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return err
	}
	// Fields after the parenthesised command name: utime and stime are
	// the 14th and 15th of the line, in clock ticks (USER_HZ = 100).
	_, rest, ok := strings.Cut(string(stat), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return fmt.Errorf("unexpected /proc/%d/stat: %q", pid, stat)
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	s.cpuUS = (utime + stime) * 1e4
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "VmHWM:":
			s.hwmMB = kb / 1024
		case "VmRSS:":
			s.rssMB = kb / 1024
		}
	}
	return nil
}

// sum adds every series of the named family whose label text contains
// all of the given fragments.
func (s *sample) sum(family string, labels ...string) float64 {
	var total float64
next:
	for series, v := range s.series {
		name, rest, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue next
			}
		}
		total += v
	}
	return total
}

// dirBytes is the size of every regular file under dir.
func dirBytes(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total)
}
