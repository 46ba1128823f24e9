package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/suite"
)

// setupRepeats is how often a sequential run sets its workload up;
// setup_s is the median. The host's speed shifts every few seconds, so
// the set-ups are interleaved evenly with the timed campaigns (outside
// every campaign's window), and the median spans the run. The daemon
// sets up once per jobsPerDaemon jobs instead.
const setupRepeats = 41

// jobsPerDaemon is how many jobs one daemon serves before the run
// replaces it with a freshly started one. The job table never evicts,
// so a daemon's heap grows with every job it has run; a fixed number of
// jobs per daemon keeps peak_rss_mb and the GC cost per job independent
// of how many jobs the run gets through. It is three cycles of the
// pool, so every daemon serves the same mix, and spreads the daemon's
// set-ups evenly over the run.
const jobsPerDaemon = 60

// harness drives one workload for one run.
type harness struct {
	o    options
	pool []*spec
	logw io.Writer

	setups  []float64 // seconds of every set-up so far
	daemon  *daemon   // daemon-jobs: the server under test
	daemons int       // daemons started so far (each gets its own directory)
	colds   int       // cold children started so far

	mu    sync.Mutex // guards seen and reuse (daemon tenants run concurrently)
	seen  map[string]bool
	reuse [2]int // cells whose identity already ran here, cells run
}

// close stops whatever the run started.
func (h *harness) close() {
	if h.daemon != nil {
		h.daemon.close()
		h.daemon = nil
	}
}

// setup performs the workload's one-off set-up and records the seconds
// it took: what a user pays once before steady state. For the
// in-process sweeps that is the cold first campaign of a fresh process;
// for the daemon, start until /healthz answers (the daemon it starts
// replaces the previous one).
func (h *harness) setup() error {
	var s float64
	var err error
	switch h.o.workload {
	case wSweepCompute, wSweepJournal:
		s, err = h.coldChild()
	case wDaemonJobs:
		h.close()
		h.daemon, s, err = startDaemon(filepath.Join(h.o.dir, "daemon-"+strconv.Itoa(h.daemons)))
		h.daemons++
	}
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	h.setups = append(h.setups, s)
	return nil
}

// coldChild re-executes this binary in --cold mode and returns the
// seconds its first campaign took.
func (h *harness) coldChild() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(h.o.dir, "cold-"+strconv.Itoa(h.colds))
	h.colds++
	cmd := exec.Command(exe, "--cold", "--workload", h.o.workload,
		"--seed", strconv.FormatInt(h.o.seed, 10), "--dir", dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold child: %v: %s", err, stderr.String())
	}
	fields := strings.Fields(string(out))
	if len(fields) == 0 {
		return 0, fmt.Errorf("cold child printed nothing")
	}
	return strconv.ParseFloat(fields[len(fields)-1], 64)
}

// runCold is the --cold child: in a fresh process, run the pool's first
// campaign once, the way the workload runs it, and return its seconds.
func runCold(o options) (float64, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(o.dir)
	h := &harness{o: o, pool: buildPool(o.workload, o.seed)}
	start := time.Now()
	if _, _, err := h.inProcess(h.pool[0], 0); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// processStart execs `greenbench -list` and returns its wall time in ms.
func (h *harness) processStart() (float64, error) {
	cmd := exec.Command(h.o.greenbench, "-list")
	cmd.Stdout = io.Discard
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s -list: %w", h.o.greenbench, err)
	}
	return msSince(start), nil
}

// outcome is one timed campaign.
type outcome struct {
	spec  *spec
	ms    float64       // wall time, start to result
	cpu   time.Duration // process CPU over the campaign (sequential workloads)
	alloc uint64        // bytes this process allocated over the campaign (likewise)
	ok    bool          // finished, and its results match the reference
	job   *campaign.Status
}

// phaseStats is one measured phase: every campaign attempted within it.
type phaseStats struct {
	done      []outcome // completed campaigns, failed ones included
	attempted int
	failed    int
	wall      time.Duration // phase start to the last completion
	cpu       time.Duration // process CPU of the campaigns
	alloc     uint64        // bytes this process allocated for the campaigns
}

func (p *phaseStats) latencies() []float64 {
	out := make([]float64, 0, len(p.done))
	for _, c := range p.done {
		if c.ok {
			out = append(out, c.ms)
		}
	}
	return out
}

func (p *phaseStats) completed() int { return p.attempted - p.failed }

func (p *phaseStats) throughput() float64 {
	return float64(p.completed()) / p.wall.Seconds()
}

func (p *phaseStats) cpuPerCampaign() float64 {
	return float64(p.cpu) / float64(time.Millisecond) / float64(max(p.completed(), 1))
}

func (p *phaseStats) result(m map[string]metric) *result {
	return &result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   m,
	}
}

// phase runs the workload's campaigns for d and collects them. tr, when
// non-nil, records client-side spans (the traced run). A sequential
// phase interleaves setups set-ups, evenly spaced, between campaigns; a
// daemon phase starts a fresh daemon for every jobsPerDaemon jobs. The
// set-ups' time is excluded from the phase.
func (h *harness) phase(d time.Duration, tr *tracer, setups int) (*phaseStats, error) {
	runtime.GC()
	ps := &phaseStats{}
	cpu0, alloc0 := cpuTime(), allocated()
	start := time.Now()
	var paused time.Duration
	var err error
	setUp := func() {
		t0 := time.Now()
		err = h.setup()
		paused += time.Since(t0)
	}
	if h.o.workload == wDaemonJobs {
		for err == nil && time.Since(start) < d+paused {
			if setUp(); err == nil {
				err = h.daemon.runTenants(h, start.Add(d+paused), tr, ps)
			}
		}
	} else {
		done, n := 0, 0
		for err == nil && time.Since(start) < d+paused {
			if done < setups && time.Since(start)-paused >= time.Duration(done)*d/time.Duration(setups) {
				setUp()
				done++
				continue
			}
			s := h.pool[n%len(h.pool)]
			n++
			var c outcome
			if c, err = h.inProcessChecked(s, tr); err == nil {
				ps.add(c)
			}
		}
	}
	ps.wall = time.Since(start) - paused
	// Sequential campaigns are charged their own CPU and allocation
	// windows, which leaves the harness's checks and set-ups out; the
	// daemon's overlapping jobs are charged the whole phase, client side
	// included.
	if h.o.workload == wDaemonJobs {
		ps.cpu, ps.alloc = cpuTime()-cpu0, allocated()-alloc0
	} else {
		for _, c := range ps.done {
			ps.cpu += c.cpu
			ps.alloc += c.alloc
		}
	}
	if err != nil {
		return nil, err
	}
	if ps.attempted == 0 {
		return nil, fmt.Errorf("no campaign completed within %v", d)
	}
	return ps, nil
}

func (p *phaseStats) add(c outcome) {
	p.attempted++
	if !c.ok {
		p.failed++
	}
	p.done = append(p.done, c)
}

// countReuse records one campaign's cells for cells.reuse_share.
func (h *harness) countReuse(s *spec) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == nil {
		h.seen = map[string]bool{}
	}
	for _, k := range s.cellKeys() {
		if h.seen[k] {
			h.reuse[0]++
		}
		h.seen[k] = true
		h.reuse[1]++
	}
}

// inProcess runs one campaign of an in-process workload. sweep-compute
// is the bare compute path and hands back its results; sweep-journal is
// the in-process `greenbench -sweep -o -trace -metrics -report` and
// returns the path its results file landed in.
func (h *harness) inProcess(s *spec, slot int) ([]*suite.Result, string, error) {
	if h.o.workload == wSweepCompute {
		out, err := suite.RunCampaign(s.campaignSpec())
		if err != nil {
			return nil, "", err
		}
		return out.Results, "", nil
	}
	base := filepath.Join(h.o.dir, "c"+strconv.Itoa(slot))
	cs, _ := s.journaledSpec(base)
	_, err := suite.RunCampaign(cs)
	return nil, base + ".json", err
}

// inProcessChecked times one in-process campaign and byte-compares its
// results with the reference outside the timed window.
func (h *harness) inProcessChecked(s *spec, tr *tracer) (outcome, error) {
	h.countReuse(s)
	root := tr.begin("campaign", -1)
	tr.tag(root, s.index)
	cpu0, alloc0, start := cpuTime(), allocated(), time.Now()
	results, path, err := h.inProcess(s, s.index)
	c := outcome{spec: s, ms: msSince(start), cpu: cpuTime() - cpu0, alloc: allocated() - alloc0}
	tr.end(root)
	if err != nil {
		h.logf("campaign %d failed: %v", s.index, err)
		return c, nil
	}
	if path == "" {
		got, err := encodeResults(results)
		if err != nil {
			return c, err
		}
		c.ok = bytes.Equal(got, s.ref)
	} else {
		c.ok = sameFile(path, s.ref)
	}
	if !c.ok {
		h.logf("campaign %d: results differ from the reference", s.index)
	}
	return c, nil
}

// sharded execs one `greenbench -sweep -shards 2 -ops-trace` campaign,
// checks its -o file against the reference, and returns its wall time
// in ms and the supervisor's timeline.
func (h *harness) sharded(s *spec) (float64, *opsTimeline, error) {
	dir := filepath.Join(h.o.dir, "cli")
	if err := os.RemoveAll(dir); err != nil {
		return 0, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, nil, err
	}
	cmd := exec.Command(h.o.greenbench, s.cliArgs(dir)...)
	cmd.Stdout = io.Discard
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	ms := msSince(start)
	if err != nil {
		return 0, nil, fmt.Errorf("greenbench: %v: %s", err, lastLine(stderr.String()))
	}
	if !sameFile(filepath.Join(dir, "out.json"), s.ref) {
		return 0, nil, fmt.Errorf("greenbench -o output differs from the reference")
	}
	t, err := readOpsTimeline(filepath.Join(dir, "ops.trace.json"))
	return ms, t, err
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// peakRSSMB is this process's peak resident memory.
func (h *harness) peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is this process's user+sys CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocated is the cumulative heap bytes this process has allocated.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
