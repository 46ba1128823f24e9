package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/suite"
	"repro/internal/units"
)

// Workload names, as BENCHMARK.json and --workload spell them.
const (
	wSweepCompute = "sweep-compute"
	wSweepJournal = "sweep-journal"
	wDaemonJobs   = "daemon-jobs"
)

var workloadNames = []string{wSweepCompute, wSweepJournal, wDaemonJobs}

// poolSize is how many distinct campaigns a workload's pool holds. The
// daemon pool is twenty so that its one cheaper single-point job is a
// twentieth of the jobs: campaign_ms_p10 then stays inside the sweeps.
func poolSize(workload string) int {
	if workload == wDaemonJobs {
		return 20
	}
	return 4
}

// denseAxisLen is the size of the dense sweep axis sweep-compute runs.
const denseAxisLen = 32

// spec is one generated campaign of a workload's pool: what the program
// under test is asked to run, plus the harness's reference output and
// (for traced runs) the captured layer inputs.
type spec struct {
	index      int
	benchmarks []string // canonical names, in run order
	sweep      bool
	procs      int   // single-point process count (sweep false)
	axis       []int // sweep axis; nil means the paper's Fire axis

	// ref is the reference results JSON, computed by a plain in-memory
	// suite.RunCampaign and rendered through suite.SaveJSON.
	ref []byte
	// cap holds the journaled cells, results and tracer of one traced,
	// journaled run of this spec (traced runs of journaled workloads).
	cap *capture
}

// fireAxis returns the sweep axis a spec runs on.
func (s *spec) fireAxis() []int {
	if s.axis != nil {
		return s.axis
	}
	return suite.FireSweep()
}

// points returns the process counts one campaign of the spec runs.
func (s *spec) points() []int {
	if s.sweep {
		return s.fireAxis()
	}
	return []int{s.procs}
}

// retryPolicy is what the CLI and the daemon both derive from zero
// retries and no timeout; the reference must use the same policy.
func retryPolicy() suite.RetryPolicy {
	return suite.RetryPolicy{MaxAttempts: 1, Backoff: units.Seconds(30)}
}

// campaignSpec is the in-process form of the spec, with no journal,
// tracer or renderer attached.
func (s *spec) campaignSpec() suite.CampaignSpec {
	return suite.CampaignSpec{
		Spec:       cluster.Fire(),
		Placement:  placement,
		Benchmarks: s.benchmarks,
		Retry:      retryPolicy(),
		Sweep:      s.sweep,
		Procs:      s.procs,
		Axis:       s.axis,
		Workers:    1,
	}
}

// journaledSpec is the in-process form of
// `greenbench -sweep -o base.json -trace … -metrics … -report …`: the
// spec with a tracer, a journal beside the results file, and
// campaign.Artifacts as its Render hook. It returns the tracer too.
func (s *spec) journaledSpec(base string) (suite.CampaignSpec, *obs.Tracer) {
	cs := s.campaignSpec()
	tracer := obs.NewTracer()
	cs.Trace = tracer
	cs.JournalPath = base + ".json.journal"
	cs.Render = func(results []*suite.Result) error {
		return campaign.Artifacts{
			Results: base + ".json",
			Trace:   base + ".trace.json",
			Metrics: base + ".metrics.json",
			Report:  base + ".report.txt",
		}.Write(tracer, results)
	}
	return cs, tracer
}

// jobSpec is the daemon's form of the spec (POST /jobs body).
func (s *spec) jobSpec(tenant string) campaign.JobSpec {
	return campaign.JobSpec{
		Name:       fmt.Sprintf("%s-%d", tenant, s.index),
		System:     "fire",
		Sweep:      s.sweep,
		Procs:      s.procs,
		Benchmarks: s.benchmarks,
		Placement:  placement.String(),
	}
}

// cliArgs is the greenbench argv of a sharded campaign writing into
// dir, the supervisor's wall-clock timeline included.
func (s *spec) cliArgs(dir string) []string {
	return []string{
		"-sweep", "-shards", "2", "-workers", "1",
		"-system", "fire",
		"-placement", placement.String(),
		"-bench", strings.Join(s.benchmarks, ","),
		"-o", filepath.Join(dir, "out.json"),
		"-trace", filepath.Join(dir, "trace.json"),
		"-metrics", filepath.Join(dir, "metrics.json"),
		"-report", filepath.Join(dir, "report.txt"),
		"-ops-trace", filepath.Join(dir, "ops.trace.json"),
	}
}

// buildPool draws a workload's campaign pool from the seed. The pool is
// a pure function of (workload, seed). The seed permutes the benchmark
// order of every spec and, for sweep-compute, its axis order; placement
// stays the CLI's default (cyclic). Every seed's pool therefore holds
// identical work, and every sweep of a pool costs the same, so the
// campaign-time distribution has one mode for the median to sit in.
func buildPool(workload string, seed int64) []*spec {
	rng := sim.NewRNG(uint64(seed)*0x9e3779b97f4a7c15 + uint64(len(workload)))
	n := poolSize(workload)
	pool := make([]*spec, n)
	for i := range pool {
		s := &spec{index: i, sweep: true, benchmarks: permute(rng, suite.PaperOrder())}
		if workload == wSweepCompute {
			s.axis = permute(rng, denseAxis())
		}
		// The daemon pool's last spec is the cheaper single-point job:
		// the extended suite at singleProcs.
		if workload == wDaemonJobs && i == n-1 {
			s.sweep, s.procs = false, singleProcs
			s.benchmarks = permute(rng, suite.ExtendedOrder)
		}
		pool[i] = s
	}
	return pool
}

// placement is every campaign's process placement, the CLI's default.
const placement = cluster.Cyclic

// singleProcs is the process count of the daemon's single-point jobs.
const singleProcs = 64

// denseAxis is the dense 32-point Fire axis: every fourth process count.
func denseAxis() []int {
	axis := make([]int, denseAxisLen)
	for i := range axis {
		axis[i] = 4 * (i + 1)
	}
	return axis
}

// permute returns a seeded shuffle of xs.
func permute[T any](rng *sim.RNG, xs []T) []T {
	out := append([]T(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// computeReferences runs every pool spec once through a plain in-memory
// suite.RunCampaign and stores its results JSON, rendered by
// suite.SaveJSON, as the reference every timed campaign of that spec is
// byte-compared against. corrupt flips a byte of the first reference,
// which the check must then report as failures.
func computeReferences(pool []*spec, dir string, corrupt bool) error {
	path := filepath.Join(dir, "reference.json")
	for _, s := range pool {
		out, err := suite.RunCampaign(s.campaignSpec())
		if err != nil {
			return fmt.Errorf("reference for spec %d: %w", s.index, err)
		}
		if err := suite.SaveJSON(path, out.Results); err != nil {
			return err
		}
		if s.ref, err = os.ReadFile(path); err != nil {
			return err
		}
		// sweep-compute checks in memory, without a file per campaign;
		// its encoding must be SaveJSON's byte for byte.
		if enc, err := encodeResults(out.Results); err != nil || !bytes.Equal(enc, s.ref) {
			return fmt.Errorf("reference for spec %d: in-memory encoding differs from suite.SaveJSON (%v)", s.index, err)
		}
	}
	if corrupt {
		pool[0].ref[len(pool[0].ref)/2] ^= 0x20
	}
	return nil
}

// encodeResults is suite.SaveJSON's encoding, in memory.
func encodeResults(results []*suite.Result) ([]byte, error) {
	b, err := json.MarshalIndent(results, "", "  ")
	return append(b, '\n'), err
}

// sameFile reports whether the file at path holds exactly want.
func sameFile(path string, want []byte) bool {
	got, err := os.ReadFile(path)
	return err == nil && bytes.Equal(got, want)
}

// capture is one spec's journaled, traced run as the layer probes see
// it: the cells the journal held just before it was removed (read back
// with OpenJournal, Lookup and LookupTrace inside the Render hook), and
// the results and tracer that Artifacts.Write renders.
type capture struct {
	keys    []string
	runs    []suite.BenchmarkRun
	traces  []suite.CellTrace
	procs   []int // axis point of each key
	results []*suite.Result
	tracer  *obs.Tracer
}

// captureSpec runs s once as journaledSpec does in dir and captures
// what the journal and the renderer saw.
func captureSpec(s *spec, dir string) (*capture, error) {
	cs, tracer := s.journaledSpec(filepath.Join(dir, "capture"))
	c := &capture{tracer: tracer}
	render := cs.Render
	cs.Render = func(results []*suite.Result) error {
		c.results = results
		if s.sweep { // only sweeps journal
			if err := c.readJournal(s, cs.JournalPath); err != nil {
				return err
			}
		}
		return render(results)
	}
	if _, err := suite.RunCampaign(cs); err != nil {
		return nil, err
	}
	return c, nil
}

// readJournal reads every cell of s back from the journal at path.
func (c *capture) readJournal(s *spec, path string) error {
	j, err := suite.OpenJournal(path)
	if err != nil {
		return err
	}
	for _, p := range s.fireAxis() {
		for _, b := range s.benchmarks {
			key := suite.CellKey(cluster.Fire().Name, p, placement.String(), b)
			run, ok := j.Lookup(key)
			if !ok {
				return fmt.Errorf("capture: journal %s lacks cell %s", path, key)
			}
			tr, _ := j.LookupTrace(key)
			c.keys = append(c.keys, key)
			c.runs = append(c.runs, run)
			c.traces = append(c.traces, tr)
			c.procs = append(c.procs, p)
		}
	}
	return nil
}

// cellKeys lists the (system, procs, benchmark) identities of one
// campaign's cells, the unit cells.reuse_share counts.
func (s *spec) cellKeys() []string {
	points := s.points()
	keys := make([]string, 0, len(points)*len(s.benchmarks))
	for _, p := range points {
		for _, b := range s.benchmarks {
			keys = append(keys, "fire|"+strconv.Itoa(p)+"|"+b)
		}
	}
	return keys
}
