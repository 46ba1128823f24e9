package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/suite"
)

// The traced run splits --seconds three ways: an untraced phase (the
// base for the accounting check and the tracing overhead), a traced
// phase (client-side spans around every call into the program), and a
// probe pass that times direct calls into each layer's public
// functions for every pool spec.
const (
	untracedShare = 0.4
	tracedShare   = 0.4
)

// layer names one span kind the traced run records and the per-layer
// metrics that report it: mean time per call, and calls per campaign.
type layer struct {
	span  string
	ms    bool   // report milliseconds (else microseconds)
	calls string // the calls metric's name ("" : <span>_calls)
	// loop marks spans recorded around the traced phase's campaigns
	// (calls counted per traced campaign); the rest come from the probe
	// pass (calls counted per probe round, one campaign's worth).
	loop bool
}

var layers = []layer{
	{span: "bench.simulate"},
	{span: "power.profile"},
	{span: "power.sample"},
	{span: "series.reduce"},
	{span: "suite.cell"},
	{span: "suite.journal_record", calls: "suite.journal_records"},
	{span: "suite.journal_open"},
	{span: "suite.journal_lookup"},
	{span: "suite.merge"},
	{span: "suite.results_json"},
	{span: "suite.report"},
	{span: "obs.chrome_trace"},
	{span: "obs.metrics"},
	{span: "campaign.artifacts"},
	{span: "cli.process_start", ms: true},
	{span: "campaign.submit", ms: true, loop: true},
	{span: "campaign.status", ms: true, loop: true},
	{span: "campaign.scrape", ms: true, loop: true},
}

func (l layer) metric() string {
	if l.ms {
		return l.span + "_ms"
	}
	return l.span + "_us"
}

func (l layer) callsMetric() string {
	if l.calls != "" {
		return l.calls
	}
	return l.span + "_calls"
}

// explainedBy lists, per workload, the probe layers whose per-campaign
// time lies on the campaign's blocking path. Their sum (plus the
// per-campaign waits the workload measures directly) is what the
// accounting check holds against the untraced campaign_ms_p50.
var explainedBy = map[string][]string{
	wSweepCompute: {"suite.cell"},
	wSweepJournal: {"suite.cell", "suite.journal_record", "campaign.artifacts"},
	wDaemonJobs:   {"suite.cell", "suite.journal_record", "campaign.artifacts"},
}

// probeStats is what the probe pass measured beyond span times.
type probeStats struct {
	rounds     int // probe rounds, one campaign's worth of one spec each
	failed     int
	cells      int // suite.Run calls: one per process count
	steps      int // (process count, benchmark) steps
	samples    int
	kbWritten  float64
	finalKB    float64
	journals   int
	chromeKB   float64
	chromeRuns int

	// The sharded CLI campaigns (sweep-journal).
	workerMS   []float64 // every shard attempt
	tailMS     []float64 // per campaign: wall time after the last shard ended
	relaunches int
	beatGaps   int
}

// traced is the --trace 1 run: per-layer metrics, the accounting check
// and the tracing overhead.
func (h *harness) traced() (*result, error) {
	total := time.Duration(h.o.seconds * float64(time.Second))
	if h.o.workload != wSweepCompute {
		for _, s := range h.pool {
			c, err := captureSpec(s, h.o.dir)
			if err != nil {
				return nil, fmt.Errorf("capturing spec %d: %w", s.index, err)
			}
			s.cap = c
		}
	}
	un, err := h.phase(time.Duration(untracedShare*float64(total)), nil, 0)
	if err != nil {
		return nil, err
	}
	reuse := float64(h.reuse[0]) / float64(max(h.reuse[1], 1))
	tr := newTracer()
	tp, err := h.phase(time.Duration(tracedShare*float64(total)), tr, 0)
	if err != nil {
		return nil, err
	}
	rp := &phaseStats{}
	retainedKB := 0.0
	if h.o.workload == wDaemonJobs {
		if retainedKB, err = h.retainedKB(rp); err != nil {
			return nil, err
		}
	}
	ps, err := h.probePass(total-time.Duration((untracedShare+tracedShare)*float64(total)), tr)
	if err != nil {
		return nil, err
	}
	m := h.layerMetrics(un, tp, tr, ps)
	m["cells.reuse_share"] = metric{reuse, "share"}
	m["campaign.retained_kb_per_job"] = metric{retainedKB, "KB"}
	allocMB := float64(un.alloc) / (1 << 20) / float64(max(un.completed(), 1))
	m["alloc_mb_per_campaign"] = metric{allocMB, "MB"}
	m["jobs_per_s"] = metric{un.throughput(), "jobs/s"}
	m["cpu_ms_per_campaign"] = metric{un.cpuPerCampaign(), "ms"}
	if err := tr.write(h.o.spans, h.o.workload+".ndjson"); err != nil {
		return nil, err
	}
	return &result{
		Correct:   un.failed+tp.failed+rp.failed+ps.failed == 0,
		Attempted: un.attempted + tp.attempted + rp.attempted + ps.rounds,
		Failed:    un.failed + tp.failed + rp.failed + ps.failed,
		Metrics:   m,
	}, nil
}

// retainedKB runs jobsPerDaemon jobs, untraced, on a freshly started
// daemon and returns the live heap they left behind per job: the heap
// after a forced GC, less the heap with the empty daemon. Its jobs are
// added to ps.
func (h *harness) retainedKB(ps *phaseStats) (float64, error) {
	if err := h.setup(); err != nil {
		return 0, err
	}
	runtime.GC()
	heap0 := liveHeap()
	if err := h.daemon.runTenants(h, time.Now().Add(time.Minute), nil, ps); err != nil {
		return 0, err
	}
	runtime.GC()
	jobs := len(h.daemon.mgr.Jobs())
	return float64(int64(liveHeap())-int64(heap0)) / 1024 / float64(max(jobs, 1)), nil
}

// liveHeap is the heap in use, in bytes.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// probePass times direct calls into every layer for each pool spec,
// round after round, for about d (at least one round).
func (h *harness) probePass(d time.Duration, tr *tracer) (*probeStats, error) {
	deadline := time.Now().Add(d)
	ps := &probeStats{}
	model, err := power.NewModel(cluster.Fire())
	if err != nil {
		return nil, err
	}
	for ps.rounds == 0 || time.Now().Before(deadline) {
		for _, s := range h.pool {
			root := tr.begin("probe", -1)
			tr.tag(root, s.index)
			err := h.probe(s, model, root, tr, ps)
			tr.end(root)
			ps.rounds++
			if err != nil {
				h.logf("probe of spec %d: %v", s.index, err)
				ps.failed++
			}
		}
	}
	return ps, nil
}

// probe runs one campaign's worth of direct layer calls for s.
func (h *harness) probe(s *spec, model *power.Model, root int, tr *tracer, ps *probeStats) error {
	if err := probeCompute(s, model, root, tr, ps); err != nil {
		return err
	}
	if s.cap != nil && s.sweep {
		if err := h.probeJournal(s, root, tr, ps); err != nil {
			return err
		}
	}
	if s.cap != nil {
		if err := h.probeArtifacts(s, root, tr, ps); err != nil {
			return err
		}
	}
	if h.o.workload == wSweepJournal {
		return h.probeCLI(s, root, tr, ps)
	}
	return nil
}

// probeCLI times `greenbench -list` (process start), then runs s as the
// exec'd `greenbench -sweep -shards 2` campaign and reads the shard
// attempts, relaunches and heartbeat gaps from its -ops-trace timeline.
func (h *harness) probeCLI(s *spec, root int, tr *tracer, ps *probeStats) error {
	if err := tr.timed("cli.process_start", root, func() error {
		_, err := h.processStart()
		return err
	}); err != nil {
		return err
	}
	ms, t, err := h.sharded(s)
	if err != nil {
		return err
	}
	ps.workerMS = append(ps.workerMS, t.workerMS...)
	ps.tailMS = append(ps.tailMS, ms-t.lastEndMS)
	ps.relaunches += t.relaunches
	ps.beatGaps += t.beatGaps
	return nil
}

// probeCompute runs every sweep cell (process count) of s twice: once
// as the enclosing suite.Run, once as the direct calls suite.Run makes
// for each benchmark — workload model, power profile, meter sampling,
// series reductions — and checks the two agree bit for bit.
func probeCompute(s *spec, model *power.Model, root int, tr *tracer, ps *probeStats) error {
	fire := model.Spec
	exactBuf := series.New(16)
	for _, p := range s.points() {
		cfg := suite.DefaultConfig(fire, p)
		cfg.Placement = placement
		cfg.Benchmarks = s.benchmarks
		cfg.Retry = retryPolicy()
		var res *suite.Result
		if err := tr.timed("suite.cell", root, func() (err error) {
			res, err = suite.Run(cfg)
			return err
		}); err != nil {
			return err
		}
		meter, err := power.NewMeter(cfg.Meter)
		if err != nil {
			return err
		}
		for i, b := range s.benchmarks {
			w, ok := bench.Lookup(b)
			if !ok {
				return fmt.Errorf("unknown benchmark %s", b)
			}
			var sm bench.Simulated
			if err := tr.timed("bench.simulate", root, func() (err error) {
				sm, err = w.Simulate(fire, bench.Env{Procs: p, Placement: placement})
				return err
			}); err != nil {
				return err
			}
			var exact *series.Trace
			if err := tr.timed("power.profile", root, func() (err error) {
				exact, err = model.ProfileTraceInto(sm.Profile, exactBuf)
				return err
			}); err != nil {
				return err
			}
			var sampled *series.Trace
			if err := tr.timed("power.sample", root, func() (err error) {
				sampled, err = meter.Sample(exact)
				return err
			}); err != nil {
				return err
			}
			var got [3]float64
			if err := tr.timed("series.reduce", root, func() error {
				e, err := sampled.Energy()
				if err != nil {
					return err
				}
				mean, err := sampled.MeanPower()
				if err != nil {
					return err
				}
				peak, err := sampled.PeakPower()
				got = [3]float64{float64(e), float64(mean), float64(peak)}
				return err
			}); err != nil {
				return err
			}
			run := res.Runs[i]
			want := [3]float64{float64(run.Measurement.Energy), float64(run.Measurement.Power), float64(run.PeakPower)}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					return fmt.Errorf("procs %d %s: direct layer calls give %v, suite.Run gives %v", p, b, got, want)
				}
			}
			ps.steps++
			ps.samples += sampled.Len()
		}
		ps.cells++
	}
	return nil
}

// probeJournal replays the captured cells of s into a fresh journal
// (SetTrace+Record per cell), reads them back (OpenJournal, Bind and a
// lookup of every cell), and merges two segments split by
// shard.Partition with MergeShardJournals.
func (h *harness) probeJournal(s *spec, root int, tr *tracer, ps *probeStats) error {
	c := s.cap
	dir := filepath.Join(h.o.dir, "probe-journal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "replay.journal")
	j, err := suite.OpenJournal(path)
	if err != nil {
		return err
	}
	if err := j.Bind(s.benchmarks); err != nil {
		return err
	}
	var written, size int64
	for i, key := range c.keys {
		if err := tr.timed("suite.journal_record", root, func() error {
			j.SetTrace(key, c.traces[i])
			return j.Record(key, c.runs[i])
		}); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		size = fi.Size()
		written += size
	}
	ps.kbWritten += float64(written) / 1024
	ps.finalKB += float64(size) / 1024
	ps.journals++

	var rj *suite.Journal
	if err := tr.timed("suite.journal_open", root, func() (err error) {
		if rj, err = suite.OpenJournal(path); err != nil {
			return err
		}
		return rj.Bind(s.benchmarks)
	}); err != nil {
		return err
	}
	for _, key := range c.keys {
		if err := tr.timed("suite.journal_lookup", root, func() error {
			_, ok := rj.Lookup(key)
			_, _ = rj.LookupTrace(key)
			if !ok {
				return fmt.Errorf("replayed journal lacks %s", key)
			}
			return nil
		}); err != nil {
			return err
		}
	}

	axis := s.fireAxis()
	var segs []*suite.Journal
	for k, task := range shard.Partition(axis, 2) {
		seg, err := suite.OpenJournal(filepath.Join(dir, fmt.Sprintf("seg%d.journal", k)))
		if err != nil {
			return err
		}
		if err := seg.Bind(s.benchmarks); err != nil {
			return err
		}
		for i, key := range c.keys {
			if slices.Contains(task.Procs, c.procs[i]) {
				seg.Stage(key, c.runs[i], c.traces[i])
			}
		}
		if err := seg.Flush(); err != nil {
			return err
		}
		segs = append(segs, seg)
	}
	dst, err := suite.OpenJournal(filepath.Join(dir, "merged.journal"))
	if err != nil {
		return err
	}
	if err := dst.Bind(s.benchmarks); err != nil {
		return err
	}
	var missing []string
	if err := tr.timed("suite.merge", root, func() (err error) {
		missing, err = suite.MergeShardJournals(dst, segs, cluster.Fire().Name, placement.String(), axis, s.benchmarks)
		return err
	}); err != nil {
		return err
	}
	if len(missing) > 0 || dst.Len() != len(c.keys) {
		return fmt.Errorf("merge lost cells: %d missing, %d of %d merged", len(missing), dst.Len(), len(c.keys))
	}
	return nil
}

// probeArtifacts times campaign.Artifacts.Write on the captured results
// and tracer (and checks its results file against the reference), then
// each call Write makes, one by one.
func (h *harness) probeArtifacts(s *spec, root int, tr *tracer, ps *probeStats) error {
	c := s.cap
	base := filepath.Join(h.o.dir, "probe-artifacts")
	if err := tr.timed("campaign.artifacts", root, func() error {
		return campaign.Artifacts{
			Results: base + ".json",
			Trace:   base + ".trace.json",
			Metrics: base + ".metrics.json",
			Report:  base + ".report.txt",
		}.Write(c.tracer, c.results)
	}); err != nil {
		return err
	}
	if !sameFile(base+".json", s.ref) {
		return fmt.Errorf("Artifacts.Write results differ from the reference")
	}
	if err := tr.timed("suite.results_json", root, func() error {
		return suite.SaveJSON(base+".json", c.results)
	}); err != nil {
		return err
	}
	if err := tr.timed("obs.chrome_trace", root, func() error {
		return obs.WriteChromeTraceFile(base+".trace.json", c.tracer.Spans(), c.tracer.Events())
	}); err != nil {
		return err
	}
	fi, err := os.Stat(base + ".trace.json")
	if err != nil {
		return err
	}
	ps.chromeKB += float64(fi.Size()) / 1024
	ps.chromeRuns++
	if err := tr.timed("obs.metrics", root, func() error {
		return c.tracer.Registry().Snapshot().WriteFile(base + ".metrics.json")
	}); err != nil {
		return err
	}
	return tr.timed("suite.report", root, func() error {
		rep := suite.BuildReport("greenbench campaign: "+c.results[0].System, c.results)
		suite.AttachPercentiles(rep, c.tracer.Registry().Snapshot())
		f, err := os.Create(base + ".report.txt")
		if err != nil {
			return err
		}
		if err := rep.Render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

// layerAgg is one span kind's totals.
type layerAgg struct {
	calls int
	us    float64
}

// layerMetrics turns the spans and probe stats into the per-layer
// metrics, including the accounting check and the tracing overhead.
func (h *harness) layerMetrics(un, tp *phaseStats, tr *tracer, ps *probeStats) map[string]metric {
	agg := map[string]*layerAgg{}
	// perSpec[spec][span] sums the probe spans of that spec's rounds.
	perSpec := make([]map[string]float64, len(h.pool))
	roundsOf := make([]int, len(h.pool))
	for i := range perSpec {
		perSpec[i] = map[string]float64{}
	}
	for i := range tr.spans {
		sp := &tr.spans[i]
		a := agg[sp.Name]
		if a == nil {
			a = &layerAgg{}
			agg[sp.Name] = a
		}
		a.calls++
		a.us += sp.us()
		if sp.Parent < 0 {
			if sp.Name == "probe" {
				roundsOf[sp.Spec]++
			}
			continue
		}
		if r := &tr.spans[sp.Campaign]; r.Name == "probe" {
			perSpec[r.Spec][sp.Name] += sp.us()
		}
	}
	campaigns := float64(max(len(tp.done), 1))
	rounds := float64(max(ps.rounds, 1))
	m := map[string]metric{}
	for _, l := range layers {
		a := agg[l.span]
		if a == nil {
			a = &layerAgg{}
		}
		per := rounds
		if l.loop {
			per = campaigns
		}
		mean := a.us / float64(max(a.calls, 1))
		unit := "us"
		if l.ms {
			mean, unit = mean/1e3, "ms"
		}
		m[l.metric()] = metric{mean, unit}
		m[l.callsMetric()] = metric{float64(a.calls) / per, "count"}
	}
	layerUS := func(name string) float64 {
		if a := agg[name]; a != nil {
			return a.us
		}
		return 0
	}
	selfUS := 0.0
	if ps.cells > 0 {
		selfUS = (layerUS("suite.cell") - layerUS("bench.simulate") - layerUS("power.profile") -
			layerUS("power.sample") - layerUS("series.reduce")) / float64(ps.cells)
	}
	m["suite.cell_self_us"] = metric{selfUS, "us"}
	m["power.samples_per_call"] = metric{float64(ps.samples) / float64(max(ps.steps, 1)), "count"}
	kbPer, amp, finalKB := 0.0, 0.0, 0.0
	if ps.journals > 0 {
		kbPer = ps.kbWritten / float64(ps.journals)
		finalKB = ps.finalKB / float64(ps.journals)
		amp = ps.kbWritten / ps.finalKB
	}
	m["suite.journal_kb_written"] = metric{kbPer, "KB"}
	m["suite.journal_final_kb"] = metric{finalKB, "KB"}
	m["suite.journal_write_amp"] = metric{amp, "ratio"}
	m["obs.chrome_trace_kb"] = metric{ps.chromeKB / float64(max(ps.chromeRuns, 1)), "KB"}

	// Per-campaign waits the traced phase measured directly.
	var queueWait, runMS, notify []float64
	extra := make([]float64, len(tp.done))
	for i, c := range tp.done {
		if st := c.job; st != nil && st.StartedAt != nil && st.FinishedAt != nil {
			q := float64(st.StartedAt.Sub(st.SubmittedAt)) / float64(time.Millisecond)
			r := float64(st.FinishedAt.Sub(*st.StartedAt)) / float64(time.Millisecond)
			n := c.ms - float64(st.FinishedAt.Sub(st.SubmittedAt))/float64(time.Millisecond)
			queueWait, runMS, notify = append(queueWait, q), append(runMS, r), append(notify, n)
			extra[i] = q + n
		}
	}
	perCampaign := func(name string, xs []float64, per float64) {
		m[name+"_ms"] = metric{mean(xs), "ms"}
		m[name+"_calls"] = metric{float64(len(xs)) / per, "count"}
	}
	perCampaign("campaign.queue_wait", queueWait, campaigns)
	perCampaign("campaign.run", runMS, campaigns)
	perCampaign("campaign.notify", notify, campaigns)
	// The sharded CLI campaigns run in the probe pass, one per round.
	perCampaign("cli.tail", ps.tailMS, rounds)
	perCampaign("shard.worker", ps.workerMS, rounds)
	m["shard.relaunches"] = metric{float64(ps.relaunches) / rounds, "count"}
	m["shard.beat_gaps"] = metric{float64(ps.beatGaps) / rounds, "count"}

	// Accounting: per traced campaign, the probe time of its spec's
	// blocking layers plus its directly measured waits, against the
	// untraced median.
	explained := make([]float64, 0, len(tp.done))
	for i, c := range tp.done {
		sum := extra[i]
		if n := roundsOf[c.spec.index]; n > 0 {
			for _, name := range explainedBy[h.o.workload] {
				sum += perSpec[c.spec.index][name] / float64(n) / 1e3
			}
		}
		explained = append(explained, sum)
	}
	untraced := quantile(un.latencies(), 0.5)
	tracedP50 := quantile(tp.latencies(), 0.5)
	m["trace.untraced_ms_p50"] = metric{untraced, "ms"}
	m["trace.untraced_ms_p90"] = metric{quantile(un.latencies(), 0.9), "ms"}
	m["trace.traced_ms_p50"] = metric{tracedP50, "ms"}
	m["trace.explained_ms"] = metric{quantile(explained, 0.5), "ms"}
	// untraced is 0 only when no campaign of the untraced phase passed
	// its check; the shares are then undefined and reported as 0.
	unexplained, overhead := 0.0, 0.0
	if untraced > 0 {
		unexplained, overhead = math.Abs(1-quantile(explained, 0.5)/untraced), tracedP50/untraced-1
	}
	m["trace.unexplained_share"] = metric{unexplained, "share"}
	m["trace.overhead_share"] = metric{overhead, "share"}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// opsTimeline is what the per-layer metrics read from a sharded
// campaign's -ops-trace file.
type opsTimeline struct {
	workerMS   []float64 // duration of every shard attempt
	relaunches int       // attempts beyond each shard's first
	beatGaps   int       // heartbeat gaps the supervisor detected
	lastEndMS  float64   // end of the last attempt, from supervisor start
}

// readOpsTimeline parses the supervisor's Chrome trace (microseconds).
func readOpsTimeline(path string) (*opsTimeline, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t := &opsTimeline{}
	for _, e := range f.TraceEvents {
		switch {
		case e.Ph == "X":
			t.workerMS = append(t.workerMS, e.Dur/1e3)
			t.lastEndMS = math.Max(t.lastEndMS, (e.Ts+e.Dur)/1e3)
			if !strings.HasSuffix(e.Name, " 1") {
				t.relaunches++
			}
		case e.Ph == "i" && e.Name == "beat gap":
			t.beatGaps++
		}
	}
	return t, nil
}
