package suite

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
)

// CampaignSpec describes one journal-backed campaign run — the
// job-scoped entry point shared by the greenbench CLI and the campaign
// server (internal/campaign). Both front ends build a CampaignSpec and
// call RunCampaign, so a sweep submitted over HTTP executes the exact
// code path of the same sweep run from the command line and produces
// byte-identical artefacts.
//
// The spec stays on the deterministic side of the two-plane
// architecture: everything wall-clock (pacing, cancellation, shard
// supervision, status lines) is injected through the hook fields, which
// the deterministic core invokes but never implements. All hooks are
// optional; the zero hook set runs the campaign silently to completion.
type CampaignSpec struct {
	// Spec is the cluster under test (required).
	Spec *cluster.Spec
	// Placement is the process placement policy.
	Placement cluster.Placement
	// Benchmarks is the ordered benchmark list (empty: the paper's three).
	Benchmarks []string
	// Faults injects the campaign's fault scenario (nil: none).
	Faults *faults.Plan
	// Retry governs per-benchmark retries, backoff and timeouts.
	Retry RetryPolicy

	// Sweep selects the process-count sweep; false runs one point.
	Sweep bool
	// Procs is the single-run process count (0: all cores). Ignored for
	// sweeps.
	Procs int
	// Axis overrides the sweep's process axis (nil: DefaultAxis(Spec)).
	Axis []int
	// Workers caps concurrently-running sweep cells (0 or 1: sequential).
	Workers int

	// JournalPath checkpoints completed sweep cells ("" for none; only
	// sweeps journal).
	JournalPath string
	// Resume skips cells already checkpointed in the journal.
	Resume bool
	// KeepQuarantined reuses journaled quarantined cells instead of
	// re-running them — set by the sharded supervisor's render pass.
	KeepQuarantined bool

	// Trace, when non-nil, records the campaign's deterministic
	// observability stream (spans, events, metrics).
	Trace *obs.Tracer
	// Live, when non-nil, receives wall-clock telemetry (see LiveSink).
	Live LiveSink

	// PauseCell, when non-nil, runs before each cell — wall-clock pacing
	// for demos and e2e tests; it cannot affect virtual results.
	PauseCell func()
	// Check, when non-nil, runs before each cell; a non-nil error aborts
	// the campaign. This is the cancellation hook of the campaign server.
	// It must be safe for concurrent calls when Workers > 1.
	Check func() error
	// AfterCell, when non-nil, runs after each freshly-executed
	// (non-journal-hit) cell with the running count of such cells; a
	// non-nil error aborts the campaign. Tests use it to simulate a
	// killed process mid-sweep.
	AfterCell func(done int64) error
	// Supervise, when non-nil, runs the sweep axis out of process before
	// the in-process pass — the sharded supervisor hook. On success the
	// campaign switches to Resume + KeepQuarantined and renders entirely
	// from the journal the supervisor filled.
	Supervise func(axis []int) error
	// Logf, when non-nil, receives human-readable status lines (resume
	// notices). Artefact bytes never pass through it.
	Logf func(format string, args ...any)

	// Render, when non-nil, writes the campaign's user-facing output. It
	// runs after the results exist and before the journal is removed, so
	// an interrupted render leaves the journal behind for a resume.
	Render func(results []*Result) error
}

// CampaignOutcome is what RunCampaign reports beyond the results slice.
type CampaignOutcome struct {
	// Results holds one entry per axis point (or the single run).
	Results []*Result
	// Quarantined counts benchmark cells lost to a poison shard.
	Quarantined int
	// JournalKept names the journal left behind for a later resume
	// (quarantined cells pending); "" when the journal was removed or
	// never existed.
	JournalKept string
}

// DefaultAxis returns the campaign's process axis for a cluster: the
// paper's canonical Fire axis when the machine has its 128 cores,
// otherwise the same eight-step shape scaled to the machine's size.
func DefaultAxis(spec *cluster.Spec) []int {
	if spec.TotalCores() == 128 {
		return FireSweep()
	}
	axis := make([]int, 0, 8)
	for i := 1; i <= 8; i++ {
		axis = append(axis, spec.TotalCores()*i/8)
	}
	return axis
}

// CountQuarantined totals the quarantined benchmark cells across results.
func CountQuarantined(results []*Result) int {
	n := 0
	for _, r := range results {
		for _, b := range r.Runs {
			if b.Status == StatusQuarantined {
				n++
			}
		}
	}
	return n
}

func (cs *CampaignSpec) logf(format string, args ...any) {
	if cs.Logf != nil {
		cs.Logf(format, args...)
	}
}

// configure builds the base Config for one process count.
func (cs *CampaignSpec) configure(procs int) Config {
	cfg := DefaultConfig(cs.Spec, procs)
	cfg.Placement = cs.Placement
	cfg.Benchmarks = cs.Benchmarks
	cfg.Faults = cs.Faults
	cfg.Retry = cs.Retry
	return cfg
}

// RunCampaign executes the campaign described by cs: a single suite run
// or a journal-backed (optionally sharded, optionally resumed) sweep.
// Render runs once the results exist; the journal is then removed unless
// quarantined cells remain, in which case it is kept as the handle for
// retrying them and the outcome names it.
func RunCampaign(cs CampaignSpec) (*CampaignOutcome, error) {
	if cs.Spec == nil {
		return nil, fmt.Errorf("suite: campaign has no cluster spec")
	}
	var results []*Result
	var journal *Journal
	var err error
	if cs.Sweep {
		results, journal, err = cs.runSweep()
	} else {
		results, err = cs.runSingle()
	}
	if err != nil {
		return nil, err
	}
	if cs.Render != nil {
		if err := cs.Render(results); err != nil {
			return nil, err
		}
	}
	out := &CampaignOutcome{Results: results, Quarantined: CountQuarantined(results)}
	// The campaign completed and its output (if any) is safely rendered:
	// the journal has served its purpose — unless cells were quarantined,
	// in which case it is the handle for retrying them.
	if journal != nil {
		if out.Quarantined > 0 {
			out.JournalKept = journal.Path()
			return out, nil
		}
		if err := journal.Remove(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runSingle executes the campaign's one-point form: a single suite run,
// presented to the live plane as a one-cell sweep.
func (cs *CampaignSpec) runSingle() ([]*Result, error) {
	procs := cs.Procs
	if procs == 0 {
		procs = cs.Spec.TotalCores()
	}
	cfg := cs.configure(procs)
	if cs.Trace != nil {
		cfg.Trace = cs.Trace
	}
	var done func(err error, retries int, degraded bool)
	if cs.Live != nil {
		cfg.Trace = cs.Live.Tap(cfg.Trace, procs)
		cs.Live.SweepStarted(1, 1)
		done = cs.Live.BeginCell(procs)
	}
	if cs.Check != nil {
		if err := cs.Check(); err != nil {
			if done != nil {
				done(err, 0, false)
			}
			return nil, err
		}
	}
	if cs.PauseCell != nil {
		cs.PauseCell()
	}
	r, err := Run(cfg)
	if err != nil {
		if done != nil {
			done(err, 0, false)
		}
		return nil, err
	}
	if done != nil {
		done(nil, resultRetries(r), r.Degraded)
		cs.Live.SweepFinished()
	}
	return []*Result{r}, nil
}

// runSweep executes the campaign's sweep form, optionally sharded out of
// process first (Supervise) and optionally resumed from a journal. The
// returned journal is non-nil when one was opened; the caller decides
// whether it is removed or kept.
func (cs *CampaignSpec) runSweep() ([]*Result, *Journal, error) {
	axis := cs.Axis
	if axis == nil {
		axis = DefaultAxis(cs.Spec)
	}
	// A sharded sweep runs the axis as supervised worker processes first,
	// merging their journal segments (and quarantine records for cells
	// lost to a poison shard) into the canonical journal. The ordinary
	// resume path below then renders the campaign entirely from that
	// journal — every cell a Lookup hit — so sharded output is
	// byte-identical to a single-process sequential run by construction.
	resume, keepQuarantined := cs.Resume, cs.KeepQuarantined
	if cs.Supervise != nil {
		if err := cs.Supervise(axis); err != nil {
			return nil, nil, err
		}
		resume, keepQuarantined = true, true
	}
	// Checkpoint completed (procs, benchmark) cells so an interrupted
	// sweep can resume instead of re-simulating finished work.
	var journal *Journal
	if cs.JournalPath != "" {
		var err error
		if journal, err = OpenJournal(cs.JournalPath); err != nil {
			return nil, nil, err
		}
		if err := journal.Bind(cs.Benchmarks); err != nil {
			return nil, nil, err
		}
		if resume && journal.Len() > 0 {
			cs.logf("resuming: %d cell(s) already in %s", journal.Len(), journal.Path())
		}
	}
	var cells atomic.Int64
	plan := SweepPlan{
		Axis:    axis,
		Workers: cs.Workers,
		Trace:   cs.Trace,
		Live:    cs.Live,
		Configure: func(ctx CellContext) (Config, error) {
			if cs.Check != nil {
				if err := cs.Check(); err != nil {
					return Config{}, err
				}
			}
			// A wall-clock pause paces demo and e2e runs so there is a
			// window to watch the live plane mid-campaign. It happens before
			// the virtual simulation and cannot touch its results.
			if cs.PauseCell != nil {
				cs.PauseCell()
			}
			cfg := cs.configure(ctx.Procs)
			if journal == nil {
				return cfg, nil
			}
			key := func(bench string) string {
				return CellKey(cs.Spec.Name, ctx.Procs, cs.Placement.String(), bench)
			}
			// mark fences the recorder per benchmark cell, so each cell's
			// spans are journaled with it and replayed on resume.
			mark := ctx.Rec.Mark()
			if resume {
				cfg.Lookup = func(bench string) (BenchmarkRun, bool) {
					run, ok := journal.Lookup(key(bench))
					// A quarantined cell is an artifact of a lost shard
					// worker, not a simulation outcome: a user-driven resume
					// re-runs it. Only the sharded supervisor's own render
					// pass keeps it cached.
					if ok && run.Status == StatusQuarantined && !keepQuarantined {
						return BenchmarkRun{}, false
					}
					if ok && ctx.Rec != nil {
						if tr, hasTrace := journal.LookupTrace(key(bench)); hasTrace {
							// Journaled traces are cell-relative; the cell
							// origin rebases them onto this run's clock.
							ctx.Rec.Replay(obs.ShiftedSpans(tr.Spans, ctx.Origin),
								obs.ShiftedEvents(tr.Events, ctx.Origin))
							ctx.Rec.ReplayOps(tr.Ops)
							mark = ctx.Rec.Mark()
						}
					}
					return run, ok
				}
			}
			cfg.OnBenchmark = func(bench string, run BenchmarkRun) error {
				if ctx.Rec != nil {
					spans, events := ctx.Rec.Since(mark)
					ops := ctx.Rec.OpsSince(mark)
					mark = ctx.Rec.Mark()
					journal.SetTrace(key(bench), CellTrace{
						Spans:  obs.ShiftedSpans(spans, -ctx.Origin),
						Events: obs.ShiftedEvents(events, -ctx.Origin),
						Ops:    ops,
					})
				}
				if err := journal.Record(key(bench), run); err != nil {
					return err
				}
				done := cells.Add(1)
				if cs.AfterCell != nil {
					return cs.AfterCell(done)
				}
				return nil
			}
			return cfg, nil
		},
	}
	results, err := RunSweepPlan(plan)
	if err != nil {
		return nil, nil, err
	}
	return results, journal, nil
}
