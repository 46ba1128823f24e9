// Command greenperf is the repository's end-to-end benchmark. One
// command runs one of three campaign workloads for a fixed time, checks
// every campaign's output against a reference, and prints its metrics
// by name with their units as the last line of standard output:
//
//	bash cmd/greenperf/run.sh --workload sweep-journal --seed 1 --seconds 30 --trace 0
//
// run.sh builds greenperf and greenbench from the checkout into
// .bench_build/ and execs greenperf. This directory is a Go module of
// its own (module repro/cmd/greenperf, with repro replaced by the
// repository root), so plain `go test ./...` at the root does not run
// the benchmark's self-test; run it with `go test` in this directory.
// greenvet's loader still walks into it, so TestSelfCheck and
// TestSelfCheckCoverage cover it under the repro/cmd/... rule set.
//
// # Workloads
//
// Each workload cycles through a pool of campaign specs drawn from
// --seed (benchmark order, and for sweep-compute the axis order); the
// program under test only ever sees the generated specs. Placement is
// always the CLI's default, cyclic, and every seed's pool holds the same
// work: with mixed placements, block and cyclic sweeps cost differently
// and the median sat between the two modes, flipping from run to run.
//
//   - sweep-compute: in-process suite.RunCampaign on Fire with the
//     paper suite, Workers 1, no journal, tracer or renderer, on the
//     dense 32-point axis (4, 8, …, 128) in seeded order. It is the
//     compute path alone — workload model, power profile, meter,
//     reductions — where the meter is most of the CPU. A compute win
//     shows here; a journal or render change must not move it.
//   - sweep-journal: the in-process equivalent of
//     `greenbench -sweep -o -trace -metrics -report` on the paper's
//     9-cell Fire axis: a tracer, a journal and campaign.Artifacts. It
//     is the CLI's own traffic, dominated by the journal's
//     rewrite-per-cell checkpoint (27 full rewrites ending near 92 KB,
//     suite.journal_write_amp about 14).
//   - daemon-jobs: an in-process campaign.Manager and Server with the
//     daemon's defaults (ops plane on, MaxConcurrent 2) on loopback
//     HTTP. Two closed-loop tenants each POST /jobs, stream
//     /jobs/{id}/events to EOF (the terminal state), GET /jobs/{id},
//     and every tenth job GET /metrics and /statusz. Nineteen of the
//     twenty pool specs are Fire paper sweeps, one is a cheaper
//     single-point extended-suite job at 64 processes. It is the only
//     workload that exercises HTTP, the queue, live hubs, the job table
//     and scrapes, and the long-lived process in which identical
//     campaigns recur. Each daemon serves jobsPerDaemon (60) jobs, three
//     cycles of the pool, and is then replaced by a freshly started
//     one: the job table never evicts, so with one daemon per run the
//     heap, the GC work per job and peak_rss_mb all grew with the number
//     of jobs the run got through, and a faster daemon read as a memory
//     regression.
//
// The exec'd `greenbench -sweep -shards 2 -o -trace -metrics -report`
// binary, built by run.sh from the same checkout, is not a workload of
// its own: its campaign times are not steady enough for a 0.25 bound on
// a shared host. Three processes start per campaign and both shards
// run at once, so a campaign is fast only while both vCPUs are, and
// process start (about half of its ~20 ms) follows the host's memory
// and virtualisation load. Two sets of ten 20-second runs of the same
// code spread 0.30 and 0.31 (IQR/median of p10), where the in-process
// workloads stayed inside their bounds. sweep-journal's traced run
// execs it instead, once per probe round, so process start, the shard
// supervisor, heartbeats, segment journals, MergeShardJournals and
// render-from-journal are still measured per layer (cli.*, shard.*);
// an end-to-end regression there shows in no bounded metric.
//
// Load stays at the host's two vCPUs: two tenants, two shards,
// Workers 1. Each run is its own process, forces a GC before timing,
// and reports raw units with no calibration normalisation.
//
// # End-to-end metrics (--trace 0)
//
//   - campaign_ms_p10: the 10th percentile of wall time per campaign;
//     for daemon-jobs from submit to stream EOF, as the client sees it.
//     A 30-second run times about two thousand campaigns or more, so
//     it has far more than ten samples below it.
//   - peak_rss_mb: peak resident memory. For daemon-jobs it is that of
//     a daemon after jobsPerDaemon jobs, whatever the run's throughput.
//   - setup_s: what a user pays once before steady state, the median of
//     setupRepeats set-ups: the cold first campaign of a fresh process
//     (sweep-compute, sweep-journal), or daemon start until /healthz
//     answers (daemon-jobs). The sequential workloads interleave
//     setupRepeats set-ups evenly with the timed campaigns;
//     daemon-jobs pauses its tenants and starts a fresh daemon every
//     jobsPerDaemon jobs. Either way the set-ups lie outside every
//     campaign's window and the run's wall time, and their median spans
//     the run.
//
// Failed campaigns are reported against those attempted.
//
// Why p10, and neither the median nor p90: on a shared 2-vCPU host
// each vCPU runs at full speed or at about half of it, as neighbours
// come and go, for seconds at a time. Campaign times are therefore
// bimodal, and a percentile jumps between the modes whenever the share
// of the run spent in the slow mode crosses it. For the median that
// share is a half, which the host crosses all the time: in two runs of
// sweep-compute a few minutes apart it read 4.8 and 7.5 ms (+57%),
// while p10 moved from 4.4 to 5.1 ms (+17%). For p90 it is a tenth:
// ten 20-second sweep-compute runs read 5.4 to 5.6 ms p90 in the two
// calmest runs and 6.5 to 7.7 ms in the rest. p10 leaves the fast mode
// only when the host is slow for nine tenths of a run, and is the
// program's own cost when the host leaves it alone. Every run prints
// every end-to-end metric on every workload, so a tail percentile
// cannot be kept for daemon-jobs alone; the traced run reports the
// median and p90 of its untraced phase instead (trace.untraced_ms_p50,
// trace.untraced_ms_p90).
//
// Throughput and CPU time are not end-to-end metrics for the same
// reason. Both are means, so they follow the share of the run the host
// spent slow all the way: in one set of ten 20-second sweep-journal
// runs the host slowed steadily, jobs per second fell from 82 to 56 and
// CPU per campaign rose from 12.8 to 18.9 ms (spreads 0.23 and 0.21,
// against a bound of 0.25), while p10 rose from 10.9 to 13.3 ms
// (spread 0.10). Closed-loop throughput is the client count over the
// mean latency, so p10 carries the same signal from the fast mode. The
// traced run reports both from its untraced phase: jobs_per_s,
// completed campaigns per second, and cpu_ms_per_campaign, process
// user+sys CPU per campaign including GC. Slower drifts of the host
// still move every time metric together, p10 included: five sharded
// CLI runs in a row slid from 23 to 35 ms p50 and from 20 to 29 ms p10
// within two minutes, which no choice of statistic removes.
//
// # Correctness
//
// Before timing, each pool spec runs once through a plain in-memory
// suite.RunCampaign and its results, rendered by suite.SaveJSON, become
// the reference. Every timed campaign is byte-compared against it: the
// in-process results and the daemon job's results.json; the traced
// run checks the sharded CLI's -o file the same way. A daemon job that
// ends in any state but done counts as failed. --corrupt-reference
// flips one reference byte; the self-test shows the check then reports
// failures.
//
// # Campaign output and fsync
//
// All campaign output goes to a private tmpfs mounted over the work
// directory (.bench_build/work) inside a user and mount namespace of
// the run's own: it stays inside the checkout's path, nothing else on
// the machine sees it, and it vanishes with the run. The journal fsyncs
// after every cell, and on the shared disk that latency belonged to the
// host: ten sweep-journal runs ranged 41 to 104 ms p50 there, against
// 20 to 21 ms on the tmpfs. The number of fsyncs is left to
// in-program tracing. Where the kernel refuses the namespaces or the
// mount, greenperf exits non-zero without a result: a run on disk is
// not comparable with one on tmpfs.
//
// # Traced run (--trace 1)
//
// The traced run is separate from the timed one and splits its time:
// an untraced phase, a phase with client-side spans around every call
// into the program (their ratio is trace.overhead_share), and a probe
// pass that times direct calls into each layer's public functions for
// every pool spec. Spans (name, start, end, parent, campaign) stay in
// memory and are written to .bench_build/spans/<workload>.ndjson when
// the run ends. The probes are:
//
//   - compute, for every (procs, benchmark) cell: suite.Run, then the
//     calls it makes — bench.Workload.Simulate,
//     (*power.Model).ProfileTraceInto, (*power.Meter).Sample and the
//     series reductions — checked bit for bit against suite.Run;
//   - journal: each spec's real journaled cells, captured inside the
//     Render hook with OpenJournal, Lookup and LookupTrace, replayed
//     into a fresh journal (SetTrace+Record per cell), read back
//     (OpenJournal, Bind, a lookup of every cell), and merged from two
//     shard.Partition segments with MergeShardJournals;
//   - campaign.Artifacts.Write, then each call it makes;
//   - sweep-journal only, the sharded CLI: `greenbench -list`
//     (cli.process_start_ms), then the spec as an exec'd
//     `greenbench -sweep -shards 2 … -ops-trace` campaign, whose
//     timeline gives the shard attempts, relaunches and heartbeat gaps;
//     cli.tail_ms is the campaign's wall time after the last shard
//     ended, measured from supervisor start;
//   - daemon-jobs: the client's round trips and the jobs' Status
//     timestamps (queue wait, run, and notify: client latency minus
//     finished − submitted).
//
// Each timing metric comes with a *_calls count per campaign (per probe
// round for the probed layers); layers a workload does not exercise
// report 0 calls. suite.cell is one
// suite.Run per process count (a sweep cell); the compute layers below
// it are per (process count, benchmark) step. The accounting check
// sums, per traced campaign, the blocking layers' probe time
// (explainedBy) plus the waits measured directly, and reports
// trace.unexplained_share = |1 − median(explained) / untraced p50| with
// both bases (trace.explained_ms, trace.untraced_ms_p50), whose order
// tells an under-count from an over-count. The target is at most
// 0.15, and on a shared host each share moves by about that much from
// run to run, since the probe pass runs at another moment of the host
// than the untraced phase. The in-process sweeps land within about 0.2
// either way (a probed suite.Run builds its meter and model afresh,
// where the sweep reuses them across cells); daemon-jobs falls short by
// about 0.2 (the job's own tracer and live hub, and two jobs sharing
// two vCPUs, are not probed). Closing those gaps needs spans inside
// the program.
//
// # Which layer metric should move which end-to-end metric
//
// The end-to-end column names the traced run's jobs_per_s,
// cpu_ms_per_campaign and trace.untraced_ms_p90 too, which move with
// campaign_ms_p10 but carry no bound.
//
//	layer metrics                              moves                         on                       no change on
//	power.sample_us, power.profile_us,         campaign_ms_p10,              sweep-compute            –
//	  bench.simulate_us, series.reduce_us        cpu_ms_per_campaign           (≈12% of sweep-journal)
//	suite.journal_record_us,                   campaign_ms_p10, cpu_ms,      sweep-journal,           sweep-compute
//	  suite.journal_kb_written, _write_amp       jobs_per_s                    daemon-jobs
//	suite.journal_open_us, suite.merge_us,     no bounded metric: the        (the sharded CLI,        all three
//	  shard.*, cli.*                             sharded CLI is probed only    sweep-journal's probe)
//	campaign.artifacts_us, obs.chrome_trace_us, campaign_ms_p10 (~4%)        sweep-journal, daemon    sweep-compute
//	  suite.report_us
//	campaign.submit_ms, queue_wait_ms,         campaign_ms_p10, jobs_per_s,  daemon-jobs              the other two
//	  notify_ms, scrape_ms                       untraced_ms_p90
//	campaign.retained_kb_per_job               peak_rss_mb                   daemon-jobs              the other two
//
// # Findings the per-layer metrics expose
//
// cells.reuse_share is the share of timed cells whose (system, procs,
// benchmark) already ran in the same process: above 0.95 for all three
// workloads, which run in one process and whose pools recur. The
// sharded CLI, where every campaign starts in fresh processes and no
// cross-campaign cache can hit, is the "without" side of any
// reuse-dependent optimisation; it is probed, not timed, so
// cells.reuse_share does not cover it.
//
// campaign.retained_kb_per_job is measured at the end of the traced
// run: a freshly started daemon serves jobsPerDaemon jobs, and the live
// heap after a forced GC, less the heap with the empty daemon, is
// divided by those jobs. It is about 128 KB per finished job, because
// the job table never evicts. A single daemon serving a whole
// 15-second run (1300 to 2200 jobs) peaked at 400 to 650 MB RSS; the
// fix belongs to a later change, and peak_rss_mb on daemon-jobs (a
// daemon after jobsPerDaemon jobs) is where it will show.
package main
