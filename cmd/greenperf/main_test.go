package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// greenbenchBin is the greenbench binary sweep-journal's traced run
// execs, built once for the whole test run.
var greenbenchBin string

func TestMain(m *testing.M) {
	// The set-up measurement re-executes this binary in --cold mode.
	if slices.Contains(os.Args[1:], "--cold") {
		main()
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "greenperf-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	greenbenchBin = filepath.Join(dir, "greenbench")
	build := exec.Command("go", "build", "-o", greenbenchBin, "repro/cmd/greenbench")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building greenbench:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func shortRun(t *testing.T, workload string, trace, corrupt bool) *result {
	t.Helper()
	o, err := parseFlags([]string{"--workload", workload, "--seed", "3", "--seconds", "0.3",
		"--dir", t.TempDir(), "--spans", t.TempDir(), "--greenbench", greenbenchBin}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	o.trace, o.corrupt = trace, corrupt
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestWorkloadsReportEveryMetric runs every workload at minimum length,
// untraced and traced, and checks each metric BENCHMARK.json names is
// printed with its unit — end-to-end ones non-zero — and that every
// campaign matched its reference.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, greenperf runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := shortRun(t, w, false, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(f.EndToEnd) {
				t.Errorf("untraced run prints %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(f.EndToEnd))
			}
			for _, m := range f.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s and a positive value", m.Name, got, ok, m.Unit)
				}
			}
			res = shortRun(t, w, true, false)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(f.PerLayer) {
				t.Errorf("traced run prints %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(f.PerLayer))
			}
			for _, m := range f.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range exercised[w] {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("per-layer %s is %v; %s exercises that layer", name, res.Metrics[name].Value, w)
				}
			}
		})
	}
}

// exercised lists, per workload, the call counts of the layers its
// traced run drives, which must therefore be non-zero. (Layers a
// workload does not drive report 0.)
var exercised = map[string][]string{
	wSweepCompute: computeCalls,
	wSweepJournal: append([]string{"cli.process_start_calls", "cli.tail_calls", "shard.worker_calls"},
		append(journalCalls, computeCalls...)...),
	wDaemonJobs: append([]string{"campaign.submit_calls", "campaign.status_calls",
		"campaign.queue_wait_calls", "campaign.run_calls", "campaign.notify_calls"},
		append(journalCalls, computeCalls...)...),
}

var (
	computeCalls = []string{"suite.cell_calls", "bench.simulate_calls", "power.profile_calls",
		"power.sample_calls", "series.reduce_calls"}
	journalCalls = []string{"suite.journal_records", "suite.journal_open_calls", "suite.journal_lookup_calls",
		"suite.merge_calls", "campaign.artifacts_calls", "obs.chrome_trace_calls", "obs.metrics_calls",
		"suite.results_json_calls", "suite.report_calls"}
)

// TestCorruptedReferenceFails shows the correctness check trips: with
// one reference byte flipped, the campaigns of that spec count as
// failed and the run is not correct.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := shortRun(t, w, false, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted reference went unnoticed: correct=%v attempted=%d failed=%d",
					res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

// TestPoolIsSeeded pins that the pool is a pure function of the seed
// and that every spec of a workload has the same shape.
func TestPoolIsSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, b := buildPool(w, 7), buildPool(w, 7)
		for i := range a {
			if fmt.Sprint(*a[i]) != fmt.Sprint(*b[i]) {
				t.Errorf("%s: spec %d differs between two pools of one seed", w, i)
			}
		}
		singles := 0
		for _, s := range a {
			if !s.sweep {
				singles++
				continue
			}
			if len(s.cellKeys()) != len(a[0].cellKeys()) {
				t.Errorf("%s: spec %d has %d cells, spec 0 has %d", w, s.index, len(s.cellKeys()), len(a[0].cellKeys()))
			}
		}
		if singles*5 > len(a) {
			t.Errorf("%s: %d of %d specs are single-point jobs; at most a fifth may be", w, singles, len(a))
		}
	}
}
