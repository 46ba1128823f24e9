package suite_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/suite"
)

// testbedRuns executes the paper suite at each process count on the
// testbed model, returning the per-benchmark runs keyed by cell key.
// sysName is the Testbed spec's reported system name, the first cell-key
// component.
var sysName = cluster.Testbed().Name

func testbedRuns(t *testing.T, procs []int) map[string]suite.BenchmarkRun {
	t.Helper()
	spec := cluster.Testbed()
	out := map[string]suite.BenchmarkRun{}
	for _, p := range procs {
		r, err := suite.Run(suite.DefaultConfig(spec, p))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range r.Runs {
			out[suite.CellKey(spec.Name, p, "cyclic", b.Measurement.Benchmark)] = b
		}
	}
	return out
}

func TestMergeShardJournals(t *testing.T) {
	dir := t.TempDir()
	runs := testbedRuns(t, []int{1, 2, 3, 4})
	benches := suite.PaperOrder()

	// Two segments, as a 2-shard sweep would leave them: shard 0 owns
	// procs 1-2, shard 1 owns procs 3-4.
	openSeg := func(name string, procs []int) *suite.Journal {
		seg, err := suite.OpenJournal(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range procs {
			for _, b := range benches {
				key := suite.CellKey(sysName, p, "cyclic", b)
				if err := seg.Record(key, runs[key]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return seg
	}
	segA := openSeg("seg-0", []int{1, 2})
	segB := openSeg("seg-1", []int{3, 4})

	dst, err := suite.OpenJournal(filepath.Join(dir, "campaign.journal"))
	if err != nil {
		t.Fatal(err)
	}
	missing, err := suite.MergeShardJournals(dst, []*suite.Journal{segA, segB},
		sysName, "cyclic", []int{1, 2, 3, 4}, benches)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("missing cells after a complete merge: %v", missing)
	}
	// The merged journal must survive a reopen with every cell intact.
	re, err := suite.OpenJournal(dst.Path())
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range runs {
		got, ok := re.Lookup(key)
		if !ok {
			t.Fatalf("merged journal lost cell %s", key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cell %s changed through the merge", key)
		}
	}
}

func TestMergeShardJournalsReportsMissing(t *testing.T) {
	dir := t.TempDir()
	runs := testbedRuns(t, []int{1})
	benches := suite.PaperOrder()
	seg, err := suite.OpenJournal(filepath.Join(dir, "seg"))
	if err != nil {
		t.Fatal(err)
	}
	for key, run := range runs {
		if err := seg.Record(key, run); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := suite.OpenJournal(filepath.Join(dir, "campaign.journal"))
	if err != nil {
		t.Fatal(err)
	}
	// procs 2 exists in no segment: every one of its cells is missing,
	// in axis-then-suite order.
	missing, err := suite.MergeShardJournals(dst, []*suite.Journal{seg},
		sysName, "cyclic", []int{1, 2}, benches)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, b := range benches {
		want = append(want, suite.CellKey(sysName, 2, "cyclic", b))
	}
	if !reflect.DeepEqual(missing, want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
}

func TestJournalRoundTripsMetricOps(t *testing.T) {
	dir := t.TempDir()
	j, err := suite.OpenJournal(filepath.Join(dir, "ops.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ops := []obs.MetricOp{
		{Kind: obs.OpCount, Name: "suite.attempts", Value: 1},
		{Kind: obs.OpObserve, Name: "suite.attempt_seconds", Value: 12.25},
		{Kind: obs.OpGauge, Name: "suite.procs", Value: 8},
	}
	key := suite.CellKey(sysName, 1, "cyclic", suite.BenchHPL)
	j.SetTrace(key, suite.CellTrace{Ops: ops})
	for k, run := range testbedRuns(t, []int{1}) {
		if k == key {
			if err := j.Record(k, run); err != nil {
				t.Fatal(err)
			}
		}
	}
	re, err := suite.OpenJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := re.LookupTrace(key)
	if !ok {
		t.Fatal("ops-only cell trace not journaled")
	}
	if !reflect.DeepEqual(tr.Ops, ops) {
		t.Fatalf("ops changed through the journal: got %v, want %v", tr.Ops, ops)
	}
}
