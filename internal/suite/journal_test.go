package suite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("fresh journal has %d cells", j.Len())
	}
	run := BenchmarkRun{
		Measurement: core.Measurement{Benchmark: "HPL", Metric: "GFLOPS",
			Performance: 13.7, Power: 297, Time: 516, Energy: 153885},
		PeakPower: 299.4,
		Samples:   518,
	}
	key := CellKey("testbed", 4, "cyclic", "HPL")
	if err := j.Record(key, run); err != nil {
		t.Fatal(err)
	}
	// A second journal process (the resumed sweep) sees the cell.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := j2.Lookup(key)
	if !ok {
		t.Fatal("recorded cell not found after reopen")
	}
	if got != run {
		t.Errorf("round trip mangled run:\n%+v\n%+v", got, run)
	}
	if _, ok := j2.Lookup(CellKey("testbed", 8, "cyclic", "HPL")); ok {
		t.Error("lookup matched a different cell")
	}
	if err := j2.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("Remove left the journal behind")
	}
	// Removing an already-removed journal is fine.
	if err := j2.Remove(); err != nil {
		t.Errorf("double remove: %v", err)
	}
}

func TestJournalFailedRunsAreCheckpointedToo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _ := OpenJournal(path)
	failed := BenchmarkRun{
		Measurement: core.Measurement{Benchmark: "STREAM", Metric: "MBPS"},
		Status:      StatusFailed,
		Retries:     2,
		Error:       "node 1 crashed at t=50s of 816s",
		WastedTime:  150,
	}
	key := CellKey("testbed", 4, "cyclic", "STREAM")
	if err := j.Record(key, failed); err != nil {
		t.Fatal(err)
	}
	j2, _ := OpenJournal(path)
	got, ok := j2.Lookup(key)
	if !ok || got.Status != StatusFailed || got.Error != failed.Error {
		t.Errorf("failed run did not survive the journal: %+v", got)
	}
}

func TestJournalTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _ := OpenJournal(path)
	key := CellKey("testbed", 4, "cyclic", "HPL")
	tr := CellTrace{
		Spans: []obs.Span{{Track: "HPL", Name: "attempt 1", Start: 10, End: 30,
			Attrs: []obs.Attr{obs.Str("outcome", "ok")}}},
		Events: []obs.Event{{Track: "HPL", Name: "fault: straggler", At: 12}},
	}
	j.SetTrace(key, tr)
	if err := j.Record(key, BenchmarkRun{Samples: 3}); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := j2.LookupTrace(key)
	if !ok {
		t.Fatal("trace not found after reopen")
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("trace round trip mangled:\n%+v\n%+v", got, tr)
	}
	if _, ok := j2.LookupTrace(CellKey("testbed", 8, "cyclic", "HPL")); ok {
		t.Error("LookupTrace matched a different cell")
	}
	// An empty trace is not staged at all.
	j2.SetTrace(CellKey("testbed", 8, "cyclic", "HPL"), CellTrace{})
	if _, ok := j2.LookupTrace(CellKey("testbed", 8, "cyclic", "HPL")); ok {
		t.Error("empty trace was staged")
	}
	// A later line for the same cell wins, and one without a trace
	// clears the earlier trace.
	j2.Stage(key, BenchmarkRun{Samples: 4}, CellTrace{})
	if err := j2.Flush(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if run, _ := j3.Lookup(key); run.Samples != 4 || j3.Len() != 1 {
		t.Errorf("re-recorded cell reads %+v in %d cell(s), want the later run alone", run, j3.Len())
	}
	if _, ok := j3.LookupTrace(key); ok {
		t.Error("a traceless line did not clear the cell's earlier trace")
	}
}

func TestJournalCorruptFile(t *testing.T) {
	// A torn first line is a killed writer's header and recovers to an
	// empty journal (see TestJournalRecoversEveryTruncation); a complete
	// first line that is not a v4 header is refused.
	v3 := "{\n  \"version\": 3,\n  \"benchmarks\": [\"HPL\"],\n  \"cells\": {}\n}\n"
	for _, c := range []struct {
		name, data string
		want       []string
	}{
		{"not json", "{truncated\n", []string{"corrupt", "delete it"}},
		{"cell line first", `{"key":"testbed|4|cyclic|HPL","run":{}}` + "\n", []string{"corrupt", "delete it"}},
		{"other version", `{"version":5,"benchmarks":null}` + "\n", []string{"corrupt", "delete it"}},
		{"v3 file", v3, []string{"older greenbench", "delete it"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.journal")
			if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenJournal(path)
			if err == nil {
				t.Fatal("non-v4 journal opened")
			}
			for _, want := range c.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if b, _ := os.ReadFile(path); string(b) != c.data {
				t.Error("a refused journal was modified")
			}
		})
	}
}

func TestJournalNoTempFileResidue(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(filepath.Join(dir, "sweep.journal"))
	for i := 0; i < 5; i++ {
		key := CellKey("testbed", i, "cyclic", "HPL")
		if err := j.Record(key, BenchmarkRun{Samples: i}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.journal" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only sweep.journal", names)
	}
}

// tracedSweep runs a traced, journaled two-point testbed sweep and
// returns its
// results, Chrome trace and metrics bytes, plus the journal bytes as they
// stood when the campaign rendered (RunCampaign removes the file after).
func tracedSweep(t *testing.T, journal string, resume bool) (artefacts [3][]byte, journaled []byte) {
	t.Helper()
	tracer := obs.NewTracer()
	_, err := RunCampaign(CampaignSpec{
		Spec: cluster.Testbed(), Placement: cluster.Cyclic, Sweep: true, Axis: []int{3, 8},
		JournalPath: journal, Resume: resume, Trace: tracer,
		Render: func(results []*Result) error {
			var err error
			if artefacts[0], err = json.Marshal(results); err != nil {
				return err
			}
			var tr, m bytes.Buffer
			if err := obs.WriteChromeTrace(&tr, tracer.Spans(), tracer.Events()); err != nil {
				return err
			}
			if err := tracer.Registry().Snapshot().WriteJSON(&m); err != nil {
				return err
			}
			artefacts[1], artefacts[2] = tr.Bytes(), m.Bytes()
			journaled, err = os.ReadFile(journal)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return artefacts, journaled
}

// TestJournalRecoversEveryTruncation cuts a traced sweep's journal at
// every byte offset — every state a writer killed mid-append can leave —
// and checks that reopening keeps exactly the cells whose lines end at or
// before the cut, that the recovered journal takes further appends, and
// that resuming from it reproduces the uninterrupted campaign's bytes.
func TestJournalRecoversEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	want, full := tracedSweep(t, filepath.Join(dir, "full.journal"), false)
	// ends[i] is the offset just past cell line i; keys[i] its key.
	var ends []int
	var keys []string
	header := bytes.IndexByte(full, '\n') + 1
	for off := header; off < len(full); {
		n := bytes.IndexByte(full[off:], '\n') + 1
		var rec journalRecord
		if err := json.Unmarshal(full[off:off+n], &rec); err != nil {
			t.Fatal(err)
		}
		off += n
		ends = append(ends, off)
		keys = append(keys, rec.Key)
	}
	if len(keys) != 6 {
		t.Fatalf("journal holds %d cell lines, want 6 (2 procs x 3 benchmarks)", len(keys))
	}
	ref := filepath.Join(dir, "ref.journal")
	if err := os.WriteFile(ref, full, 0o644); err != nil {
		t.Fatal(err)
	}
	whole, err := OpenJournal(ref)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cut.journal")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		kept := 0
		for kept < len(ends) && ends[kept] <= cut {
			kept++
		}
		if j.Len() != kept {
			t.Fatalf("cut at %d: %d cells, want %d", cut, j.Len(), kept)
		}
		for _, key := range keys[:kept] {
			got, _ := j.Lookup(key)
			ref, _ := whole.Lookup(key)
			gotTr, _ := j.LookupTrace(key)
			refTr, _ := whole.LookupTrace(key)
			if got != ref || !reflect.DeepEqual(gotTr, refTr) {
				t.Fatalf("cut at %d: cell %s differs from the full journal", cut, key)
			}
		}
		// The torn tail is gone, so the next append lands on a line
		// boundary.
		size := 0
		if kept > 0 {
			size = ends[kept-1]
		} else if cut >= header {
			size = header
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(size) {
			t.Fatalf("cut at %d: file not truncated to %d bytes (%v)", cut, size, err)
		}
	}

	// From a spread of cuts, one more append followed by a reopen holds
	// one more cell, and resuming reproduces the uninterrupted bytes.
	cuts := []int{0, header / 2, header, ends[0] - 1, ends[0]}
	for _, end := range ends[2:5] {
		cuts = append(cuts, end-100, end)
	}
	cuts = append(cuts, len(full)-1, len(full))
	for _, cut := range cuts {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		n := j.Len()
		if err := j.Record("probe|0|cyclic|HPL", BenchmarkRun{Samples: cut}); err != nil {
			t.Fatal(err)
		}
		re, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut at %d, then one append: %v", cut, err)
		}
		if re.Len() != n+1 {
			t.Fatalf("cut at %d, then one append: reopened with %d cells, want %d", cut, re.Len(), n+1)
		}

		journal := filepath.Join(dir, fmt.Sprintf("resume-%d.journal", cut))
		if err := os.WriteFile(journal, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, _ := tracedSweep(t, journal, true)
		for i, name := range []string{"results", "trace", "metrics"} {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("resumed from a cut at %d: %s differ from the uninterrupted run", cut, name)
			}
		}
	}
}

func FuzzOpenJournal(f *testing.F) {
	dir := f.TempDir()
	real := filepath.Join(dir, "real.journal")
	j, err := OpenJournal(real)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Bind(PaperOrder()); err != nil {
		f.Fatal(err)
	}
	for i, b := range PaperOrder() {
		key := CellKey("testbed", 4, "cyclic", b)
		j.SetTrace(key, CellTrace{
			Spans:  []obs.Span{{Track: b, Name: "attempt 1", Start: 0, End: 30, Attrs: []obs.Attr{obs.Str("outcome", "ok")}}},
			Events: []obs.Event{{Track: b, Name: "fault: straggler", At: 12}},
			Ops:    []obs.MetricOp{{Kind: obs.OpCount, Name: "suite.attempts", Value: 1}},
		})
		if err := j.Record(key, BenchmarkRun{Samples: i + 1, Status: StatusRecovered, Retries: 1}); err != nil {
			f.Fatal(err)
		}
	}
	v4, err := os.ReadFile(real)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(v4[:bytes.IndexByte(v4, '\n')+1])
	f.Add(v4)
	f.Add([]byte("{\n  \"version\": 3,\n  \"benchmarks\": [\"HPL\"],\n  \"cells\": {}\n}\n"))
	f.Add(v4[:len(v4)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			return
		}
		key := CellKey("fuzz", 1, "cyclic", "probe")
		n := j.Len()
		if _, had := j.Lookup(key); !had {
			n++
		}
		if err := j.Record(key, BenchmarkRun{Samples: 7}); err != nil {
			t.Fatal(err)
		}
		re, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("an opened journal became unreadable after one append: %v", err)
		}
		if re.Len() != n {
			t.Fatalf("reopened journal has %d cells, want %d", re.Len(), n)
		}
		if run, ok := re.Lookup(key); !ok || run.Samples != 7 {
			t.Fatalf("appended cell read back as %+v (found %v)", run, ok)
		}
	})
}
