package suite

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strings"
	"sync"

	"repro/internal/obs"
)

// journalVersion is the on-disk format: a header line, then one compact
// JSON line per checkpointed cell. Traces are stored in cell-relative
// virtual time, so a journal is scheduler-invariant: a sweep
// checkpointed sequentially resumes under the parallel scheduler and
// vice versa.
const journalVersion = 4

// Journal checkpoints completed (system, procs, placement, benchmark)
// cells of a sweep to a file, so an interrupted campaign resumes where
// it stopped instead of re-simulating finished work. Every cell is an
// independent, deterministically-seeded computation, so a resumed
// sweep's output is bit-for-bit the uninterrupted one.
//
// When the campaign is traced, each cell also checkpoints the spans and
// events it emitted (in cell-relative time); a resumed sweep replays
// them into the live tracer at the cell's origin, so the final trace
// file covers the whole campaign, not just the cells executed after the
// restart.
//
// The file is append-only. Its first line is the header
// {"version":4,"benchmarks":[…]}, written together with the first
// cell; every later line is one cell, {"key":…,"run":…,"trace":…}, and
// the last line for a key wins. Each Record (and each Flush of staged
// cells) opens the file with O_APPEND, writes, fsyncs and closes it, so
// no file handle outlives a call. A writer killed mid-append leaves at
// most a torn last line, which OpenJournal truncates away.
//
// All methods are safe for concurrent use — the parallel sweep scheduler
// checkpoints cells from several goroutines.
type Journal struct {
	path string

	mu         sync.Mutex
	cells      map[string]BenchmarkRun
	traces     map[string]CellTrace
	benchmarks []string
	// headed reports that the file starts with a header line; the first
	// append to a journal without one writes it.
	headed bool
	// staged lists the cells Stage queued for the next Flush.
	staged []string
}

// CellTrace is the observability stream one journaled cell produced,
// in cell-relative virtual time. Ops is the cell's metric-update log;
// replaying it on resume rebuilds the campaign registry bit-for-bit, so
// a resumed campaign's metrics file is byte-identical to the
// uninterrupted one.
type CellTrace struct {
	Spans  []obs.Span     `json:"spans,omitempty"`
	Events []obs.Event    `json:"events,omitempty"`
	Ops    []obs.MetricOp `json:"ops,omitempty"`
}

func (tr CellTrace) empty() bool {
	return len(tr.Spans) == 0 && len(tr.Events) == 0 && len(tr.Ops) == 0
}

// journalHeader is the journal's first line.
type journalHeader struct {
	Version    int      `json:"version"`
	Benchmarks []string `json:"benchmarks"`
}

// journalRecord is one cell line.
type journalRecord struct {
	Key   string       `json:"key"`
	Run   BenchmarkRun `json:"run"`
	Trace *CellTrace   `json:"trace,omitempty"`
}

// CellKey names one benchmark of one sweep point.
func CellKey(system string, procs int, placement, bench string) string {
	return fmt.Sprintf("%s|%d|%s|%s", system, procs, placement, bench)
}

// OpenJournal loads the journal at path, or starts an empty one when the
// file does not exist yet. Reading stops at the first incomplete or
// undecodable line — the torn tail of a killed writer — and the file is
// truncated there, so the next append starts on a line boundary. A file
// whose first complete line is not a v4 header is refused.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, cells: map[string]BenchmarkRun{}, traces: map[string]CellTrace{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return j, nil
	}
	if err != nil {
		return nil, err
	}
	off := 0 // end of the accepted prefix
	for n := bytes.IndexByte(b, '\n'); n >= 0; n = bytes.IndexByte(b[off:], '\n') {
		line := b[off : off+n]
		if !j.headed {
			if err := j.readHeader(line); err != nil {
				return nil, err
			}
		} else if !j.apply(line) {
			break
		}
		off += n + 1
	}
	if off < len(b) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// readHeader accepts the journal's first line.
func (j *Journal) readHeader(line []byte) error {
	if strings.TrimSpace(string(line)) == "{" {
		// v1–v3 journals were one indented JSON object.
		return fmt.Errorf("suite: journal %s was written by an older greenbench (pre-v%d format); delete it to start over", j.path, journalVersion)
	}
	var h journalHeader
	if err := json.Unmarshal(line, &h); err != nil || h.Version != journalVersion {
		return fmt.Errorf("suite: journal %s is corrupt (first line is not a v%d journal header); delete it to start over", j.path, journalVersion)
	}
	j.benchmarks = h.Benchmarks
	j.headed = true
	return nil
}

// apply loads one cell line, reporting false when it does not decode.
func (j *Journal) apply(line []byte) bool {
	var rec journalRecord
	if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
		return false
	}
	j.cells[rec.Key] = rec.Run
	if rec.Trace != nil && !rec.Trace.empty() {
		j.traces[rec.Key] = *rec.Trace
	} else {
		delete(j.traces, rec.Key)
	}
	return true
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of checkpointed cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// Bind ties the journal to the sweep's ordered benchmark list. A fresh
// journal records the list in its header; an existing one refuses a
// differing list — resuming a journal under a different suite
// composition would silently mix incomparable measurements.
func (j *Journal) Bind(benchmarks []string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.benchmarks == nil {
		j.benchmarks = append([]string(nil), benchmarks...)
		return nil
	}
	if slices.Equal(j.benchmarks, benchmarks) {
		return nil
	}
	return fmt.Errorf("suite: journal %s was written for benchmarks [%s], but this sweep runs [%s]; finish it with the original set, or delete the journal to start over",
		j.path, strings.Join(j.benchmarks, " "), strings.Join(benchmarks, " "))
}

// Lookup returns the checkpointed run for a cell, if present.
func (j *Journal) Lookup(key string) (BenchmarkRun, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	run, ok := j.cells[key]
	return run, ok
}

// LookupTrace returns the observability stream checkpointed for a cell.
// Cells recorded untraced have none.
func (j *Journal) LookupTrace(key string) (CellTrace, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	tr, ok := j.traces[key]
	return tr, ok
}

// SetTrace stages a cell's observability stream (cell-relative time)
// without persisting; the next Record writes it together with the cell.
// Call it right before Record so a crash between the two cannot strand a
// trace.
func (j *Journal) SetTrace(key string, tr CellTrace) {
	if tr.empty() {
		return
	}
	j.mu.Lock()
	j.traces[key] = tr
	j.mu.Unlock()
}

// Record checkpoints one cell by appending its line to the file.
func (j *Journal) Record(key string, run BenchmarkRun) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells[key] = run
	return j.appendLocked([]string{key})
}

// Stage records a cell (and its trace, if any) without persisting — the
// bulk-loading counterpart of SetTrace+Record for merging shard journal
// segments, where one Flush at the end beats an append per cell. An
// empty trace clears the cell's previous one.
func (j *Journal) Stage(key string, run BenchmarkRun, tr CellTrace) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells[key] = run
	if !tr.empty() {
		j.traces[key] = tr
	} else {
		delete(j.traces, key)
	}
	j.staged = append(j.staged, key)
}

// Flush appends the cells staged since the last Flush in one write.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.staged) == 0 {
		return nil
	}
	err := j.appendLocked(j.staged)
	if err == nil {
		j.staged = nil
	}
	return err
}

// Remove deletes the journal file (after a sweep completes and its final
// output is safely written).
func (j *Journal) Remove() error {
	j.mu.Lock()
	j.headed = false
	j.mu.Unlock()
	err := os.Remove(j.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// appendLocked writes the lines of the given cells — preceded by the
// header when the file has none yet — in one O_APPEND write, fsyncs and
// closes the file; j.mu must be held.
func (j *Journal) appendLocked(keys []string) error {
	var buf []byte
	if !j.headed {
		h, err := json.Marshal(journalHeader{Version: journalVersion, Benchmarks: j.benchmarks})
		if err != nil {
			return err
		}
		buf = append(h, '\n')
	}
	for _, key := range keys {
		rec := journalRecord{Key: key, Run: j.cells[key]}
		if tr, ok := j.traces[key]; ok {
			rec.Trace = &tr
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf = append(append(buf, line...), '\n')
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	j.headed = true
	return nil
}
