package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// options are greenperf's command-line settings.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	root       string // work directory root, a private tmpfs when available
	dir        string // this workload's work directory under root
	spans      string // directory the traced run writes its spans to
	greenbench string // greenbench binary (sweep-journal's traced run)
	corrupt    bool   // corrupt the first reference (self-test of the check)
	cold       bool   // child mode: time one cold campaign and exit
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenperf:", err)
		os.Exit(2)
	}
	if o.cold {
		secs, err := runCold(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenperf:", err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(secs, 'g', -1, 64))
		return
	}
	// Campaign output goes to a private memory-backed directory inside
	// the work root, so the shared disk's fsync latency stays out of the
	// figures. A run on disk would not be comparable with one on tmpfs,
	// so without the tmpfs there is no run.
	if !inPrivateNamespace() {
		code, err := runPrivate()
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenperf: no private tmpfs:", err)
			os.Exit(1)
		}
		os.Exit(code)
	}
	if err := mountTmpfs(o.root); err != nil {
		fmt.Fprintln(os.Stderr, "greenperf: no private tmpfs:", err)
		os.Exit(1)
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenperf:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("greenperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's campaign pool is drawn from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "1: the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.root, "dir", filepath.Join(".bench_build", "work"), "work directory for campaign output")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	fs.StringVar(&o.greenbench, "greenbench", filepath.Join(".bench_build", "bin", "greenbench"), "greenbench binary sweep-journal's traced run execs")
	fs.BoolVar(&o.corrupt, "corrupt-reference", false, "corrupt one reference result (shows that the correctness check trips)")
	fs.BoolVar(&o.cold, "cold", false, "internal: time one cold campaign in this fresh process and print its seconds")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		return o, err
	}
	o.dir = filepath.Join(o.root, o.workload)
	if o.workload == wSweepJournal {
		if o.greenbench, err = filepath.Abs(o.greenbench); err != nil {
			return o, err
		}
	}
	return o, nil
}

// run performs one benchmark run: the references, then either the
// timed end-to-end measurement, set-ups included, or the traced
// per-layer run.
func run(o options, logw io.Writer) (*result, error) {
	if err := os.RemoveAll(o.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	// Campaign output is throwaway: nothing of it outlives the run.
	defer os.RemoveAll(o.dir)
	h := &harness{o: o, pool: buildPool(o.workload, o.seed), logw: logw}
	defer h.close()
	if err := computeReferences(h.pool, o.dir, o.corrupt); err != nil {
		return nil, err
	}
	if o.trace {
		return h.traced()
	}
	ph, err := h.phase(time.Duration(o.seconds*float64(time.Second)), nil, setupRepeats)
	if err != nil {
		return nil, err
	}
	lat := ph.latencies()
	m := map[string]metric{
		"campaign_ms_p10": {quantile(lat, 0.1), "ms"},
		"peak_rss_mb":     {h.peakRSSMB(), "MB"},
		"setup_s":         {quantile(h.setups, 0.5), "s"},
	}
	return ph.result(m), nil
}

// logf writes a progress line to stderr (the last stdout line is the
// result).
func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.logw, "greenperf: "+format+"\n", args...)
}
