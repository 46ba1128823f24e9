package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/live"
	"repro/internal/obs/ops"
)

// Server is the campaign daemon's HTTP surface:
//
//	POST   /jobs              submit a JobSpec, returns 202 + job status
//	GET    /jobs              list every job (submission order)
//	GET    /jobs/{id}         one job's status (state, progress, ETA, shards)
//	GET    /jobs/{id}/events  the job's live event stream as NDJSON
//	                          (flight-recorder replay, then live)
//	GET    /jobs/{id}/report  the job's run report (text)
//	DELETE /jobs/{id}         cancel (queued: immediate; running: next cell
//	                          boundary + flight-recorder dump)
//	GET    /metrics           Prometheus text: jobs by state, queue depth,
//	                          per-job cell throughput and event drops —
//	                          plus the ops plane's route/tenant/queue/
//	                          runtime series when ops is enabled
//	GET    /statusz           aggregate operational snapshot as JSON
//	                          (uptime, per-route latency, tenants, queue,
//	                          runtime health, jobs by state)
//	GET    /healthz           liveness probe; ?verbose=1 returns JSON with
//	                          queue depth, slot use and accepting state
//	GET    /buildinfo         Go/module build information as JSON
//	/debug/pprof/...          profiling, only with ServerConfig.Pprof
type Server struct {
	m     *Manager
	log   *slog.Logger
	ln    net.Listener
	srv   *http.Server
	ops   *ops.Telemetry
	start time.Time

	shutdown chan struct{}

	mu        sync.Mutex // guards closing
	closing   bool
	streams   sync.WaitGroup // open /jobs/{id}/events handlers
	closeOnce sync.Once
}

// ServerConfig configures a campaign server.
type ServerConfig struct {
	// Addr is the listen address (":0" picks an ephemeral port).
	Addr string
	// Manager is the job table the server fronts (required).
	Manager *Manager
	// Logger receives structured request/lifecycle records (default:
	// the manager's logger).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Ops, when non-nil, wraps every route in request instrumentation
	// (counts, status codes, in-flight, latency, per-tenant) and enables
	// the ops sections of /metrics and /statusz. Typically the same
	// bundle handed to the manager.
	Ops *ops.Telemetry
}

// NewServer starts serving and returns once the listener is bound, so
// Addr is immediately valid.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Manager == nil {
		return nil, fmt.Errorf("campaign: server needs a manager")
	}
	log := cfg.Logger
	if log == nil {
		log = cfg.Manager.log
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("campaign: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{m: cfg.Manager, log: log, ln: ln, ops: cfg.Ops,
		start: time.Now(), shutdown: make(chan struct{})}
	mux := http.NewServeMux()
	// Each route is wrapped in the ops middleware under its mux pattern —
	// a bounded label set, never the raw URL. On a nil ops bundle the
	// wrapper is the identity, so registration has no enabled/disabled
	// branch. (Go 1.22 has no Request.Pattern, hence the explicit label.)
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, cfg.Ops.HTTP().Handler(pattern, h))
	}
	handle("GET /{$}", s.handleIndex)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /buildinfo", s.handleBuildinfo)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /statusz", s.handleStatusz)
	handle("POST /jobs", s.handleSubmit)
	handle("GET /jobs", s.handleList)
	handle("GET /jobs/{id}", s.handleGet)
	handle("GET /jobs/{id}/events", s.handleEvents)
	handle("GET /jobs/{id}/report", s.handleReport)
	handle("DELETE /jobs/{id}", s.handleCancel)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// readHeaderTimeout and idleTimeout bound slow and idle clients. There is
// no write timeout: a job's event stream stays open for its whole run.
var readHeaderTimeout, idleTimeout = 10 * time.Second, 2 * time.Minute

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// trackStream registers an open event stream with the close
// bookkeeping; see live.Server for the pattern. It refuses once Close
// has begun, and otherwise the handler owes a streams.Done().
func (s *Server) trackStream() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.streams.Add(1)
	return true
}

// Close stops the server, ends open event streams, and waits for their
// handlers to return. Safe to call more than once. It does not touch
// the manager — jobs keep running until Manager.Close.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		s.mu.Unlock()
		close(s.shutdown)
		err = s.srv.Close()
		s.streams.Wait()
	})
	return err
}

// errorBody is every non-2xx response: a message for humans and a
// stable reason for machines.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q,"reason":"internal"}`+"\n", err.Error())
		return
	}
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, reason, msg string) {
	writeJSON(w, code, errorBody{Error: msg, Reason: reason})
}

// writeSpecError maps a *SpecError to its HTTP status.
func writeSpecError(w http.ResponseWriter, err error) {
	var se *SpecError
	if !errors.As(err, &se) {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	code := http.StatusBadRequest
	switch se.Reason {
	case ReasonJobNotFound:
		code = http.StatusNotFound
	case ReasonJobFinished:
		code = http.StatusConflict
	case ReasonQueueFull:
		code = http.StatusTooManyRequests
	case ReasonShuttingDown:
		code = http.StatusServiceUnavailable
	}
	writeError(w, code, se.Reason, se.Error())
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `greenbench campaign server

POST   /jobs              submit a job spec (JSON)
GET    /jobs              list jobs
GET    /jobs/{id}         job status
GET    /jobs/{id}/events  job event stream (NDJSON)
GET    /jobs/{id}/report  job run report (text)
DELETE /jobs/{id}         cancel a job
GET    /metrics           Prometheus exposition
GET    /statusz           operational snapshot (JSON)
GET    /healthz           liveness probe (?verbose=1 for JSON detail)
GET    /buildinfo         build information (JSON)
`)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("verbose") == "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	depth, running := s.m.QueueDepth(), s.m.Running()
	slots, maxQueued := s.m.Slots(), s.m.MaxQueued()
	writeJSON(w, http.StatusOK, struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
		Slots      int    `json:"slots"`
		SlotsInUse int    `json:"slots_in_use"`
		MaxQueued  int    `json:"max_queued"`
		// Accepting: a new submission would be admitted rather than
		// rejected with ReasonQueueFull. Saturated: every concurrency
		// slot is busy, so an admitted job would queue.
		Accepting bool `json:"accepting"`
		Saturated bool `json:"saturated"`
	}{
		Status: "ok", QueueDepth: depth, Slots: slots, SlotsInUse: running,
		MaxQueued: maxQueued, Accepting: depth < maxQueued, Saturated: running >= slots,
	})
}

// handleStatusz aggregates the operational picture in one JSON
// document: job counts, queue state, and — when the ops plane is on —
// per-route HTTP stats, tenants, queue histograms and the latest
// runtime self-sample.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	byState := map[string]int{}
	for _, j := range s.m.Jobs() {
		byState[string(j.State())]++
	}
	writeJSON(w, http.StatusOK, struct {
		Now           time.Time        `json:"now"`
		UptimeSeconds float64          `json:"uptime_seconds"`
		JobsByState   map[string]int   `json:"jobs_by_state"`
		QueueDepth    int              `json:"queue_depth"`
		Ops           *ops.StatuszSnap `json:"ops,omitempty"`
		OpsEnabled    bool             `json:"ops_enabled"`
	}{
		Now:           now,
		UptimeSeconds: now.Sub(s.start).Seconds(),
		JobsByState:   byState,
		QueueDepth:    s.m.QueueDepth(),
		Ops:           s.ops.Statusz(now),
		OpsEnabled:    s.ops != nil,
	})
}

func (s *Server) handleBuildinfo(w http.ResponseWriter, _ *http.Request) {
	type module struct {
		Path    string `json:"path"`
		Version string `json:"version,omitempty"`
	}
	out := struct {
		GoVersion string            `json:"go_version"`
		Main      module            `json:"main"`
		Settings  map[string]string `json:"settings,omitempty"`
	}{}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out.GoVersion = bi.GoVersion
		out.Main = module{Path: bi.Main.Path, Version: bi.Main.Version}
		out.Settings = map[string]string{}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified", "GOOS", "GOARCH":
				out.Settings[kv.Key] = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// maxSpecBytes bounds a POST /jobs body; a job spec is small by
// construction, and the cap keeps a misdirected upload from ballooning
// the daemon.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadJSON, "reading body: "+err.Error())
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, ReasonBadSpec,
			fmt.Sprintf("job spec exceeds %d bytes", maxSpecBytes))
		return
	}
	var js JobSpec
	if err := json.Unmarshal(body, &js); err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadJSON, "parsing job spec: "+err.Error())
		return
	}
	j, err := s.m.Submit(js)
	if err != nil {
		writeSpecError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.m.Jobs()
	out := struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: make([]Status, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, ReasonJobNotFound, fmt.Sprintf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		writeSpecError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	b, err := os.ReadFile(filepath.Join(j.Dir(), ReportFile))
	if err != nil {
		writeError(w, http.StatusNotFound, ReasonReportNotReady,
			fmt.Sprintf("job %s has no report yet (state %s)", j.ID(), j.State()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(b)
}

// handleEvents streams one job's live events as NDJSON: first the
// flight recorder's retained prefix, then the live feed. Subscribing
// before snapshotting the ring and deduplicating on sequence number
// guarantees no event is skipped or repeated across the seam. The
// stream ends when the client goes away, the server closes, or the job
// reaches a terminal state (after draining what is buffered).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if !s.trackStream() {
		writeError(w, http.StatusServiceUnavailable, ReasonShuttingDown, "server shutting down")
		return
	}
	defer s.streams.Done()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()

	sub := j.Hub().Bus().Subscribe(256)
	defer sub.Close()
	var last uint64
	for _, e := range j.Hub().FlightEvents() {
		if live.WriteEventNDJSON(w, e) != nil {
			return
		}
		last = e.Seq
	}
	flush()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case e := <-sub.Events():
			if e.Seq <= last {
				continue // already replayed from the flight ring
			}
			if live.WriteEventNDJSON(w, e) != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			return
		case <-j.Done():
			// Terminal: drain what is buffered, then end the stream so
			// curl-style consumers terminate naturally.
			for {
				select {
				case e := <-sub.Events():
					if e.Seq <= last {
						continue
					}
					if live.WriteEventNDJSON(w, e) != nil {
						return
					}
				default:
					flush()
					return
				}
			}
		case <-tick.C:
		}
	}
}

// handleMetrics renders the server-level Prometheus exposition: job
// counts by state, queue depth, and per-job cell/event counters. Jobs
// iterate in submission order and states in lifecycle order, so the
// exposition is stable run to run.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	jobs := s.m.Jobs()
	byState := map[State]int{}
	for _, j := range jobs {
		byState[j.State()]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE campaign_jobs gauge\n")
	for _, st := range States() {
		fmt.Fprintf(&b, "campaign_jobs{state=%q} %d\n", st, byState[st])
	}
	fmt.Fprintf(&b, "# TYPE campaign_queue_depth gauge\ncampaign_queue_depth %d\n", s.m.QueueDepth())
	fmt.Fprintf(&b, "# TYPE campaign_jobs_total counter\ncampaign_jobs_total %d\n", len(jobs))
	fmt.Fprintf(&b, "# TYPE campaign_job_cells_total gauge\n")
	fmt.Fprintf(&b, "# TYPE campaign_job_cells_done gauge\n")
	fmt.Fprintf(&b, "# TYPE campaign_job_events_published gauge\n")
	fmt.Fprintf(&b, "# TYPE campaign_job_events_dropped gauge\n")
	var dropped uint64
	for _, j := range jobs {
		p := j.Hub().Progress()
		id := j.ID()
		fmt.Fprintf(&b, "campaign_job_cells_total{job=%q} %d\n", id, p.CellsTotal)
		fmt.Fprintf(&b, "campaign_job_cells_done{job=%q} %d\n", id, p.CellsDone)
		fmt.Fprintf(&b, "campaign_job_events_published{job=%q} %d\n", id, p.EventsPublished)
		fmt.Fprintf(&b, "campaign_job_events_dropped{job=%q} %d\n", id, p.EventsDropped)
		dropped += p.EventsDropped
	}
	fmt.Fprintf(&b, "# TYPE campaign_events_dropped_total counter\ncampaign_events_dropped_total %d\n", dropped)
	io.WriteString(w, b.String())
	// The ops plane appends its route/tenant/queue/runtime series; a nil
	// bundle appends nothing.
	ops.WritePrometheus(w, s.ops)
}
