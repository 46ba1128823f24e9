package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Server exposes a hub over HTTP:
//
//	/metrics   Prometheus text exposition of the registry snapshot plus
//	           live_* progress gauges
//	/progress  the current ProgressSnapshot as JSON
//	/events    the live event stream as NDJSON (connection stays open)
//	/          a plain-text index
//
// The snapshot callback supplies the registry view for /metrics; it runs
// per request, so the exposition always reflects the pipeline's current
// counters without the server holding any registry reference of its own.
type Server struct {
	hub      *Hub
	snapshot func() obs.Snapshot
	ln       net.Listener
	srv      *http.Server
	shutdown chan struct{}

	mu        sync.Mutex // guards closing
	closing   bool
	streams   sync.WaitGroup // open /events handlers
	closeOnce sync.Once
}

// trackStream registers an open /events handler with the close
// bookkeeping. It refuses (false) once Close has begun — the handler
// must not start streaming — and otherwise the handler owes a
// streams.Done(). The closing flag and the WaitGroup share a mutex so a
// handler can never Add after Close's Wait has started.
func (s *Server) trackStream() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.streams.Add(1)
	return true
}

// NewServer starts serving on addr (":0" picks an ephemeral port) and
// returns once the listener is bound, so Addr() is immediately valid.
func NewServer(addr string, hub *Hub, snapshot func() obs.Snapshot) (*Server, error) {
	if snapshot == nil {
		snapshot = func() obs.Snapshot { return obs.Snapshot{} }
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	s := &Server{hub: hub, snapshot: snapshot, ln: ln, shutdown: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/events", s.handleEvents)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// readHeaderTimeout and idleTimeout bound slow and idle clients. There is
// no write timeout: an /events stream stays open for the whole campaign.
var readHeaderTimeout, idleTimeout = 10 * time.Second, 2 * time.Minute

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, ends any open /events streams, and waits for
// their handlers to return — after Close no server goroutine survives.
// Safe to call more than once.
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

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "greenbench live telemetry\n\n/metrics   Prometheus exposition\n/progress  progress snapshot (JSON)\n/events    event stream (NDJSON)\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, s.snapshot(), s.hub.Progress())
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(s.hub.Progress(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	_, _ = w.Write(b)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	bus := s.hub.Bus()
	if bus == nil {
		http.Error(w, "no live hub", http.StatusServiceUnavailable)
		return
	}
	if !s.trackStream() {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	defer s.streams.Done()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	sub := bus.Subscribe(256)
	defer sub.Close()
	// Periodic ticks bound how long a shutdown waits for an idle stream.
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case e := <-sub.Events():
			if WriteEventNDJSON(w, e) != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			return
		case <-tick.C:
		}
	}
}
