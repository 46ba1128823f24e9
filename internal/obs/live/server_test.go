package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func startTestServer(t *testing.T) (*Server, *Hub, *obs.Registry) {
	t.Helper()
	hub := NewHub()
	reg := obs.NewRegistry()
	srv, err := NewServer("127.0.0.1:0", hub, reg.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, hub, reg
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestServerProgressEndpoint(t *testing.T) {
	srv, hub, _ := startTestServer(t)
	hub.SweepStarted(6, 3)
	tok := hub.CellStarted(2)
	hub.CellFinished(tok, 1, true)

	code, body := get(t, "http://"+srv.Addr()+"/progress")
	if code != http.StatusOK {
		t.Fatalf("GET /progress: %d", code)
	}
	var p ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, body)
	}
	if p.CellsTotal != 6 || p.CellsDone != 1 || p.DegradedCells != 1 || p.Workers != 3 {
		t.Fatalf("progress = %+v", p)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	srv, hub, reg := startTestServer(t)
	reg.Add("suite.runs", 2)
	reg.Observe("suite.attempt_seconds", 1.5)
	hub.SweepStarted(4, 2)

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	for _, want := range []string{"suite_runs 2", "suite_attempt_seconds_count 1", "live_cells_total 4"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

func TestServerIndexAndNotFound(t *testing.T) {
	srv, _, _ := startTestServer(t)
	if code, body := get(t, "http://"+srv.Addr()+"/"); code != http.StatusOK || !strings.Contains(body, "/progress") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, _ := get(t, "http://"+srv.Addr()+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}
}

func TestServerEventsStream(t *testing.T) {
	srv, hub, _ := startTestServer(t)
	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	// Publish after the stream is attached; events should arrive as
	// complete JSON lines.
	go func() {
		for i := 0; i < 3; i++ {
			hub.SweepStarted(1, 1)
			time.Sleep(10 * time.Millisecond)
		}
	}()

	type line struct {
		ok  bool
		ev  Event
		err error
	}
	lines := make(chan line, 8)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e Event
			err := json.Unmarshal(sc.Bytes(), &e)
			lines <- line{ok: err == nil, ev: e, err: err}
		}
	}()
	for i := 0; i < 3; i++ {
		select {
		case l := <-lines:
			if !l.ok {
				t.Fatalf("stream line %d not JSON: %v", i, l.err)
			}
			if l.ev.Kind != KindSweepStarted {
				t.Fatalf("stream line %d kind = %v", i, l.ev.Kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 3 events streamed", i)
		}
	}
}

func TestServerCloseEndsEventStream(t *testing.T) {
	hub := NewHub()
	srv, err := NewServer("127.0.0.1:0", hub, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/events", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		close(done)
	}()
	srv.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("event stream did not end on server close")
	}
}

func TestServerDropsSlowHeaderClient(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	srv, _, _ := startTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a request and never finish its headers.
	if _, err := io.WriteString(conn, "GET /progress HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a slow-header connection open: %v", err)
	}
}
