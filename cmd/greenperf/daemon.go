package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs/ops"
)

// tenants is the daemon workload's closed-loop client count, equal to
// the server's MaxConcurrent and to the host's two vCPUs.
const tenants = 2

// daemon is an in-process campaign server with the daemon's defaults:
// ops plane on, MaxConcurrent 2, loopback HTTP.
type daemon struct {
	tel    *ops.Telemetry
	mgr    *campaign.Manager
	srv    *campaign.Server
	base   string
	client *http.Client
}

// startDaemon starts a server over dir and returns once GET /healthz
// answers, with the seconds that took.
func startDaemon(dir string) (*daemon, float64, error) {
	start := time.Now()
	tel := ops.New()
	tel.StartRuntimeSampler(10*time.Second, func(ops.RuntimeSample) {})
	mgr, err := campaign.NewManager(campaign.ManagerConfig{Dir: dir, MaxConcurrent: tenants, Ops: tel})
	if err != nil {
		tel.Close()
		return nil, 0, err
	}
	srv, err := campaign.NewServer(campaign.ServerConfig{Addr: "127.0.0.1:0", Manager: mgr, Ops: tel})
	if err != nil {
		mgr.Close()
		tel.Close()
		return nil, 0, err
	}
	d := &daemon{tel: tel, mgr: mgr, srv: srv, base: "http://" + srv.Addr(),
		client: &http.Client{Timeout: time.Minute}}
	for {
		if code, _, err := d.get("/healthz"); err == nil && code == http.StatusOK {
			break
		}
		if time.Since(start) > 10*time.Second {
			d.close()
			return nil, 0, fmt.Errorf("daemon did not answer /healthz within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start).Seconds(), nil
}

// close shuts the server, then the manager, then the ops plane down, and
// drops idle client connections.
func (d *daemon) close() {
	d.srv.Close()
	d.mgr.Close()
	d.tel.Close()
	d.client.CloseIdleConnections()
}

// get issues a GET and returns the status code and body.
func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runTenants runs the closed-loop clients until the daemon has served
// jobsPerDaemon jobs or the deadline passes, and adds every job they ran
// to ps. The tenants draw their jobs from one sequence, so each daemon
// serves the pool in order, jobsPerDaemon/len(pool) times.
func (d *daemon) runTenants(h *harness, deadline time.Time, tr *tracer, ps *phaseStats) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	errs := make([]error, tenants)
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			name := "tenant-" + strconv.Itoa(t)
			for time.Now().Before(deadline) {
				mu.Lock()
				n := next
				next++
				mu.Unlock()
				if n >= jobsPerDaemon {
					return
				}
				c, err := d.job(h, h.pool[n%len(h.pool)], name, n%10 == 9, tr)
				if err != nil {
					errs[t] = err
					return
				}
				mu.Lock()
				ps.add(c)
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// job runs one client iteration: submit, stream the job's events to
// EOF (its terminal state), fetch its status, check its results.json
// against the reference, and — when scrape is set — read /metrics and
// /statusz. The campaign's time runs from submit to stream EOF.
func (d *daemon) job(h *harness, s *spec, tenant string, scrape bool, tr *tracer) (outcome, error) {
	h.countReuse(s)
	body, err := json.Marshal(s.jobSpec(tenant))
	if err != nil {
		return outcome{}, err
	}
	root := tr.begin("campaign", -1)
	tr.tag(root, s.index)
	start := time.Now()
	sub := tr.begin("campaign.submit", root)
	req, err := http.NewRequest(http.MethodPost, d.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	req.Header.Set(ops.TenantHeader, tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return outcome{}, err
	}
	var st campaign.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.end(sub)
	c := outcome{spec: s}
	if err != nil || resp.StatusCode != http.StatusAccepted {
		h.logf("%s: POST /jobs answered %d (%v)", tenant, resp.StatusCode, err)
		c.ms = msSince(start)
		tr.end(root)
		return c, nil
	}
	ev := tr.begin("campaign.stream", root)
	resp, err = d.client.Get(d.base + "/jobs/" + st.ID + "/events")
	if err != nil {
		return outcome{}, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{}, err
	}
	tr.end(ev)
	c.ms = msSince(start)
	tr.end(root)

	stSpan := tr.begin("campaign.status", -1)
	code, b, err := d.get("/jobs/" + st.ID)
	tr.end(stSpan)
	if err != nil {
		return outcome{}, err
	}
	if code != http.StatusOK {
		h.logf("%s: GET /jobs/%s answered %d", tenant, st.ID, code)
		return c, nil
	}
	st = campaign.Status{}
	if err := json.Unmarshal(b, &st); err != nil {
		return outcome{}, err
	}
	c.job = &st
	c.ok = st.State == campaign.StateDone && sameFile(filepath.Join(st.Dir, campaign.ResultsFile), s.ref)
	if !c.ok {
		h.logf("%s: job %s ended %s (%s), or its results differ from the reference", tenant, st.ID, st.State, st.Error)
	}
	// The job's artefacts are checked; dropping them keeps the run's
	// disk footprint flat. The job table itself keeps the entry.
	if err := os.RemoveAll(st.Dir); err != nil {
		return outcome{}, err
	}
	if scrape {
		for _, path := range []string{"/metrics", "/statusz"} {
			sp := tr.begin("campaign.scrape", -1)
			code, _, err := d.get(path)
			tr.end(sp)
			if err != nil {
				return outcome{}, err
			}
			if code != http.StatusOK {
				return outcome{}, fmt.Errorf("GET %s answered %d", path, code)
			}
		}
	}
	return c, nil
}
