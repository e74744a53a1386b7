package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmc/internal/cache"
	"dmc/internal/jobs"
	"dmc/internal/server"
	"dmc/internal/store"
)

// harness is one server instance as a deployment runs it: a durable
// store, a result cache and the job subsystem under one directory on
// the local disk (real fsync), the real server.Handler behind an
// http.Server on a loopback port, and the HTTP client the load
// generator drives it with.
type harness struct {
	tr     *tracer
	single bool // one caller at a time: HTTP spans become FS-span parents

	storeFS, cacheFS *fsProbe
	st               *store.Store
	rc               *cache.Cache
	srv              *server.Server
	hs               *http.Server
	served           chan error
	base             string
	client           *http.Client

	respBytes atomic.Int64

	mu      sync.Mutex
	jobRuns []jobTiming // traced runs only
}

// jobTiming is one job's lifecycle as the job record and the SSE feed
// report it, in nanoseconds on the process clock.
type jobTiming struct {
	created, started, finished, notified int64
}

// openHarness starts a server over a fresh directory. Datasets whose
// committed blob reaches streamMin bytes are served file-backed (0: all
// resident).
func openHarness(dir string, tr *tracer, single bool, streamMin int64) (*harness, error) {
	h := &harness{
		tr: tr, single: single,
		storeFS: newFSProbe("store", "CATALOG", tr),
		cacheFS: newFSProbe("cache", "CACHE", tr),
		served:  make(chan error, 1),
	}
	var err error
	if h.st, err = store.Open(filepath.Join(dir, "store"), store.Options{FS: h.storeFS}); err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	if h.rc, err = cache.Open(filepath.Join(dir, "cache"), cache.Options{FS: h.cacheFS}); err != nil {
		h.st.Close()
		return nil, fmt.Errorf("opening cache: %w", err)
	}
	h.srv = server.NewWith(server.Config{
		Store: h.st, Cache: h.rc,
		// Only errors reach stderr: a log line per request would put
		// the benchmark's own formatting into every measurement.
		Logger:             slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})),
		MaxConcurrentMines: runtime.GOMAXPROCS(0), // dmcserve's default
		StreamMinBytes:     streamMin,
	})
	h.srv.SetReady(false)
	if err := h.srv.LoadStore(); err != nil {
		h.closeStores()
		return nil, fmt.Errorf("loading store: %w", err)
	}
	if err := h.srv.OpenJobs(filepath.Join(dir, "jobs")); err != nil {
		h.closeStores()
		return nil, fmt.Errorf("opening jobs: %w", err)
	}
	h.srv.SetReady(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.CloseJobs()
		h.closeStores()
		return nil, err
	}
	h.hs = &http.Server{Handler: h.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { h.served <- h.hs.Serve(ln) }()
	h.base = "http://" + ln.Addr().String()
	h.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	return h, nil
}

func (h *harness) closeStores() {
	h.rc.Close()
	h.st.Close()
}

// close stops the HTTP server (waiting for in-flight requests), the job
// workers, the cache and the store.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	h.client.CloseIdleConnections()
	err = errors.Join(err, h.srv.CloseJobs(), h.rc.Close(), h.st.Close())
	return err
}

// call makes one HTTP request, recording a span named name, and returns
// the body when the status is want.
func (h *harness) call(name string, parent, op int64, method, path string, body []byte, want int) ([]byte, error) {
	var end func()
	if h.single {
		_, end = h.tr.enter(name, parent, op)
	} else {
		_, end = h.tr.span(name, parent, op)
	}
	defer end()
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	h.respBytes.Add(int64(len(b)))
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// jobRef names a finished job and when its terminal SSE event arrived.
type jobRef struct {
	id       string
	notified int64
}

// runJob submits a mine job, waits for its terminal SSE event (no
// polling) and fetches its result.
func (h *harness) runJob(parent, op int64, p jobs.Params) ([]byte, jobs.Event, jobRef, error) {
	req, err := json.Marshal(p)
	if err != nil {
		return nil, jobs.Event{}, jobRef{}, err
	}
	b, err := h.call("server.job_submit", parent, op, "POST", "/v1/jobs", req, http.StatusAccepted)
	if err != nil {
		return nil, jobs.Event{}, jobRef{}, err
	}
	var j jobs.Job
	if err := decodeInto("job submit", b, &j); err != nil {
		return nil, jobs.Event{}, jobRef{}, err
	}
	term, notified, err := h.waitJob(parent, op, j.ID)
	ref := jobRef{id: j.ID, notified: notified}
	if err != nil {
		return nil, term, ref, err
	}
	if term.State != jobs.StateDone {
		return nil, term, ref, fmt.Errorf("job %s ended %s: %s", j.ID, term.State, term.Error)
	}
	payload, err := h.call("server.job_result", parent, op, "GET", "/v1/jobs/"+j.ID+"/result", nil, http.StatusOK)
	return payload, term, ref, err
}

// waitJob reads the job's SSE feed until its terminal state event and
// returns it with its arrival time (Unix nanoseconds).
func (h *harness) waitJob(parent, op int64, id string) (jobs.Event, int64, error) {
	var end func()
	if h.single {
		_, end = h.tr.enter("server.job_events", parent, op)
	} else {
		_, end = h.tr.span("server.job_events", parent, op)
	}
	defer end()
	resp, err := h.client.Get(h.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobs.Event{}, 0, fmt.Errorf("job %s events: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Event{}, 0, fmt.Errorf("job %s events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return jobs.Event{}, 0, fmt.Errorf("job %s events: %w", id, err)
		}
		if ev.Type == jobs.EventState && ev.State.Terminal() {
			at := time.Now().UnixNano()
			// Drain the rest so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return ev, at, err
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Event{}, 0, fmt.Errorf("job %s events: %w", id, err)
	}
	return jobs.Event{}, 0, fmt.Errorf("job %s events: feed ended before a terminal state", id)
}

// recordJobs fetches the records of finished jobs and keeps their
// lifecycle timings (traced runs only; outside any op's latency).
func (h *harness) recordJobs(refs []jobRef) error {
	for _, r := range refs {
		b, err := h.call("server.job_get", 0, 0, "GET", "/v1/jobs/"+r.id, nil, http.StatusOK)
		if err != nil {
			return err
		}
		var j jobs.Job
		if err := decodeInto("job get", b, &j); err != nil {
			return err
		}
		h.mu.Lock()
		h.jobRuns = append(h.jobRuns, jobTiming{j.CreatedNS, j.StartedNS, j.FinishedNS, r.notified})
		h.mu.Unlock()
	}
	return nil
}
