package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dmc/internal/cache"
	"dmc/internal/core"
	"dmc/internal/jobs"
	"dmc/internal/matrix"
	"dmc/internal/rules"
	"dmc/internal/server"
	"dmc/internal/store"
	"dmc/internal/stream"
)

// The traced run. It sets up once with tracing on, measures half the
// window untraced and half traced (their p50 difference is the tracing
// overhead), then runs a short layer sweep over HTTP and the direct
// layer calls, all traced, and reports the per-layer metrics.

const (
	// The layer sweep: a small resident probe dataset taken from the
	// workload's own matrix makes one call of every server endpoint kind
	// on every workload, so each server.* metric is measured everywhere.
	sweepReps       = 3
	probeRows       = 128
	probeAppendRows = 64
	sweepTagBase    = 1 << 20 // above any op tag a window reaches
	// directReps is how many times each direct layer call runs.
	directReps = 5
	// cacheKeys and cacheGets size the direct cache calls.
	cacheKeys = 64
	cacheGets = 1000 // per goroutine, 2 goroutines
)

func tracedRun(cfg config, w *workload, in *inputs, dir string, rec *runRecord) (*result, error) {
	tr := newTracer()
	h, err := openHarness(filepath.Join(dir, "traced"), tr, w.clients == 1, w.streamMin)
	if err != nil {
		return nil, err
	}
	if err := w.setup(h, in); err != nil {
		h.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	half := time.Duration(cfg.seconds) * time.Second / 2
	next := make([]int, w.clients)
	tr.on.Store(false)
	off := measure(h, w, in, half, next)
	tr.on.Store(true)
	on := measure(h, w, in, half, next)
	sw := sweep(h, w, in)
	jobErr := h.recordJobs(append(on.jobs, sw.jobs...))
	if err := h.close(); err != nil {
		return nil, err
	}
	if jobErr != nil {
		return nil, jobErr
	}
	direct, err := directCalls(w, in, filepath.Join(dir, "direct"), tr)
	if err != nil {
		return nil, err
	}
	want, err := w.expect(in)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	failed := off.failures(want) + on.failures(want) + sw.failed
	attempted := off.attempted + on.attempted + sw.attempted
	if on.attempted == 0 || off.attempted == 0 {
		return nil, errNoOps
	}
	spanPath := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.writeFile(spanPath); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", spanPath)

	m := layerMetrics(tr.snapshot(), h, on, off, direct)
	rec.StealPct = stealPct(on.before.host, on.after.host)
	rec.StolenPct = 100 * on.stolen
	rec.Samples = len(on.lat)
	rec.TailPct = tailPercentile(len(on.lat))
	rec.Attempted, rec.Failed = attempted, failed
	rec.Errors = append(append(append(rec.Errors, off.errs...), on.errs...), sw.errs...)
	rec.Metrics = values(m)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// sweepResult is the outcome of the layer sweep.
type sweepResult struct {
	attempted, failed int
	jobs              []jobRef
	errs              []string
}

// sweep makes sweepReps passes of every endpoint kind over a small
// resident probe dataset: upload, cold imp, cached imp, cold sim,
// append, incremental imp, an imp job, delete. It checks statuses and
// that the repeat and the post-append mines come from the cache and the
// snapshot.
func sweep(h *harness, w *workload, in *inputs) sweepResult {
	probe := renderBody(in.m, in.names, 0, probeRows)
	extra := renderBody(in.m, in.names, probeRows, probeRows+probeAppendRows)
	imp := fmt.Sprintf("/implications?threshold=%d&limit=%d", w.impPct, ingestLimit)
	sim := fmt.Sprintf("/similarities?threshold=%d&limit=%d", w.simPct, ingestLimit)
	var res sweepResult
	for r := 0; r < sweepReps; r++ {
		n := sweepTagBase + r
		probe.retag(n)
		extra.retag(n)
		name := "probe-" + tagString(n)
		ds := "/v1/datasets/" + name
		res.attempted++
		err := func() error {
			if _, err := h.call("server.put", 0, 0, "PUT", ds, probe.buf, http.StatusCreated); err != nil {
				return err
			}
			if _, err := h.call("server.imp_cold", 0, 0, "GET", ds+imp, nil, http.StatusOK); err != nil {
				return err
			}
			if err := wantSource(h, "server.hit", ds+imp, "cache"); err != nil {
				return err
			}
			if _, err := h.call("server.sim_cold", 0, 0, "GET", ds+sim, nil, http.StatusOK); err != nil {
				return err
			}
			if _, err := h.call("server.append", 0, 0, "POST", ds+"/rows", extra.buf, http.StatusOK); err != nil {
				return err
			}
			if err := wantSource(h, "server.inc", ds+imp, "incremental"); err != nil {
				return err
			}
			_, _, ref, err := h.runJob(0, 0, jobs.Params{Dataset: name, Pipeline: "imp", Threshold: w.impPct, Workers: jobWorkers})
			if err != nil {
				return err
			}
			res.jobs = append(res.jobs, ref)
			_, err = h.call("server.delete", 0, 0, "DELETE", ds, nil, http.StatusNoContent)
			return err
		}()
		if err != nil {
			res.failed++
			res.errs = append(res.errs, "layer sweep: "+err.Error())
		}
	}
	return res
}

func wantSource(h *harness, name, path, source string) error {
	b, err := h.call(name, 0, 0, "GET", path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	var r server.MineResponse[server.ImplicationWire]
	if err := decodeInto(name, b, &r); err != nil {
		return err
	}
	if r.Source != source {
		return fmt.Errorf("GET %s: source %q, want %q", path, r.Source, source)
	}
	return nil
}

// directStats is what the direct layer calls measure beyond span
// durations: the core engine's own statistics, one entry per rep.
type directStats struct {
	prescan, phase100, phaseLT []time.Duration
	added, deleted, peakBytes  []float64
	payloadBytes               int
}

// timed runs f inside a span named name (a root span: the direct calls
// run alone, so fault.FS spans inside attach to it).
func timed(tr *tracer, name string, f func() error) error {
	_, end := tr.enter(name, 0, 0)
	defer end()
	return f()
}

// directCalls times each layer's public functions on the workload's own
// matrix and thresholds, outside the server.
func directCalls(w *workload, in *inputs, dir string, tr *tracer) (*directStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	impT, simT := w.thresholds()
	in.upload.retag(0)
	ds := &directStats{}
	var m *matrix.Matrix
	for r := 0; r < directReps; r++ {
		var imps, sImps []rules.Implication
		var sims, sSims []rules.Similarity
		var ist, sst core.Stats
		var impPay, simPay []byte
		var inc *core.Incremental
		path := filepath.Join(dir, fmt.Sprintf("m%d.dmb", r))
		steps := []struct {
			name string
			f    func() error
		}{
			{"matrix.parse", func() (err error) { m, err = matrix.ReadBaskets(bytes.NewReader(in.upload.buf)); return }},
			{"matrix.encode", func() error { _, err := matrix.EncodeBinary(m); return err }},
			{"store.hash", func() error { _, err := store.ContentHash(m); return err }},
			{"core.imp", func() error { imps, ist = core.DMCImp(m, impT, core.Options{}); return nil }},
			{"core.sim", func() error { sims, sst = core.DMCSim(m, simT, core.Options{}); return nil }},
			{"core.inc_build", func() error { inc = core.BuildIncremental(m); return nil }},
			{"core.inc_derive", func() error { inc.Implications(impT, core.Options{}); return nil }},
			{"rules.encode", func() error { impPay, simPay = impPayload(imps), simPayload(sims); return nil }},
			{"rules.decode", func() error {
				if _, err := rules.ReadImplications(bytes.NewReader(impPay)); err != nil {
					return err
				}
				_, err := rules.ReadSimilarities(bytes.NewReader(simPay))
				return err
			}},
		}
		for _, s := range steps {
			if err := timed(tr, s.name, s.f); err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
		}
		ds.payloadBytes = len(impPay) + len(simPay)
		ds.prescan = append(ds.prescan, ist.Prescan+sst.Prescan)
		ds.phase100 = append(ds.phase100, ist.Phase100+sst.Phase100)
		ds.phaseLT = append(ds.phaseLT, ist.PhaseLT+sst.PhaseLT)
		ds.added = append(ds.added, float64(ist.CandidatesAdded+sst.CandidatesAdded))
		ds.deleted = append(ds.deleted, float64(ist.CandidatesDeleted+sst.CandidatesDeleted))
		ds.peakBytes = append(ds.peakBytes, float64(max(ist.PeakCounterBytes, sst.PeakCounterBytes)))

		if err := matrix.Save(path, m); err != nil {
			return nil, err
		}
		streamCfg := func(name string) stream.Config {
			return stream.Config{Workers: jobWorkers, TmpDir: dir, CheckpointDir: filepath.Join(dir, fmt.Sprintf("%s-%d", name, r))}
		}
		err := timed(tr, "stream.partition", func() error {
			p, err := stream.PartitionWith(path, stream.Config{Workers: jobWorkers, TmpDir: dir})
			if err != nil {
				return err
			}
			return p.Close()
		})
		if err == nil {
			err = timed(tr, "stream.imp", func() (err error) {
				sImps, _, err = stream.MineImplicationsCfg(path, impT, core.Options{}, streamCfg("imp"))
				return
			})
		}
		if err == nil {
			err = timed(tr, "stream.sim", func() (err error) {
				sSims, _, err = stream.MineSimilaritiesCfg(path, simT, core.Options{}, streamCfg("sim"))
				return
			})
		}
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		if d := rules.DiffImplications(sImps, imps); d != "" {
			return nil, fmt.Errorf("stream implications differ from core: %s", d)
		}
		if d := rules.DiffSimilarities(sSims, sims); d != "" {
			return nil, fmt.Errorf("stream similarities differ from core: %s", d)
		}
		if r == 0 {
			if err := directCache(in, filepath.Join(dir, "cache"), tr, impPayload(imps)); err != nil {
				return nil, fmt.Errorf("cache: %w", err)
			}
		}
	}
	return ds, nil
}

// directCache puts one payload under cacheKeys keys of a scratch cache,
// then reads them back from 2 goroutines along the seeded key
// sequences.
func directCache(in *inputs, dir string, tr *tracer, payload []byte) error {
	c, err := cache.Open(dir, cache.Options{FS: newFSProbe("cache", "CACHE", tr)})
	if err != nil {
		return err
	}
	keys := make([]string, cacheKeys)
	for i := range keys {
		keys[i] = cache.Key(fmt.Sprintf("direct-%d", i), "imp", "t=85 ms=0")
		if err := timed(tr, "cache.put", func() error { return c.Put(keys[i], payload) }); err != nil {
			c.Close()
			return err
		}
	}
	var wg sync.WaitGroup
	var misses sync.Map
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, k := range keySequence(in.seed, g, cacheGets) {
				_, end := tr.span("cache.get", 0, 0)
				_, ok := c.Get(keys[k%cacheKeys])
				end()
				if !ok {
					misses.Store(k, true)
				}
			}
		}(g)
	}
	wg.Wait()
	err = c.Close()
	missed := false
	misses.Range(func(any, any) bool { missed = true; return false })
	if missed {
		return fmt.Errorf("direct cache reads missed keys that were put")
	}
	return err
}

// layerMetrics assembles the per-layer metrics from the spans and the
// traced window's counter deltas.
func layerMetrics(spans []span, h *harness, on, off *window, ds *directStats) map[string]metric {
	ops := on.attempted
	med := func(name string) float64 { return medianMS(spanDurations(spans, name)) }
	obsDelta := func(name string) float64 { return float64(on.after.obs[name] - on.before.obs[name]) }
	sfs := on.after.storeFS.sub(on.before.storeFS)
	cfs := on.after.cacheFS.sub(on.before.cacheFS)
	// Self time by layer over the traced window's ops, as shares of
	// their summed latency: client (the op span's own glue), server
	// (HTTP calls minus the FS calls inside them), store and cache (FS
	// calls).
	self := selfTimes(spans, func(s span) bool { return s.Op > 0 })
	var opTime time.Duration
	for _, l := range on.lat {
		opTime += l
	}
	selfShare := func(layer string) float64 { return 100 * ratio(float64(self[layer]), float64(opTime)) }
	hits, misses := obsDelta("dmc_cache_hits_total"), obsDelta("dmc_cache_misses_total")
	var queue, runT, notify []time.Duration
	h.mu.Lock()
	for _, j := range h.jobRuns {
		queue = append(queue, time.Duration(j.started-j.created))
		runT = append(runT, time.Duration(j.finished-j.started))
		notify = append(notify, time.Duration(j.notified-j.finished))
	}
	h.mu.Unlock()
	p50on, p50off := ms(percentile(on.adj, 50)), ms(percentile(off.adj, 50))
	m := map[string]metric{
		"admission.shed": {float64(on.after.obs["dmc_shed_total"] - off.before.obs["dmc_shed_total"]), "count"},

		"cache.bytes_written": {perOp(float64(cfs.BytesWritten), ops), "B"},
		"cache.compactions":   {float64(cfs.Compactions), "count"},
		"cache.fsyncs":        {perOp(float64(cfs.Fsyncs), ops), "count"},
		"cache.get_ms":        {med("cache.get"), "ms"},
		"cache.hit_ratio":     {ratio(hits, hits+misses), "ratio"},
		"cache.put_ms":        {med("cache.put"), "ms"},

		"core.candidates_added":   {medianF(ds.added), "count"},
		"core.candidates_deleted": {medianF(ds.deleted), "count"},
		"core.imp_ms":             {med("core.imp"), "ms"},
		"core.inc_build_ms":       {med("core.inc_build"), "ms"},
		"core.inc_derive_ms":      {med("core.inc_derive"), "ms"},
		"core.peak_counter_bytes": {medianF(ds.peakBytes), "B"},
		"core.phase100_ms":        {medianMS(ds.phase100), "ms"},
		"core.phaselt_ms":         {medianMS(ds.phaseLT), "ms"},
		"core.prescan_ms":         {medianMS(ds.prescan), "ms"},
		"core.sim_ms":             {med("core.sim"), "ms"},

		"host.steal_pct":  {stealPct(on.before.host, on.after.host), "%"},
		"host.stolen_pct": {100 * on.stolen, "%"},

		"jobs.compactions":   {obsDelta("dmc_jobs_compactions_total"), "count"},
		"jobs.notify_ms":     {medianMS(notify), "ms"},
		"jobs.queue_wait_ms": {medianMS(queue), "ms"},
		"jobs.run_ms":        {medianMS(runT), "ms"},

		"matrix.encode_ms": {med("matrix.encode"), "ms"},
		"matrix.parse_ms":  {med("matrix.parse"), "ms"},

		"proc.allocs_per_op":   {perOp(float64(on.after.mem.Mallocs-on.before.mem.Mallocs), ops), "count"},
		"proc.cpu_ms_per_op":   {perOp(ms(on.after.proc.cpu-on.before.proc.cpu), ops), "ms"},
		"proc.gc_per_100_ops":  {100 * perOp(float64(on.after.mem.NumGC-on.before.mem.NumGC), ops), "count"},
		"rules.decode_ms":      {med("rules.decode"), "ms"},
		"rules.encode_ms":      {med("rules.encode"), "ms"},
		"rules.payload_bytes":  {float64(ds.payloadBytes), "B"},
		"self.cache_pct":       {selfShare("cache"), "%"},
		"self.client_pct":      {selfShare("op"), "%"},
		"self.server_pct":      {selfShare("server"), "%"},
		"self.store_pct":       {selfShare("store"), "%"},
		"server.append_ms":     {med("server.append"), "ms"},
		"server.delete_ms":     {med("server.delete"), "ms"},
		"server.hit_ms":        {med("server.hit"), "ms"},
		"server.imp_cold_ms":   {med("server.imp_cold"), "ms"},
		"server.inc_ms":        {med("server.inc"), "ms"},
		"server.job_result_ms": {med("server.job_result"), "ms"},
		"server.job_submit_ms": {med("server.job_submit"), "ms"},
		"server.put_ms":        {med("server.put"), "ms"},
		"server.resp_bytes":    {perOp(float64(on.after.resp-on.before.resp), ops), "B"},
		"server.sim_cold_ms":   {med("server.sim_cold"), "ms"},

		"store.bytes_written": {perOp(float64(sfs.BytesWritten), ops), "B"},
		"store.compactions":   {float64(sfs.Compactions), "count"},
		"store.fsyncs":        {perOp(float64(sfs.Fsyncs), ops), "count"},
		"store.hash_ms":       {med("store.hash"), "ms"},
		"store.sync_ms":       {med("store.fsync"), "ms"},

		"stream.checkpoint_writes": {perOp(obsDelta("dmc_checkpoint_writes_total"), ops), "count"},
		"stream.frames":            {perOp(obsDelta("dmc_stream_frames_total"), ops), "count"},
		"stream.imp_ms":            {med("stream.imp"), "ms"},
		"stream.partition_ms":      {med("stream.partition"), "ms"},
		"stream.prefetch_stalls":   {perOp(obsDelta("dmc_stream_prefetch_stalls_total"), ops), "count"},
		"stream.sim_ms":            {med("stream.sim"), "ms"},
		"stream.spilled_bytes":     {perOp(obsDelta("dmc_stream_spilled_bytes_total"), ops), "B"},

		"trace.overhead_pct": {100 * ratio(p50on-p50off, p50off), "%"},
		"trace.spans":        {float64(len(spans)), "count"},
	}
	return m
}
