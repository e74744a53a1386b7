package main

import (
	"bytes"
	"fmt"
	"net/http"

	"dmc/internal/core"
	"dmc/internal/jobs"
	"dmc/internal/matrix"
	"dmc/internal/server"
)

// workload is one closed-loop traffic shape. Every op of a workload has
// the same shape and cost, so its latency distribution has one peak.
type workload struct {
	name    string
	clients int
	// streamMin is the server's StreamMinBytes (0: all resident).
	streamMin int64
	// impPct and simPct are the thresholds the workload mines at; the
	// traced run's direct layer calls use the same.
	impPct, simPct int
	// setup uploads the workload's datasets and warms the server.
	setup func(h *harness, in *inputs) error
	// op runs one operation for client c; k counts that client's ops.
	op func(h *harness, in *inputs, c, k int, opID int64) (*opResult, error)
	// verify hashes an op's transcript; it runs after the op's latency
	// is taken.
	verify func(r *opResult) ([32]byte, error)
	// expect is the transcript hash every op must produce, from the
	// reference rules.
	expect func(in *inputs) ([32]byte, error)
}

// opResult is what one op leaves for verification.
type opResult struct {
	tag string
	// tags is the label tag of each body when they differ (hot_read).
	tags   []string
	bodies [][]byte
	terms  []jobs.Event
	jobs   []jobRef
}

var workloads = map[string]*workload{
	"ingest_mine": {
		name: "ingest_mine", clients: 1, impPct: impPercent, simPct: simPercent,
		setup: ingestSetup, op: ingestOp, verify: ingestVerify, expect: ingestExpect,
	},
	"hot_read": {
		name: "hot_read", clients: hotClients, impPct: impPercent, simPct: simPercent,
		setup: hotSetup, op: hotOp, verify: hotVerify, expect: hotExpect,
	},
	"job_stream": {
		name: "job_stream", clients: 1, streamMin: jobStreamMin, impPct: impPercent, simPct: jobSimPercent,
		setup: jobSetup, op: jobOp, verify: jobVerify, expect: jobExpect,
	},
}

// parsed is the matrix the server builds from b's bytes (tag 0), with
// the same column ids.
func parsed(b *body) (*matrix.Matrix, error) {
	b.retag(0)
	return matrix.ReadBaskets(bytes.NewReader(b.buf))
}

// ---- ingest_mine: the write path, one full dataset lifecycle per op.

const (
	ingestWarmOps = 2
	ingestLimit   = 100
)

var (
	ingestImpQuery = fmt.Sprintf("/implications?threshold=%d&limit=%d", impPercent, ingestLimit)
	ingestSimQuery = fmt.Sprintf("/similarities?threshold=%d&limit=%d", simPercent, ingestLimit)
)

func ingestSetup(h *harness, in *inputs) error {
	for k := 0; k < ingestWarmOps; k++ {
		r, err := ingestOp(h, in, 0, -1-k, 0)
		if err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		if _, err := ingestVerify(r); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	return nil
}

// ingestTag maps an op number to a label tag: warm-up ops (k < 0) and
// timed ops never share one, so every upload is new content.
func ingestTag(k int) int { return k + ingestWarmOps }

func ingestOp(h *harness, in *inputs, _, k int, opID int64) (*opResult, error) {
	n := ingestTag(k)
	in.upload.retag(n)
	in.extra.retag(n)
	tag := tagString(n)
	ds := "/v1/datasets/ing-" + tag
	op, end := h.tr.enter("op.ingest_mine", 0, opID)
	defer end()
	r := &opResult{tag: tag}
	steps := []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"server.put", "PUT", ds, in.upload.buf, http.StatusCreated},
		{"server.imp_cold", "GET", ds + ingestImpQuery, nil, http.StatusOK},
		{"server.sim_cold", "GET", ds + ingestSimQuery, nil, http.StatusOK},
		{"server.append", "POST", ds + "/rows", in.extra.buf, http.StatusOK},
		{"server.inc", "GET", ds + ingestImpQuery, nil, http.StatusOK},
		{"server.delete", "DELETE", ds, nil, http.StatusNoContent},
	}
	for _, s := range steps {
		b, err := h.call(s.name, op, opID, s.method, s.path, s.body, s.want)
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, b)
	}
	return r, nil
}

func ingestVerify(r *opResult) ([32]byte, error) {
	t := newTranscript()
	var put server.DatasetInfo
	var imp, inc server.MineResponse[server.ImplicationWire]
	var sim server.MineResponse[server.SimilarityWire]
	var app server.AppendResponse
	for i, v := range []any{&put, &imp, &sim, &app, &inc} {
		if err := decodeInto("ingest_mine", r.bodies[i], v); err != nil {
			return [32]byte{}, err
		}
	}
	t.info("put", put)
	if err := t.imps("imp_cold", r.tag, imp); err != nil {
		return [32]byte{}, err
	}
	if err := t.sims("sim_cold", r.tag, sim); err != nil {
		return [32]byte{}, err
	}
	t.info("append", app.DatasetInfo)
	t.line("appended=%d incremental=%v", app.Appended, app.Incremental)
	if err := t.imps("imp_inc", r.tag, inc); err != nil {
		return [32]byte{}, err
	}
	return t.sum(), nil
}

func ingestExpect(in *inputs) ([32]byte, error) {
	base, err := parsed(in.upload)
	if err != nil {
		return [32]byte{}, err
	}
	in.extra.retag(0)
	grown, err := matrix.ExtendBaskets(base, bytes.NewReader(in.extra.buf))
	if err != nil {
		return [32]byte{}, err
	}
	imps, err := mineImpChecked(base, impPercent)
	if err != nil {
		return [32]byte{}, err
	}
	sims, err := mineSimChecked(base, simPercent)
	if err != nil {
		return [32]byte{}, err
	}
	grownImps, err := mineImpChecked(grown, impPercent)
	if err != nil {
		return [32]byte{}, err
	}
	tag := tagString(0)
	t := newTranscript()
	t.info("put", infoOf(base, false))
	if err := t.imps("imp_cold", tag, refImps(base, imps, impPercent, ingestLimit, "")); err != nil {
		return [32]byte{}, err
	}
	if err := t.sims("sim_cold", tag, refSims(base, sims, simPercent, ingestLimit, "")); err != nil {
		return [32]byte{}, err
	}
	t.info("append", infoOf(grown, false))
	// The first append to fresh content has no snapshot to resume, so
	// it rebuilds (incremental=false); the re-mine then derives from the
	// snapshot the append stored.
	t.line("appended=%d incremental=%v", grown.NumRows()-base.NumRows(), false)
	if err := t.imps("imp_inc", tag, refImps(grown, grownImps, impPercent, ingestLimit, "incremental")); err != nil {
		return [32]byte{}, err
	}
	return t.sum(), nil
}

// ---- hot_read: cache hits only, one client reading batches.

// hotClients is one: with two clients contending for the cache mutex
// on two vCPUs, the CPU cost of a GET moved by up to 30% from run to
// run on a quiet host (2.3 to 3.1 ms), as the scheduler happened to
// interleave them. The contended path is still measured, by the traced
// run's direct cache.Get calls from two goroutines.
const hotClients = 1

const hotLimit = 100000

var hotQuery = fmt.Sprintf("/implications?threshold=%d&limit=%d", impPercent, hotLimit)

// hotBatch is how many GETs one hot_read op makes, one after another:
// a reader loading a page of rule sets. A single GET takes a millisecond
// or two, shorter than the 10 ms ticks the host's steal is counted in,
// so a batch is what makes an op long enough to judge by the steal
// around it (see stolenShare).
const hotBatch = 16

// hotSeqLen is each client's seeded key sequence length; a client
// wraps around after that many GETs.
const hotSeqLen = 1 << 16

func hotSetup(h *harness, in *inputs) error {
	for i := 0; i < hotCopies; i++ {
		in.upload.retag(i)
		ds := "/v1/datasets/hot-" + tagString(i)
		if _, err := h.call("server.put", 0, 0, "PUT", ds, in.upload.buf, http.StatusCreated); err != nil {
			return err
		}
		if _, err := h.call("server.imp_cold", 0, 0, "GET", ds+hotQuery, nil, http.StatusOK); err != nil {
			return err
		}
	}
	return nil
}

func hotOp(h *harness, in *inputs, c, k int, opID int64) (*opResult, error) {
	op, end := h.tr.span("op.hot_read", 0, opID)
	defer end()
	r := &opResult{}
	seq := in.keys[c]
	for i := 0; i < hotBatch; i++ {
		tag := tagString(seq[(k*hotBatch+i)%len(seq)])
		b, err := h.call("server.hit", op, opID, "GET", "/v1/datasets/hot-"+tag+hotQuery, nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		r.tags = append(r.tags, tag)
		r.bodies = append(r.bodies, b)
	}
	return r, nil
}

func hotVerify(r *opResult) ([32]byte, error) {
	t := newTranscript()
	for i, b := range r.bodies {
		var resp server.MineResponse[server.ImplicationWire]
		if err := decodeInto("hot_read", b, &resp); err != nil {
			return [32]byte{}, err
		}
		if err := t.imps("hit", r.tags[i], resp); err != nil {
			return [32]byte{}, err
		}
	}
	return t.sum(), nil
}

func hotExpect(in *inputs) ([32]byte, error) {
	base, err := parsed(in.upload)
	if err != nil {
		return [32]byte{}, err
	}
	imps, err := mineImpChecked(base, impPercent)
	if err != nil {
		return [32]byte{}, err
	}
	ref := refImps(base, imps, impPercent, hotLimit, "cache")
	t := newTranscript()
	for i := 0; i < hotBatch; i++ {
		if err := t.imps("hit", tagString(0), ref); err != nil {
			return [32]byte{}, err
		}
	}
	return t.sum(), nil
}

// ---- job_stream: one streamed job in flight, imp then sim per op.

// jobStreamMin routes the News upload (a few hundred KiB committed)
// file-backed, while the traced run's small probe datasets stay
// resident.
const jobStreamMin = 64 << 10

const jobWorkers = 2 // explicit: an omitted value resolves to GOMAXPROCS

const jobDataset = "news"

func jobSetup(h *harness, in *inputs) error {
	in.upload.retag(0)
	b, err := h.call("server.put", 0, 0, "PUT", "/v1/datasets/"+jobDataset, in.upload.buf, http.StatusCreated)
	if err != nil {
		return err
	}
	var inf server.DatasetInfo
	if err := decodeInto("job_stream upload", b, &inf); err != nil {
		return err
	}
	if !inf.Streamed {
		return fmt.Errorf("job_stream: the %s upload is served resident, want file-backed", jobDataset)
	}
	r, err := jobOp(h, in, 0, 0, 0)
	if err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	_, err = jobVerify(r)
	return err
}

func jobOp(h *harness, in *inputs, _, _ int, opID int64) (*opResult, error) {
	op, end := h.tr.enter("op.job_stream", 0, opID)
	defer end()
	r := &opResult{}
	for _, p := range []jobs.Params{
		{Dataset: jobDataset, Pipeline: "imp", Threshold: impPercent, Workers: jobWorkers},
		{Dataset: jobDataset, Pipeline: "sim", Threshold: jobSimPercent, Workers: jobWorkers},
	} {
		payload, term, ref, err := h.runJob(op, opID, p)
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, payload)
		r.terms = append(r.terms, term)
		r.jobs = append(r.jobs, ref)
	}
	return r, nil
}

func jobVerify(r *opResult) ([32]byte, error) {
	t := newTranscript()
	for i, kind := range []string{"imp", "sim"} {
		t.jobResult(kind, string(r.terms[i].State), r.terms[i].Rules, r.bodies[i])
	}
	return t.sum(), nil
}

func jobExpect(in *inputs) ([32]byte, error) {
	base, err := parsed(in.upload)
	if err != nil {
		return [32]byte{}, err
	}
	imps, err := mineImpChecked(base, impPercent)
	if err != nil {
		return [32]byte{}, err
	}
	sims, err := mineSimChecked(base, jobSimPercent)
	if err != nil {
		return [32]byte{}, err
	}
	t := newTranscript()
	t.jobResult("imp", string(jobs.StateDone), len(imps), impPayload(imps))
	t.jobResult("sim", string(jobs.StateDone), len(sims), simPayload(sims))
	return t.sum(), nil
}

// thresholds returns the workload's mining thresholds.
func (w *workload) thresholds() (imp, sim core.Threshold) {
	return core.FromPercent(w.impPct), core.FromPercent(w.simPct)
}
