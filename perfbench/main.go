// Command perfbench is the repository's end-to-end benchmark. It starts
// the real server (store, cache, jobs, server.Handler on a loopback
// port) in this process, drives it closed-loop with one of three
// workloads, checks every op against an exact reference, and prints one
// JSON result line. See README.md in this directory.
//
//	perfbench --workload ingest_mine --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"dmc/internal/obs"
)

// setupReps is how many times a timed run sets up from scratch;
// setup_s is their median.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "ingest_mine, hot_read or job_stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: column labels and request sequences")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench-data", "scratch and record directory (on the local disk)")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() > 0 || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord makes drift between runs visible; every run appends one to
// runs.jsonl in the work directory and prints it on standard error.
type runRecord struct {
	Time       string             `json:"time"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	GenSeed    int64              `json:"gen_seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Nproc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Shape      string             `json:"shape"`
	Matrix     [3]int             `json:"matrix_rows_cols_ones"`
	Fsync      string             `json:"fsync"`
	StealPct   float64            `json:"host_steal_pct"`
	StolenPct  float64            `json:"stolen_pct"`
	Samples    int                `json:"latency_samples"`
	TailPct    float64            `json:"tail_percentile"`
	SetupS     []float64          `json:"setup_s_each,omitempty"`
	SetupRawS  []float64          `json:"setup_raw_s_each,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	// Raw holds the time metrics before the stolen CPU time is taken
	// out, and the process CPU per op, which the traced run reports.
	Raw map[string]float64 `json:"raw_metrics,omitempty"`
}

func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest_mine, hot_read or job_stream)", cfg.workload)
	}
	in, err := makeInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rec := &runRecord{
		Time: time.Now().UTC().Format(time.RFC3339), Workload: w.name, Seed: cfg.seed, GenSeed: genSeed,
		Seconds: cfg.seconds, Trace: cfg.trace, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Shape: in.shape,
		Matrix: [3]int{in.m.NumRows(), in.m.NumCols(), in.m.NumOnes()},
		Fsync:  "real fsync on " + cfg.workdir + " (store, cache, jobs, spill checkpoints)",
	}
	var res *result
	if cfg.trace {
		res, err = tracedRun(cfg, w, in, dir, rec)
	} else {
		res, err = timedRun(cfg, w, in, dir, rec)
	}
	if err != nil {
		rec.Errors = append(rec.Errors, err.Error())
	}
	if rerr := writeRecord(cfg.workdir, rec); rerr != nil && err == nil {
		err = rerr
	}
	return res, err
}

// writeRecord appends rec to runs.jsonl and echoes it to stderr.
func writeRecord(workdir string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, string(line))
	f, err := os.OpenFile(filepath.Join(workdir, "runs.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedRun sets up setupReps times, keeps the last set-up for one
// untraced window, and reports the end-to-end metrics.
func timedRun(cfg config, w *workload, in *inputs, dir string, rec *runRecord) (*result, error) {
	var h *harness
	for i := 0; i < setupReps; i++ {
		setupDir := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if h != nil {
			if err := h.close(); err != nil {
				return nil, err
			}
			// Every set-up starts from the same state: the previous one's
			// files and garbage are gone before the clock starts.
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup-%d", i-1))); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		host := sampleHost()
		start := time.Now()
		var err error
		if h, err = openHarness(setupDir, nil, w.clients == 1, w.streamMin); err != nil {
			return nil, err
		}
		if err := w.setup(h, in); err != nil {
			h.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start)
		rec.SetupRawS = append(rec.SetupRawS, took.Seconds())
		rec.SetupS = append(rec.SetupS, unstolen(took, stolenShare(host, sampleHost())).Seconds())
	}
	win := measure(h, w, in, time.Duration(cfg.seconds)*time.Second, make([]int, w.clients))
	rssKiB := sampleProc().maxRSSKiB // before the reference is computed
	if err := h.close(); err != nil {
		return nil, err
	}
	if win.attempted == 0 {
		return nil, errNoOps
	}
	want, err := w.expect(in)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	failed := win.failures(want)
	rec.StealPct = stealPct(win.before.host, win.after.host)
	rec.StolenPct = 100 * win.stolen
	rec.Samples = len(win.lat)
	rec.TailPct = tailPercentile(len(win.lat))
	rec.Attempted, rec.Failed, rec.Errors = win.attempted, failed, win.errs
	ok := win.attempted - failed
	m := map[string]metric{
		"p50_ms":      {ms(percentile(win.adj, 50)), "ms"},
		"p90_ms":      {ms(percentile(win.adj, 90)), "ms"},
		"ops_per_s":   {float64(ok) / unstolen(win.wall, win.stolen).Seconds(), "1/s"},
		"ok_ratio":    {ratio(float64(ok), float64(win.attempted)), "ratio"},
		"rss_peak_mb": {float64(rssKiB) / 1024, "MiB"},
		"setup_s":     {medianF(rec.SetupS), "s"},
	}
	rec.Metrics = values(m)
	rec.Raw = map[string]float64{
		"p50_ms":    ms(percentile(win.lat, 50)),
		"p90_ms":    ms(percentile(win.lat, 90)),
		"ops_per_s": float64(ok) / win.wall.Seconds(),
		"setup_s":   medianF(rec.SetupRawS),

		"cpu_ms_per_op": perOp(ms(win.after.proc.cpu-win.before.proc.cpu), ok),
	}
	return &result{Correct: failed == 0, Attempted: win.attempted, Failed: failed, Metrics: m}, nil
}

func values(m map[string]metric) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.Value
	}
	return out
}

// sample is the process, host and program counters at one instant.
type sample struct {
	at      time.Time
	proc    procSample
	host    hostCPU
	mem     runtime.MemStats
	obs     map[string]int64
	storeFS fsCounts
	cacheFS fsCounts
	resp    int64
}

func takeSample(h *harness) sample {
	s := sample{at: time.Now(), proc: sampleProc(), host: sampleHost(), obs: obsTotals(),
		storeFS: h.storeFS.counts(), cacheFS: h.cacheFS.counts(), resp: h.respBytes.Load()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// obsTotals sums every counter family of the default registry (the
// store, cache, stream, jobs and server metrics all register there).
func obsTotals() map[string]int64 {
	var b strings.Builder
	if err := obs.Default.WriteJSON(&b); err != nil {
		return nil
	}
	var fams []obs.JSONFamily
	if err := json.Unmarshal([]byte(b.String()), &fams); err != nil {
		return nil
	}
	out := make(map[string]int64)
	for _, f := range fams {
		if f.Type != "counter" {
			continue
		}
		for _, s := range f.Series {
			if s.Value != nil {
				out[f.Name] += *s.Value
			}
		}
	}
	return out
}

// window is one measured stretch of closed-loop ops.
type window struct {
	before, after sample
	wall          time.Duration
	attempted     int
	// Per attempted op, in completion order: latency, latency with the
	// CPU time stolen around the op taken out, transcript hash, and
	// whether it failed (an error, or after failures, a transcript off
	// the reference).
	lat  []time.Duration
	adj  []time.Duration
	fps  [][32]byte
	bad  []bool
	jobs []jobRef
	errs []string // the first few errors, for the run record
	// stolen is the share of the CPU time asked for over the window
	// that the host gave to other tenants (see stolenShare).
	stolen float64
}

// maxErrs bounds the errors a run record keeps.
const maxErrs = 5

// measure runs the workload's clients closed-loop for d. next holds
// each client's op counter and is advanced, so a second window never
// repeats the first one's ops.
func measure(h *harness, w *workload, in *inputs, d time.Duration, next []int) *window {
	win := &window{}
	runtime.GC()
	track := startHostTrack()
	var starts []time.Time
	win.before = takeSample(h)
	deadline := win.before.at.Add(d)
	opIDs := int64(0)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				opIDs++
				id := opIDs
				k := next[c]
				next[c]++
				mu.Unlock()
				start := time.Now()
				r, err := w.op(h, in, c, k, id)
				lat := time.Since(start)
				var fp [32]byte
				if err == nil {
					fp, err = w.verify(r)
				}
				mu.Lock()
				win.attempted++
				win.lat = append(win.lat, lat)
				starts = append(starts, start)
				win.fps = append(win.fps, fp)
				win.bad = append(win.bad, err != nil)
				if err != nil {
					if len(win.errs) < maxErrs {
						win.errs = append(win.errs, err.Error())
					}
				} else {
					win.jobs = append(win.jobs, r.jobs...)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	win.after = takeSample(h)
	track.stop()
	win.wall = win.after.at.Sub(win.before.at)
	win.stolen = stolenShare(win.before.host, win.after.host)
	for i, l := range win.lat {
		win.adj = append(win.adj, unstolen(l, track.stolen(starts[i], starts[i].Add(l))))
	}
	return win
}

// failures marks every op whose transcript is not the reference
// transcript want as failed and returns how many ops failed in all.
func (win *window) failures(want [32]byte) int {
	failed := 0
	wrong := make(map[[32]byte]int)
	for i, fp := range win.fps {
		if !win.bad[i] && fp != want {
			win.bad[i] = true
			wrong[fp]++
		}
		if win.bad[i] {
			failed++
		}
	}
	for fp, n := range wrong {
		win.errs = append(win.errs, fmt.Sprintf("%d ops returned transcript %x, want %x", n, fp[:8], want[:8]))
	}
	return failed
}

var errNoOps = errors.New("the measured window completed no op")
