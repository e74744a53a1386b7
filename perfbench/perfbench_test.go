package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"dmc/internal/matrix"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{"ingest_mine", "hot_read", "job_stream"} {
		a, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.upload.buf, b.upload.buf) {
			t.Errorf("%s: same seed, different upload bytes", w)
		}
		if a.extra != nil && !bytes.Equal(a.extra.buf, b.extra.buf) {
			t.Errorf("%s: same seed, different append bytes", w)
		}
		if !reflect.DeepEqual(a.keys, b.keys) {
			t.Errorf("%s: same seed, different op sequence", w)
		}
		c, err := makeInputs(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.upload.buf, c.upload.buf) {
			t.Errorf("%s: seeds 7 and 8 give the same upload bytes", w)
		}
		if len(a.upload.buf) != len(c.upload.buf) {
			t.Errorf("%s: relabeling changed the upload size: %d vs %d", w, len(a.upload.buf), len(c.upload.buf))
		}
	}
}

func TestKeySequence(t *testing.T) {
	a, b := keySequence(3, 0, 500), keySequence(3, 0, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client, different key sequence")
	}
	if reflect.DeepEqual(a, keySequence(3, 1, 500)) {
		t.Error("both clients request the same sequence")
	}
	seen := make(map[int]bool)
	for _, k := range a {
		if k < 0 || k >= hotCopies {
			t.Fatalf("key %d outside [0,%d)", k, hotCopies)
		}
		seen[k] = true
	}
	if len(seen) != hotCopies {
		t.Errorf("500 draws touched %d of %d keys", len(seen), hotCopies)
	}
}

// Retagging changes the labels but not the matrix the server parses.
func TestRetagKeepsStructure(t *testing.T) {
	m := matrix.FromRows(5, [][]matrix.Col{{0, 1}, {2, 3, 4}, {1, 4}})
	b := renderBody(m, columnNames(5, 1), 0, 3)
	b.retag(0)
	m0, err := matrix.ReadBaskets(bytes.NewReader(b.buf))
	if err != nil {
		t.Fatal(err)
	}
	b.retag(12345)
	m1, err := matrix.ReadBaskets(bytes.NewReader(b.buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m0.NumRows(); i++ {
		if !reflect.DeepEqual(m0.Row(i), m1.Row(i)) {
			t.Fatalf("row %d: %v after retag, %v before", i, m1.Row(i), m0.Row(i))
		}
	}
	tag := tagString(12345)
	for c, l := range m1.Labels() {
		name, err := splitLabel(l, tag)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := splitLabel(m0.Labels()[c], tagString(0)); name != want {
			t.Errorf("column %d: name %q after retag, %q before", c, name, want)
		}
	}
	if _, err := splitLabel(m1.Labels()[0], tagString(0)); err == nil {
		t.Error("splitLabel accepted a label carrying another op's tag")
	}
}

func msList(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentile(t *testing.T) {
	var hundred []int
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, i)
	}
	s := msList(hundred...)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {90, 90 * time.Millisecond}, {99, 99 * time.Millisecond}, {100, 100 * time.Millisecond}, {0, time.Millisecond}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..100ms = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(msList(7), 90); got != 7*time.Millisecond {
		t.Errorf("p90 of one sample = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of none = %v", got)
	}
	if s[0] != 100*time.Millisecond {
		t.Error("percentile reordered its input")
	}
}

// The highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
}

func TestPerOpRatios(t *testing.T) {
	if got := perOp(10, 4); got != 2.5 {
		t.Errorf("perOp(10, 4) = %v", got)
	}
	if got := perOp(10, 0); got != 0 {
		t.Errorf("perOp with no ops = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over 0 = %v, want 0", got)
	}
	a := parseCPULine("cpu  100 0 50 800 10 0 0 40 0 0")
	b := parseCPULine("cpu  150 0 75 900 10 0 0 65 5 0")
	if a.total != 1000 || a.steal != 40 {
		t.Fatalf("parseCPULine = %+v", a)
	}
	if got := stealPct(a, b); got != 12.5 {
		t.Errorf("stealPct = %v, want 12.5 (25 of 200 ticks)", got)
	}
	if a.busy != 150 || b.busy != 225 {
		t.Fatalf("busy ticks = %d, %d, want 150, 225", a.busy, b.busy)
	}
	// 75 busy ticks and 25 stolen: a quarter of what was asked for.
	if got := stolenShare(a, b); got != 0.25 {
		t.Errorf("stolenShare = %v, want 0.25", got)
	}
	if got := unstolen(100*time.Millisecond, 0.25); got != 75*time.Millisecond {
		t.Errorf("unstolen = %v, want 75ms", got)
	}
	if got := stolenShare(a, a); got != 0 {
		t.Errorf("stolenShare over an idle span = %v, want 0", got)
	}
	if got := medianF([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianF = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "server.put", Start: 10, End: 60},
		{ID: 3, Parent: 1, Op: 1, Name: "server.get", Start: 50, End: 90},
		{ID: 4, Parent: 2, Op: 1, Name: "store.fsync", Start: 20, End: 30},
		{ID: 5, Parent: 2, Op: 1, Name: "store.write", Start: 25, End: 40},
		{ID: 6, Op: 0, Name: "core.imp", Start: 0, End: 1000},
	}
	got := selfTimes(spans, func(s span) bool { return s.Op > 0 })
	want := map[string]time.Duration{"op": 20, "server": 30 + 40, "store": 25}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestFailuresCountEveryOpOffReference(t *testing.T) {
	good, wrong := [32]byte{1}, [32]byte{2}
	win := &window{
		fps: [][32]byte{good, wrong, good, {}, wrong, good},
		bad: []bool{false, false, false, true, false, false},
	}
	if got := win.failures(good); got != 3 {
		t.Errorf("failures = %d, want 3 (1 errored + 2 wrong)", got)
	}
	if want := []bool{false, true, false, true, true, false}; !reflect.DeepEqual(win.bad, want) {
		t.Errorf("failed ops = %v, want %v", win.bad, want)
	}
}

// A short real run of each cheap workload must verify every op.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	for _, w := range []string{"ingest_mine", "hot_read"} {
		for _, traced := range []bool{false, true} {
			res, err := run(config{workload: w, seed: 5, seconds: 1, trace: traced, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

func TestHostTrackStolen(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Samples every 100 ms: nothing stolen in the first interval, half
	// of what was asked for in the second, all of it in the third.
	tr := &hostTrack{
		at: []time.Time{at(0), at(100), at(200), at(300)},
		cpu: []hostCPU{
			{busy: 0, steal: 0},
			{busy: 10, steal: 0},
			{busy: 15, steal: 5},
			{busy: 15, steal: 15},
		},
	}
	cases := []struct {
		start, end int
		want       float64
	}{
		{10, 90, 0},      // inside the first interval
		{100, 200, 0.5},  // exactly the second
		{150, 250, 0.75}, // second and third: 15 stolen of 20
		{-50, 400, 0.5},  // outside the samples: clamped to all of them
		{250, 250, 1},    // an instant: the interval around it
		{300, 300, 1},    // at the last sample: the last interval
	}
	for _, c := range cases {
		if got := tr.stolen(at(c.start), at(c.end)); got != c.want {
			t.Errorf("stolen(%d, %d) = %v, want %v", c.start, c.end, got, c.want)
		}
	}
	if got := (&hostTrack{}).stolen(at(0), at(1)); got != 0 {
		t.Errorf("stolen with no samples = %v, want 0", got)
	}
}
