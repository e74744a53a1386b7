package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"dmc/internal/gen"
	"dmc/internal/matrix"
)

// Matrix shapes are fixed (generator seed genSeed) so every run mines
// exactly the same structure and costs the same; --seed only relabels
// columns and drives the request sequences. That keeps run-to-run cost
// identical across seeds while the program still never sees the same
// bytes twice under different seeds.
const genSeed = 1

// Fixed mining parameters, one shape per workload.
const (
	impPercent    = 85 // every implication mine
	simPercent    = 85 // ingest_mine and hot_read similarity mines
	jobSimPercent = 70 // job_stream similarity jobs
	appendRows    = 256
	hotCopies     = 64
)

// A label is "t" + a 5-character op tag + "." + a 4-character seeded
// column name, e.g. "t0000a.0k3f". Every label has the same width, so a
// rendered body can be re-tagged for the next op by overwriting the tag
// bytes in place instead of rendering it again.
const (
	tagWidth  = 5
	nameWidth = 4
	labelLen  = 1 + tagWidth + 1 + nameWidth
)

// tagString renders op tag k in base 36, zero-padded.
func tagString(k int) string {
	s := strconv.FormatInt(int64(k), 36)
	for len(s) < tagWidth {
		s = "0" + s
	}
	return s
}

// columnNames gives each of cols columns a distinct seeded name: a
// seeded permutation of 0..cols-1, rendered in base 36.
func columnNames(cols int, seed int64) []string {
	perm := rand.New(rand.NewSource(seed)).Perm(cols)
	names := make([]string, cols)
	for c, p := range perm {
		s := strconv.FormatInt(int64(p), 36)
		for len(s) < nameWidth {
			s = "0" + s
		}
		names[c] = s
	}
	return names
}

// body is a basket-format upload whose labels all carry one op tag.
type body struct {
	buf  []byte
	tags []int // offset of every label's tag
}

// renderBody writes rows [from, to) of m in basket format with labels
// built from names, tagged with tag 0.
func renderBody(m *matrix.Matrix, names []string, from, to int) *body {
	b := &body{}
	var buf bytes.Buffer
	zero := tagString(0)
	for i := from; i < to; i++ {
		for j, c := range m.Row(i) {
			if j > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteByte('t')
			b.tags = append(b.tags, buf.Len())
			buf.WriteString(zero)
			buf.WriteByte('.')
			buf.WriteString(names[c])
		}
		buf.WriteByte('\n')
	}
	b.buf = buf.Bytes()
	return b
}

// retag overwrites every label's tag with tag k.
func (b *body) retag(k int) {
	t := tagString(k)
	for _, off := range b.tags {
		copy(b.buf[off:off+tagWidth], t)
	}
}

// splitLabel checks that label carries tag and returns its column name.
func splitLabel(label, tag string) (string, error) {
	if len(label) != labelLen || label[0] != 't' || label[1+tagWidth] != '.' {
		return "", fmt.Errorf("label %q is not a benchmark label", label)
	}
	if label[1:1+tagWidth] != tag {
		return "", fmt.Errorf("label %q carries tag %q, want %q", label, label[1:1+tagWidth], tag)
	}
	return label[2+tagWidth:], nil
}

// inputs is everything a workload sends, generated from the seed.
type inputs struct {
	seed  int64
	shape string // generator and scale, for the run record
	m     *matrix.Matrix
	names []string
	// upload is the dataset body; extra is the ingest_mine append body
	// (nil elsewhere).
	upload, extra *body
	// keys holds each hot_read client's key sequence.
	keys [][]int
}

// makeInputs generates the workload's matrix and renders its bodies.
func makeInputs(workload string, seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	switch workload {
	case "ingest_mine":
		in.shape = "gen.Bench scale 1/64"
		in.m = gen.Bench(gen.Config{Scale: 1.0 / 64, Seed: genSeed})
		// The append draws rows from the same generator under another
		// seed, so they use the same columns.
		grow := gen.Bench(gen.Config{Scale: 1.0 / 64, Seed: genSeed + 1})
		in.names = columnNames(in.m.NumCols(), seed)
		in.extra = renderBody(grow, in.names, 0, appendRows)
	case "hot_read":
		in.shape = "gen.NewsPruned scale 0.05"
		in.m = gen.NewsPruned(gen.Config{Scale: 0.05, Seed: genSeed})
		in.names = columnNames(in.m.NumCols(), seed)
		for c := 0; c < hotClients; c++ {
			in.keys = append(in.keys, keySequence(seed, c, hotSeqLen))
		}
	case "job_stream":
		in.shape = "gen.News scale 0.05"
		in.m = gen.News(gen.Config{Scale: 0.05, Seed: genSeed})
		in.names = columnNames(in.m.NumCols(), seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want ingest_mine, hot_read or job_stream)", workload)
	}
	in.upload = renderBody(in.m, in.names, 0, in.m.NumRows())
	return in, nil
}

// keySequence is the seeded uniform sequence of hot_read dataset
// indices one client requests.
func keySequence(seed int64, client, n int) []int {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(hotCopies)
	}
	return seq
}
