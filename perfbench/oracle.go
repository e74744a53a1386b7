package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"sort"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
	"dmc/internal/server"
)

// The oracle. Every op leaves a transcript: the parts of its responses
// that must be exact (dataset shape, rule totals, the listed rules with
// the op's label tag stripped, the serving source, job result bytes),
// but not timings such as elapsed_ms. The run tallies transcript hashes
// and, after the timed window, compares each distinct hash with the
// transcript the reference rules predict. The reference is computed
// with the serial resident engine and checked against the brute-force
// core.Naive* miners; none of that is inside setup or the timed window.

type transcript struct{ h hash.Hash }

func newTranscript() *transcript { return &transcript{h: sha256.New()} }

func (t *transcript) line(format string, args ...any) { fmt.Fprintf(t.h, format+"\n", args...) }

func (t *transcript) sum() [32]byte {
	var out [32]byte
	copy(out[:], t.h.Sum(nil))
	return out
}

func (t *transcript) info(kind string, inf server.DatasetInfo) {
	t.line("%s rows=%d cols=%d ones=%d labeled=%v streamed=%v durable=%v",
		kind, inf.Rows, inf.Cols, inf.Ones, inf.Labeled, inf.Streamed, inf.Durable)
}

// imps writes an implication response, checking that every label
// carries tag.
func (t *transcript) imps(kind, tag string, r server.MineResponse[server.ImplicationWire]) error {
	t.line("%s t=%d total=%d truncated=%v source=%q n=%d", kind, r.Threshold, r.Total, r.Truncated, r.Source, len(r.Rules))
	for _, w := range r.Rules {
		from, err := splitLabel(w.From, tag)
		if err != nil {
			return err
		}
		to, err := splitLabel(w.To, tag)
		if err != nil {
			return err
		}
		t.line("%s %s %d %d %v", from, to, w.Hits, w.Ones, w.Confidence)
	}
	return nil
}

func (t *transcript) sims(kind, tag string, r server.MineResponse[server.SimilarityWire]) error {
	t.line("%s t=%d total=%d truncated=%v source=%q n=%d", kind, r.Threshold, r.Total, r.Truncated, r.Source, len(r.Rules))
	for _, w := range r.Rules {
		a, err := splitLabel(w.A, tag)
		if err != nil {
			return err
		}
		b, err := splitLabel(w.B, tag)
		if err != nil {
			return err
		}
		t.line("%s %s %d %d %d %v", a, b, w.Hits, w.OnesA, w.OnesB, w.Similarity)
	}
	return nil
}

// jobResult writes a finished job's rule count and result bytes.
func (t *transcript) jobResult(kind string, state string, nrules int, payload []byte) {
	t.line("%s state=%s rules=%d payload=%x", kind, state, nrules, sha256.Sum256(payload))
}

// decodeInto unmarshals a response body, naming the call on failure.
func decodeInto(call string, body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: decoding response: %w", call, err)
	}
	return nil
}

// infoOf is the DatasetInfo the server reports for m.
func infoOf(m *matrix.Matrix, streamed bool) server.DatasetInfo {
	return server.DatasetInfo{
		Rows: m.NumRows(), Cols: m.NumCols(), Ones: m.NumOnes(),
		Labeled: m.Labels() != nil, Streamed: streamed, Durable: true,
	}
}

// refImps renders reference rules as the server does: confidence
// descending, then column ids, cut at limit.
func refImps(m *matrix.Matrix, rs []rules.Implication, threshold, limit int, source string) server.MineResponse[server.ImplicationWire] {
	rs = append([]rules.Implication(nil), rs...)
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Confidence() != rs[j].Confidence() {
			return rs[i].Confidence() > rs[j].Confidence()
		}
		if rs[i].From != rs[j].From {
			return rs[i].From < rs[j].From
		}
		return rs[i].To < rs[j].To
	})
	resp := server.MineResponse[server.ImplicationWire]{Threshold: threshold, Total: len(rs), Source: source}
	for i, r := range rs {
		if i == limit {
			resp.Truncated = true
			break
		}
		resp.Rules = append(resp.Rules, server.ImplicationWire{
			From: m.Label(r.From), To: m.Label(r.To), Confidence: r.Confidence(), Hits: r.Hits, Ones: r.Ones,
		})
	}
	return resp
}

// refSims is refImps for similarity rules, oriented as the server
// orients them (fewer ones first, then the lower id).
func refSims(m *matrix.Matrix, rs []rules.Similarity, threshold, limit int, source string) server.MineResponse[server.SimilarityWire] {
	rs = append([]rules.Similarity(nil), rs...)
	for i := range rs {
		if rs[i].OnesB < rs[i].OnesA || (rs[i].OnesB == rs[i].OnesA && rs[i].B < rs[i].A) {
			rs[i].A, rs[i].B = rs[i].B, rs[i].A
			rs[i].OnesA, rs[i].OnesB = rs[i].OnesB, rs[i].OnesA
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Value() != rs[j].Value() {
			return rs[i].Value() > rs[j].Value()
		}
		if rs[i].A != rs[j].A {
			return rs[i].A < rs[j].A
		}
		return rs[i].B < rs[j].B
	})
	resp := server.MineResponse[server.SimilarityWire]{Threshold: threshold, Total: len(rs), Source: source}
	for i, r := range rs {
		if i == limit {
			resp.Truncated = true
			break
		}
		resp.Rules = append(resp.Rules, server.SimilarityWire{
			A: m.Label(r.A), B: m.Label(r.B), Similarity: r.Value(), Hits: r.Hits, OnesA: r.OnesA, OnesB: r.OnesB,
		})
	}
	return resp
}

// mineChecked mines m with the serial resident engine and checks the
// result against the brute-force miners.
func mineImpChecked(m *matrix.Matrix, percent int) ([]rules.Implication, error) {
	t := core.FromPercent(percent)
	got, _ := core.DMCImp(m, t, core.Options{})
	want := core.NaiveImplications(m, t)
	rules.SortImplications(got)
	rules.SortImplications(want)
	if d := rules.DiffImplications(got, want); d != "" {
		return nil, fmt.Errorf("reference implications at %d%% disagree with the naive miner: %s", percent, d)
	}
	return got, nil
}

func mineSimChecked(m *matrix.Matrix, percent int) ([]rules.Similarity, error) {
	t := core.FromPercent(percent)
	got, _ := core.DMCSim(m, t, core.Options{})
	want := core.NaiveSimilarities(m, t)
	rules.SortSimilarities(got)
	rules.SortSimilarities(want)
	if d := rules.DiffSimilarities(got, want); d != "" {
		return nil, fmt.Errorf("reference similarities at %d%% disagree with the naive miner: %s", percent, d)
	}
	return got, nil
}

// impPayload renders rules as a job result: sorted, in the rule-file
// format.
func impPayload(rs []rules.Implication) []byte {
	rs = append([]rules.Implication(nil), rs...)
	rules.SortImplications(rs)
	var b bytes.Buffer
	_ = rules.WriteImplications(&b, rs) // a bytes.Buffer does not fail
	return b.Bytes()
}

func simPayload(rs []rules.Similarity) []byte {
	rs = append([]rules.Similarity(nil), rs...)
	rules.SortSimilarities(rs)
	var b bytes.Buffer
	_ = rules.WriteSimilarities(&b, rs)
	return b.Bytes()
}
