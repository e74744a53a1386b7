package main

import (
	"path/filepath"
	"sync/atomic"

	"dmc/internal/fault"
)

// fsProbe is a counting, timing fault.FS over the real filesystem. The
// benchmark hands one to store.Open and one to cache.Open, so every
// durable operation those layers make is counted here — and, in a
// traced run, recorded as a span named "<layer>.<op>".
type fsProbe struct {
	layer   string  // "store" or "cache": span name prefix
	journal string  // base name of the layer's journal file
	tr      *tracer // nil: count only

	bytesWritten atomic.Int64
	fsyncs       atomic.Int64 // file Syncs plus SyncDir
	compactions  atomic.Int64 // renames onto the journal
}

func newFSProbe(layer, journal string, tr *tracer) *fsProbe {
	return &fsProbe{layer: layer, journal: journal, tr: tr}
}

// fsCounts is a snapshot of a probe's counters.
type fsCounts struct {
	Fsyncs, BytesWritten, Compactions int64
}

func (p *fsProbe) counts() fsCounts {
	return fsCounts{Fsyncs: p.fsyncs.Load(), BytesWritten: p.bytesWritten.Load(), Compactions: p.compactions.Load()}
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{c.Fsyncs - o.Fsyncs, c.BytesWritten - o.BytesWritten, c.Compactions - o.Compactions}
}

// timed runs f inside a span named layer.op (when tracing).
func (p *fsProbe) timed(op string, f func() error) error {
	defer p.tr.begin(p.layer + "." + op)()
	return f()
}

func (p *fsProbe) Create(name string) (fault.File, error) {
	var f fault.File
	err := p.timed("create", func() (err error) { f, err = fault.OS.Create(name); return })
	return p.wrap(f, err)
}

func (p *fsProbe) Open(name string) (fault.File, error) {
	var f fault.File
	err := p.timed("open", func() (err error) { f, err = fault.OS.Open(name); return })
	return p.wrap(f, err)
}

func (p *fsProbe) Append(name string) (fault.File, error) {
	var f fault.File
	err := p.timed("append", func() (err error) { f, err = fault.OS.Append(name); return })
	return p.wrap(f, err)
}

func (p *fsProbe) Rename(oldpath, newpath string) error {
	if filepath.Base(newpath) == p.journal {
		p.compactions.Add(1)
	}
	return p.timed("rename", func() error { return fault.OS.Rename(oldpath, newpath) })
}

func (p *fsProbe) SyncDir(dir string) error {
	p.fsyncs.Add(1)
	return p.timed("fsync", func() error { return fault.SyncDir(fault.OS, dir) })
}

func (p *fsProbe) wrap(f fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &probeFile{File: f, p: p}, nil
}

// probeFile counts the writes and syncs made through one handle.
type probeFile struct {
	fault.File
	p *fsProbe
}

func (f *probeFile) Write(b []byte) (int, error) {
	var n int
	err := f.p.timed("write", func() (err error) { n, err = f.File.Write(b); return })
	f.p.bytesWritten.Add(int64(n))
	return n, err
}

func (f *probeFile) Sync() error {
	f.p.fsyncs.Add(1)
	return f.p.timed("fsync", f.File.Sync)
}
