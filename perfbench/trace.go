package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"structura/internal/wal"
)

// span is one traced interval around a call the benchmark makes into a
// layer. Spans of one request or batch share Req; Parent links a stage to
// the span that caused it.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while it is on and writes them out when the
// run ends. A nil or switched-off tracer records nothing.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children can name a parent that has not ended.
func (t *tracer) id() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved ID (0 reserves one now).
func (t *tracer) add(name string, id, parent, req int64, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	s := span{Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layers returns the layer prefixes (text before the first dot) that have
// at least one span.
func (t *tracer) layers() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer]++
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("close trace: %w", err)
	}
	return len(t.spans), nil
}

// timingFS wraps a wal.FS to count the bytes the log writes and time each
// fsync. The log is single-writer, but the counters are atomic so a
// replication sender reading the same store cannot race them.
type timingFS struct {
	wal.FS
	tr      *tracer
	batch   atomic.Int64 // request ID stamped on fsync spans
	written atomic.Int64
	syncNs  atomic.Int64
}

func (t *timingFS) Create(name string) (wal.File, error) {
	f, err := t.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

type timingFile struct {
	wal.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.fs.syncNs.Add(end.Sub(start).Nanoseconds())
	f.fs.tr.add("wal.fsync", 0, 0, f.fs.batch.Load(), start, end)
	return err
}
