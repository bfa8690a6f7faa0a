package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path"
	"runtime"
	"time"

	"structura/internal/graph"
	"structura/internal/heal"
	"structura/internal/replica"
	"structura/internal/server"
	"structura/internal/stats"
	"structura/internal/wal"
)

// labelSetOf is the durable label epoch of a published epoch — what the
// server journals after every batch.
func labelSetOf(ep *server.Epoch) *wal.LabelSet {
	next := make([]int32, len(ep.RouteNext))
	for i, v := range ep.RouteNext {
		next[i] = int32(v)
	}
	ls := &wal.LabelSet{Dest: ep.Dest, Dist: ep.RouteDist, Next: next, MIS: ep.MIS}
	if ep.CDS != nil {
		ls.HasCDS, ls.CDS = true, ep.CDS
	}
	return ls
}

// durable runs the recovery phases after the server has stopped: repeated
// cold replica catch-ups from a primary over the store, then repeated
// restarts from it. write-churn uses the store the server journaled on
// disk, whose log holds the batches since the last compaction; the other
// workloads first write the store a journaled server over the final graph
// would hold after a clean restart: one snapshot carrying the labels.
//
// Replicas and restarted servers keep their stores in a wal.MemFS, which
// runs the same code path with POSIX durability semantics but without the
// shared disk's fsync latency, which varied more from run to run than the
// work being measured. wal.Open compacts the store into a new generation,
// so every restart opens a fresh in-memory copy of the store as the
// catch-ups left it and replays the same log tail.
func (b *bench) durable() error {
	l, fsys, dir := b.log, wal.OS(), b.walDir
	if l == nil {
		mem := wal.NewMemFS()
		fsys, dir = mem, storeDir
		var err error
		if l, err = b.finalStore(mem); err != nil {
			return fmt.Errorf("recovery store: %w", err)
		}
	}
	b.log = nil
	err := b.catchUps(l)
	if cerr := l.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close store: %w", cerr)
	}
	if err != nil {
		return err
	}
	files, err := readStore(fsys, dir)
	if err != nil {
		return err
	}
	err = repeat(func(i int) error {
		if err := b.restart(loadStore(files), i); err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		return nil
	})
	if err != nil || !b.traced {
		return err
	}
	return b.recoveryLayers(loadStore(files))
}

// storeDir is the directory of every in-memory store.
const storeDir = "store"

// memOpts is journalOpts over fsys.
func memOpts(fsys wal.FS) wal.Options {
	o := journalOpts
	o.FS = fsys
	return o
}

// Each recovery phase repeats at least minReps times, and more until it has
// run for repSpan, so a slow stretch of a shared host moves a minority of
// the samples; the count is odd, so the median is one sample.
const (
	minReps = 21
	maxReps = 1001
	repSpan = 5 * time.Second
)

func repeat(fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < maxReps; i++ {
		if i >= minReps && i%2 == 1 && time.Since(start) >= repSpan {
			break
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// readStore returns the contents of the flat store directory dir.
func readStore(fsys wal.FS, dir string) (map[string][]byte, error) {
	names, err := fsys.List(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		if files[name], err = fsys.ReadFile(path.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// loadStore returns a MemFS whose storeDir durably holds files.
func loadStore(files map[string][]byte) *wal.MemFS {
	mem := wal.NewMemFS()
	for name, data := range files {
		f, _ := mem.Create(path.Join(storeDir, name)) // MemFS writes cannot fail
		f.Write(data)
		f.Sync()
		f.Close()
	}
	mem.SyncDir(storeDir)
	return mem
}

// finalStore writes the final graph and labels to a new store in mem and
// reopens it, which folds the label journal into the snapshot.
func (b *bench) finalStore(mem *wal.MemFS) (*wal.Log, error) {
	start := time.Now()
	l, err := wal.Create(storeDir, b.ref, memOpts(mem))
	if err != nil {
		return nil, err
	}
	_, err = l.AppendLabels(labelSetOf(b.final))
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	b.tr.add("wal.create", 0, 0, 0, start, time.Now())
	l, _, err = wal.Open(storeDir, memOpts(mem))
	return l, err
}

type replicaSummary struct {
	Edges     int    `json:"edges"`
	GraphHash string `json:"graph_hash"`
}

// catchUps starts a replication primary over l and times cold replicas
// until each has applied the primary's last committed batch and mirrored
// its durable bytes.
func (b *bench) catchUps(l *wal.Log) error {
	_, snap, err := l.SnapshotBytes()
	if err != nil {
		return err
	}
	_, durable, seq := l.ReplState()
	b.snapBytes, b.logBytes = len(snap), durable
	p, err := replica.NewPrimary(l, "127.0.0.1:0", replica.PrimaryOptions{})
	if err != nil {
		return err
	}
	defer p.Close()
	return repeat(func(i int) error {
		runtime.GC() // start every repetition from the same heap state
		start := time.Now()
		r, err := replica.New(storeDir, p.Addr(), replica.Options{
			WAL: wal.Options{Sync: journalOpts.Sync, FS: wal.NewMemFS()}, Dest: b.sp.cfg.Dest, SkipCDS: b.sp.cfg.SkipCDS,
		})
		if err != nil {
			return fmt.Errorf("replica: %w", err)
		}
		runDone := make(chan error, 1)
		go func() { runDone <- r.Run() }()
		err = waitApplied(r, seq, durable)
		end := time.Now()
		if err == nil {
			b.catchup.addDur(end.Sub(start), time.Millisecond)
			b.tr.add("replica.catchup", 0, 0, int64(i+1), start, end)
			err = b.checkReplica(r)
		}
		r.Stop()
		if rerr := <-runDone; err == nil && rerr != nil {
			err = fmt.Errorf("replica run: %w", rerr)
		}
		return err
	})
}

// waitApplied polls the replica cursor; nothing else runs during catch-up,
// so the poll takes no core from measured work.
func waitApplied(r *replica.Replica, seq uint64, durable int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		s, d := r.Applied()
		if s >= seq && d >= durable {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at seq %d/%d bytes %d/%d", s, seq, d, durable)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// checkReplica compares the replica's /labels?hash=1 with the reference.
func (b *bench) checkReplica(r *replica.Replica) error {
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/labels?hash=1", nil))
	var sum replicaSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil || rec.Code != http.StatusOK {
		return fmt.Errorf("replica /labels?hash=1 answered %d: %s", rec.Code, rec.Body.String())
	}
	if err := checkHash(b.refHash, b.ref.M(), sum.GraphHash, sum.Edges); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	return nil
}

// restart times one clean restart, wal.Open through server.New returning,
// then checks it warm-started into the pre-shutdown state.
func (b *bench) restart(mem *wal.MemFS, i int) error {
	cfg := b.serverConfig()
	runtime.GC() // start every repetition from the same heap state
	start := time.Now()
	l, rec, err := wal.Open(storeDir, memOpts(mem))
	if err != nil {
		return err
	}
	opened := time.Now()
	cfg.WAL, cfg.Recovered = l, &rec
	srv, err := server.New(l.Graph(), cfg)
	if err != nil {
		l.Close()
		return err
	}
	ready := time.Now()
	req := int64(i + 1)
	b.tr.add("wal.open", 0, 0, req, start, opened)
	b.tr.add("server.new", 0, 0, req, opened, ready)
	b.restartReady.addDur(ready.Sub(start), time.Millisecond)
	b.walOpen.addDur(opened.Sub(start), time.Millisecond)
	b.replayRecords.add(float64(rec.Replayed))
	err = b.checkRestart(srv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); err == nil && serr != nil {
		err = serr
	}
	if cerr := l.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

func (b *bench) checkRestart(srv *server.Server) error {
	if _, _, warm, _ := srv.ReadySummary(); !warm {
		return fmt.Errorf("server did not warm-start from the durable label epoch")
	}
	ep := srv.Epoch()
	if got := hashHex(wal.CSRHash(ep.CSR)); got != b.refHash {
		return fmt.Errorf("restarted topology hash %s, pre-shutdown %s", got, b.refHash)
	}
	r := stats.NewRand(streamSeed(b.seed, streamOracle))
	for i := 0; i < 50; i++ {
		from := r.Intn(b.ref.N())
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/route?from=%d", from), nil))
		var a routeAnswer
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("restarted /route?from=%d answered %d", from, rec.Code)
		}
		want := b.final.RouteDist[from]
		if math.IsInf(want, 1) {
			want = -1
		}
		if a.Dist != want {
			return fmt.Errorf("restarted /route?from=%d dist %v, pre-shutdown %v", from, a.Dist, want)
		}
		if err := checkRoutePath(b.ref, b.refDist, ep.Dest, from, a.Dist, a.Path); err != nil {
			return fmt.Errorf("restarted: %w", err)
		}
	}
	return nil
}

// recoveryLayers times the recovery stages one at a time on the store the
// restarts used: snapshot decode, and the warm start — the *FromLabels
// constructors plus HealDirty — on clones of the recovered graph.
func (b *bench) recoveryLayers(mem *wal.MemFS) error {
	l, rec, err := wal.Open(storeDir, memOpts(mem))
	if err != nil {
		return err
	}
	defer l.Close()
	_, snap, err := l.SnapshotBytes()
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, _, _, _, err := wal.DecodeSnapshotLabels(snap)
		end := time.Now()
		if err != nil {
			return err
		}
		b.snapDecode.addDur(end.Sub(start), time.Millisecond)
		b.tr.add("graph.snapshot_decode", 0, 0, 0, start, end)
	}
	ls := rec.Labels
	if ls == nil {
		return fmt.Errorf("recovered store has no label epoch")
	}
	g := l.Graph()
	clones := []*graph.Graph{b.timedClone(g), b.timedClone(g)}
	if ls.HasCDS {
		clones = append(clones, b.timedClone(g))
	}
	start := time.Now()
	next := make([]int, len(ls.Next))
	for i, v := range ls.Next {
		next[i] = int(v)
	}
	dv, err := heal.NewDistVecEngineFromLabels(clones[0], ls.Dest, ls.Dist, next)
	if err != nil {
		return err
	}
	mis, err := heal.NewMISEngineFromLabels(clones[1], ls.MIS)
	if err != nil {
		return err
	}
	budget := b.sp.cfg.RepairBudget
	sups := []*heal.Supervisor{{Engine: dv, Budget: budget}, {Engine: mis, Budget: budget}}
	if ls.HasCDS {
		cds, err := heal.NewCDSEngineFromLabels(clones[2], ls.CDS)
		if err != nil {
			return err
		}
		sups = append(sups, &heal.Supervisor{Engine: cds, Budget: budget})
	}
	for _, s := range sups {
		if _, err := s.HealDirty(rec.Dirty); err != nil {
			return err
		}
	}
	end := time.Now()
	b.warmStart = end.Sub(start)
	b.tr.add("heal.warm_start", 0, 0, 0, start, end)
	return nil
}
