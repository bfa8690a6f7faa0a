package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"structura/internal/centrality"
	"structura/internal/graph"
	"structura/internal/heal"
	"structura/internal/server"
	"structura/internal/sim"
	"structura/internal/wal"
)

// Write-path stages the shadow pipeline times, in the server's order.
const (
	stAppend = iota
	stDistVec
	stMIS
	stCDS
	stExport
	stLabelJournal
	stFreeze
	stRanking
	nStages
)

var stageNames = [nStages]string{
	"wal.append", "heal.apply.distvec", "heal.apply.mis", "heal.apply.cds",
	"server.label_export", "wal.append_labels", "graph.freeze", "centrality.ranking",
}

// shadowStats is what the shadow pipeline measured.
type shadowStats struct {
	stage      [nStages]dist // ms per batch
	perPost    dist          // ms per post: every stage of every batch it was split into
	fsync      dist          // ms per fsync
	compact    dist          // ms per Append that ran a compaction
	compacts   int
	bytesPerOp float64

	repairs, escalations, touched int
	batches                       int

	dvBuild, misBuild, cdsBuild time.Duration
	cdsSizeFrac                 float64
}

// engines are one set of supervised engines, each over its own clone, as
// the server builds them.
type engines struct {
	dv, mis, cds heal.Engine
	sups         []*heal.Supervisor
}

func (e *engines) export(dest int) *wal.LabelSet {
	dist, next := e.dv.(interface{ RouteLabels() ([]float64, []int) }).RouteLabels()
	n32 := make([]int32, len(next))
	for i, v := range next {
		n32[i] = int32(v)
	}
	ls := &wal.LabelSet{Dest: dest, Dist: dist, Next: n32, MIS: e.mis.(interface{ MISLabels() []bool }).MISLabels()}
	if e.cds != nil {
		ls.HasCDS, ls.CDS = true, e.cdsMembers(len(dist))
	}
	return ls
}

func (e *engines) cdsMembers(n int) []bool {
	bm := make([]bool, n)
	for _, v := range e.cds.(interface{ CDSMembers() []int }).CDSMembers() {
		bm[v] = true
	}
	return bm
}

// shadow replays the exact batch sequence the server applied — each post
// split where the server's epochs split it — through the same public calls
// in server.applyBatch's order, timing each stage: WAL append under the
// same filesystem policy, ApplyBatch per supervisor over its own clone,
// label export and journal, CSR freeze, and degree ranking. It runs after
// the server has stopped, so it competes with nothing. Its final route
// distances, MIS and topology hash must equal the server's final epoch.
func (b *bench) shadow() (*shadowStats, error) {
	st := &shadowStats{}
	g0, err := b.sp.graph(b.seed)
	if err != nil {
		return nil, err
	}
	cfg := b.sp.cfg
	ctx := context.Background()
	e := &engines{}
	dvG, misG := b.timedClone(g0), b.timedClone(g0)
	start := time.Now()
	if e.dv, err = heal.NewDistVecEngineOver(dvG, cfg.Dest); err != nil {
		return nil, err
	}
	st.dvBuild = b.span("heal.distvec_build", start)
	start = time.Now()
	if e.mis, err = heal.NewMISEngineOver(misG); err != nil {
		return nil, err
	}
	st.misBuild = b.span("labeling.mis_build", start)
	e.sups = []*heal.Supervisor{
		{Engine: e.dv, Budget: cfg.RepairBudget, Ctx: ctx},
		{Engine: e.mis, Budget: cfg.RepairBudget, Ctx: ctx},
	}
	if !cfg.SkipCDS {
		cdsG := b.timedClone(g0)
		start = time.Now()
		if e.cds, err = heal.NewCDSEngineOver(cdsG); err != nil {
			return nil, err
		}
		st.cdsBuild = b.span("labeling.cds_build", start)
		e.sups = append(e.sups, &heal.Supervisor{Engine: e.cds, Budget: cfg.RepairBudget, Ctx: ctx})
	}

	var l *wal.Log
	tfs := &timingFS{FS: wal.OS(), tr: b.tr}
	if b.sp.journaled {
		dir, err := b.tempDir("shadow")
		if err != nil {
			return nil, err
		}
		if l, err = wal.Create(dir, g0, wal.Options{
			FS: tfs, Sync: journalOpts.Sync, CompactEvery: journalOpts.CompactEvery,
		}); err != nil {
			return nil, err
		}
		defer l.Close()
		if _, err := l.AppendLabels(e.export(cfg.Dest)); err != nil {
			return nil, err
		}
	}
	written0 := tfs.written.Load()
	ops := 0
	for _, p := range b.posts {
		var post float64
		prev := 0
		for _, cut := range p.cuts {
			ms, err := b.shadowBatch(st, e, l, tfs, p.ops[prev:cut])
			if err != nil {
				return nil, err
			}
			post += ms
			ops += cut - prev
			prev = cut
		}
		st.perPost.add(post)
	}
	if l != nil {
		st.bytesPerOp = float64(tfs.written.Load()-written0) / math.Max(1, float64(ops))
		st.compacts = int(l.Metrics().Compactions)
	}

	final := b.final
	dist, _ := e.dv.(interface{ RouteLabels() ([]float64, []int) }).RouteLabels()
	if !slices.Equal(dist, final.RouteDist) {
		return nil, fmt.Errorf("shadow route distances differ from the server's final epoch")
	}
	if !slices.Equal(e.mis.(interface{ MISLabels() []bool }).MISLabels(), final.MIS) {
		return nil, fmt.Errorf("shadow MIS differs from the server's final epoch")
	}
	if got := hashHex(wal.GraphHash(e.dv.Live())); got != hashHex(wal.CSRHash(final.CSR)) {
		return nil, fmt.Errorf("shadow topology hash %s differs from the server's final epoch", got)
	}
	if e.cds != nil {
		st.cdsSizeFrac = float64(final.CDSSize) / float64(final.CSR.N())
	}
	return st, nil
}

// shadowBatch runs one batch through every write stage and returns the
// milliseconds the stages took together.
func (b *bench) shadowBatch(st *shadowStats, e *engines, l *wal.Log, tfs *timingFS, batch []server.Mutation) (float64, error) {
	st.batches++
	bid := b.tr.id()
	tfs.batch.Store(bid)
	bStart := time.Now()
	var took [nStages]time.Duration
	stage := func(s int, start time.Time) {
		end := time.Now()
		took[s] += end.Sub(start)
		b.tr.add(stageNames[s], 0, bid, bid, start, end)
	}

	if l != nil {
		recs := make([]wal.Record, 0, len(batch))
		for _, m := range batch {
			t := wal.TAddEdge
			if m.Op == "remove" {
				t = wal.TRemoveEdge
			}
			recs = append(recs, wal.Record{Type: t, U: int32(m.U), V: int32(m.V), Weight: 1})
		}
		syncNs, compacts := tfs.syncNs.Load(), l.Metrics().Compactions
		start := time.Now()
		if _, err := l.Append(recs); err != nil {
			return 0, err
		}
		stage(stAppend, start)
		st.fsync.addDur(time.Duration(tfs.syncNs.Load()-syncNs), time.Millisecond)
		if l.Metrics().Compactions > compacts {
			st.compact.addDur(took[stAppend], time.Millisecond)
		}
	}
	events := make([]sim.Event, 0, len(batch))
	for _, m := range batch {
		op := sim.OpAddEdge
		if m.Op == "remove" {
			op = sim.OpRemoveEdge
		}
		events = append(events, sim.Event{Round: 1, Op: op, U: m.U, V: m.V})
	}
	for i, sup := range e.sups {
		start := time.Now()
		rep, err := sup.ApplyBatch(events)
		if err != nil {
			return 0, err
		}
		stage(stDistVec+i, start)
		st.repairs += rep.Repairs
		st.escalations += rep.Escalations
		st.touched += rep.RepairTouched
	}
	dest := b.sp.cfg.Dest
	if l != nil {
		start := time.Now()
		ls := e.export(dest)
		stage(stExport, start)
		start = time.Now()
		if _, err := l.AppendLabels(ls); err != nil {
			return 0, err
		}
		stage(stLabelJournal, start)
	}

	// buildEpoch: freeze, label copies, degree ranking.
	start := time.Now()
	csr := e.dv.Live().Freeze()
	stage(stFreeze, start)
	start = time.Now()
	e.dv.(interface{ RouteLabels() ([]float64, []int) }).RouteLabels()
	e.mis.(interface{ MISLabels() []bool }).MISLabels()
	if e.cds != nil {
		e.cdsMembers(csr.N())
	}
	stage(stExport, start)
	start = time.Now()
	deg := make([]float64, csr.N())
	for v := range deg {
		deg[v] = float64(csr.Degree(v))
	}
	centrality.Ranking(deg)
	stage(stRanking, start)

	b.tr.add("server.batch", bid, 0, bid, bStart, time.Now())
	total := 0.0
	for s := range took {
		if took[s] > 0 {
			st.stage[s].addDur(took[s], time.Millisecond)
		}
		total += float64(took[s]) / float64(time.Millisecond)
	}
	return total, nil
}

// timedClone clones g, recording the clone time.
func (b *bench) timedClone(g *graph.Graph) *graph.Graph {
	start := time.Now()
	c := g.Clone()
	b.cloneMs.addDur(b.span("graph.clone", start), time.Millisecond)
	return c
}

// span records a span from start to now and returns its duration.
func (b *bench) span(name string, start time.Time) time.Duration {
	end := time.Now()
	b.tr.add(name, 0, 0, 0, start, end)
	return end.Sub(start)
}
