package main

import (
	"slices"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/heal"
	"structura/internal/server"
	"structura/internal/stats"
	"structura/internal/wal"
)

// oracleFixture is a small connected graph with correct answers computed by
// the same engines the server runs.
type oracleFixture struct {
	ref     *graph.Graph
	dest    int
	refDist []int32
	dist    []float64
	next    []int
	mis     []bool
}

func newOracleFixture(t *testing.T) *oracleFixture {
	t.Helper()
	ref, err := gen.WattsStrogatz(stats.NewRand(5), 60, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := heal.NewDistVecEngineOver(ref.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mis, err := heal.NewMISEngineOver(ref.Clone())
	if err != nil {
		t.Fatal(err)
	}
	dist, next := dv.(interface{ RouteLabels() ([]float64, []int) }).RouteLabels()
	f := &oracleFixture{
		ref: ref, dest: 0, refDist: bfs(ref, 0),
		dist: dist, next: next,
		mis: mis.(interface{ MISLabels() []bool }).MISLabels(),
	}
	if err := checkRouteLabels(f.ref, f.refDist, f.dest, f.dist, f.next); err != nil {
		t.Fatalf("correct route labels rejected: %v", err)
	}
	if err := checkMIS(f.ref, f.mis); err != nil {
		t.Fatalf("correct mis rejected: %v", err)
	}
	return f
}

func TestOracleRejectsWrongNextHop(t *testing.T) {
	f := newOracleFixture(t)
	// Point a node at a neighbor that does not descend the BFS distance.
	for v := range f.next {
		if v == f.dest {
			continue
		}
		for _, u := range f.ref.Neighbors(v) {
			if f.refDist[u] >= f.refDist[v] {
				next := slices.Clone(f.next)
				next[v] = u
				if err := checkRouteLabels(f.ref, f.refDist, f.dest, f.dist, next); err == nil {
					t.Fatalf("next hop %d→%d (dist %d→%d) accepted", v, u, f.refDist[v], f.refDist[u])
				}
				return
			}
		}
	}
	t.Fatal("fixture has no non-descending neighbor to plant")
}

func TestOracleRejectsWrongRoutePath(t *testing.T) {
	f := newOracleFixture(t)
	from := 30
	path := []int{from}
	for v := from; v != f.dest; v = f.next[v] {
		path = append(path, f.next[v])
	}
	if err := checkRoutePath(f.ref, f.refDist, f.dest, from, float64(len(path)-1), path); err != nil {
		t.Fatalf("correct path rejected: %v", err)
	}
	bad := slices.Clone(path)
	bad[1] = bad[len(bad)-1] // jump straight to dest: not an edge
	if err := checkRoutePath(f.ref, f.refDist, f.dest, from, float64(len(path)-1), bad); err == nil {
		t.Fatal("path with a non-edge hop accepted")
	}
}

func TestOracleRejectsAdjacentMISMembers(t *testing.T) {
	f := newOracleFixture(t)
	for v, in := range f.mis {
		if !in {
			continue
		}
		u := f.ref.Neighbors(v)[0]
		mis := slices.Clone(f.mis)
		mis[u] = true
		if err := checkMIS(f.ref, mis); err == nil {
			t.Fatalf("adjacent members %d and %d accepted", v, u)
		}
		return
	}
}

func TestOracleRejectsNonMaximalMIS(t *testing.T) {
	f := newOracleFixture(t)
	mis := slices.Clone(f.mis)
	for v := range mis {
		if mis[v] {
			mis[v] = false
			break
		}
	}
	if err := checkMIS(f.ref, mis); err == nil {
		t.Fatal("mis with a member removed accepted")
	}
}

func TestOracleRejectsMisorderedTopK(t *testing.T) {
	f := newOracleFixture(t)
	got := topK(f.ref, 16)
	if err := checkTopK(f.ref, got); err != nil {
		t.Fatalf("correct top-k rejected: %v", err)
	}
	got[3], got[4] = got[4], got[3]
	if got[3] == got[4] {
		t.Fatal("swap planted nothing")
	}
	if err := checkTopK(f.ref, got); err == nil {
		t.Fatal("mis-ordered top-k accepted")
	}
}

func TestOracleRejectsHashOffByOneEdge(t *testing.T) {
	f := newOracleFixture(t)
	refHash := hashHex(wal.GraphHash(f.ref))
	if err := checkHash(refHash, f.ref.M(), hashHex(wal.CSRHash(f.ref.Freeze())), f.ref.M()); err != nil {
		t.Fatalf("identical topology rejected: %v", err)
	}
	other := f.ref.Clone()
	e := other.Edges()[0]
	other.RemoveEdge(e.From, e.To)
	if err := checkHash(refHash, f.ref.M(), hashHex(wal.GraphHash(other)), other.M()); err == nil {
		t.Fatal("topology missing one edge accepted")
	}
	// The same edge count with one edge moved must still be caught by the hash.
	moved := other.Clone()
	for v := 0; v < moved.N(); v++ {
		if v != e.From && v != e.To && !moved.HasEdge(e.From, v) {
			_ = moved.AddEdge(e.From, v)
			break
		}
	}
	if moved.M() != f.ref.M() {
		t.Fatal("fixture has no free edge to move")
	}
	if err := checkHash(refHash, f.ref.M(), hashHex(wal.GraphHash(moved)), moved.M()); err == nil {
		t.Fatal("topology with one edge moved accepted")
	}
}

func TestOracleRejectsBrokenCDS(t *testing.T) {
	f := newOracleFixture(t)
	all := make([]bool, f.ref.N())
	for i := range all {
		all[i] = true
	}
	if err := checkCDS(f.ref, all); err != nil {
		t.Fatalf("every node as backbone rejected: %v", err)
	}
	// The MIS dominates but, on this sparse ring lattice, does not induce a
	// connected subgraph.
	if err := checkCDS(f.ref, f.mis); err == nil {
		t.Fatal("independent set accepted as a connected backbone")
	}
	none := make([]bool, f.ref.N())
	none[0] = true
	if err := checkCDS(f.ref, none); err == nil {
		t.Fatal("single node accepted as a dominating backbone")
	}
}

func TestOracleRejectsWrongKhop(t *testing.T) {
	f := newOracleFixture(t)
	want := ball(f.ref, 7, 2)
	if err := checkKhop(f.ref, 7, 2, want); err != nil {
		t.Fatalf("correct ball rejected: %v", err)
	}
	if err := checkKhop(f.ref, 7, 2, want[1:]); err == nil {
		t.Fatal("ball missing a node accepted")
	}
}

func TestAppliedPrefixReconstructsBatchSplits(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		_ = g.AddEdge(e[0], e[1])
	}
	ops := []server.Mutation{{Op: "remove", U: 0, V: 1}, {Op: "add", U: 3, V: 4}, {Op: "add", U: 4, V: 5}}
	for k := 0; k <= len(ops); k++ {
		h := g.Clone()
		applyOps(h, ops[:k])
		if got := appliedPrefix(h.Freeze(), ops); got != k {
			t.Fatalf("epoch after %d ops read as prefix %d", k, got)
		}
	}
	h := g.Clone()
	applyOps(h, ops[1:2]) // the add without the remove before it
	if got := appliedPrefix(h.Freeze(), ops); got != -1 {
		t.Fatalf("non-prefix epoch read as prefix %d", got)
	}
	for _, c := range []struct {
		cuts []int
		ok   bool
	}{{[]int{3}, true}, {[]int{1, 3}, true}, {nil, false}, {[]int{0, 3}, false}, {[]int{2, 2, 3}, false}, {[]int{-1, 3}, false}, {[]int{1, 2}, false}} {
		if validCuts(c.cuts, 3) != c.ok {
			t.Fatalf("validCuts(%v, 3) = %v", c.cuts, !c.ok)
		}
	}
}
