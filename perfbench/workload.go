package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/heal"
	"structura/internal/server"
	"structura/internal/stats"
	"structura/internal/wal"
)

// spec fixes one workload: its graph, the server configuration, and the
// load shape. Only the seed varies between runs of a workload.
type spec struct {
	name  string
	graph func(seed int64) (*graph.Graph, error)
	cfg   server.Config

	// journaled runs the server over a write-ahead log for the whole run.
	journaled bool
	// reads drives a closed-loop read mix over the loopback connections
	// with churn posted in-process; otherwise one connection posts
	// mutation batches back to back and reads back what each changed.
	reads bool
	// lastKind fills the last 10% of the read mix.
	lastKind kind
	// adds is the number of absent edges each churn batch adds; it also
	// removes the previous batch's adds.
	adds int
	// conns is the number of loopback connections the load uses; it also
	// fixes the query streams drawn.
	conns int
}

// setups is how many times set-up runs; setup_s is their median.
const setups = 5

const (
	erNodes = 100_000
	wsNodes = 2_000
)

// journalOpts is the log configuration of every store the benchmark writes:
// the server's default fsync policy, and compaction often enough that a
// write-churn run compacts several times.
var journalOpts = wal.Options{Sync: wal.SyncEachBatch, CompactEvery: 64}

const fsyncPolicy = "SyncEachBatch"

var serveBudget = heal.Budget{MaxTouched: 20_000}

var specs = []spec{
	{
		name: "read-mix", graph: sparseER,
		cfg:   server.Config{SkipCDS: true, RepairBudget: serveBudget},
		reads: true, lastKind: qLabels, adds: 25, conns: 2,
	},
	{
		name: "write-churn", graph: sparseER,
		cfg:       server.Config{SkipCDS: true, RepairBudget: serveBudget},
		journaled: true, adds: 25, conns: 1,
	},
	{
		name: "cds-backbone", graph: smallWorld,
		cfg:   server.Config{RepairBudget: serveBudget},
		reads: true, lastKind: qCDS, adds: 5, conns: 2,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sparseER is a 100k-node Erdős–Rényi graph with average degree 10.
func sparseER(seed int64) (*graph.Graph, error) {
	return gen.SparseErdosRenyi(stats.NewRand(seed), erNodes, 10.0/float64(erNodes-1)), nil
}

// smallWorld is a connected 2k-node Watts–Strogatz graph, k=10, β=0.1: the
// CDS needs a connected support.
func smallWorld(seed int64) (*graph.Graph, error) {
	g, err := gen.WattsStrogatz(stats.NewRand(seed), wsNodes, 10, 0.1)
	if err != nil {
		return nil, err
	}
	if slices.Contains(bfs(g, 0), -1) {
		return nil, fmt.Errorf("watts-strogatz graph for seed %d is disconnected", seed)
	}
	return g, nil
}

// Seeds of the independent random streams a run draws, derived from --seed.
func streamSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

const (
	streamChurn = iota + 1
	streamOracle
	streamQueries // + connection index
)

// kind is a query type of the read mix.
type kind int

const (
	qRoute kind = iota
	qLabels
	qKhop
	qTopK
	qCDS
	nKinds
)

var kindNames = [nKinds]string{"route", "labels", "khop", "topk", "cds_member"}

type query struct {
	kind kind
	node int
	k    int
}

func (q query) path() string {
	n := strconv.Itoa(q.node)
	switch q.kind {
	case qRoute:
		return "/route?from=" + n
	case qKhop:
		return "/khop?node=" + n + "&k=" + strconv.Itoa(q.k)
	case qTopK:
		return "/centrality/topk?k=" + strconv.Itoa(q.k)
	case qCDS:
		return "/cds/member?node=" + n
	}
	return "/labels?node=" + n
}

// qstream draws the read mix: 40% /route, 25% /labels, 15% /khop k=2,
// 10% /centrality/topk k=1..16, and 10% of the workload's last kind.
type qstream struct {
	r    *rand.Rand
	n    int
	last kind
}

func newQStream(seed int64, n int, last kind) *qstream {
	return &qstream{r: stats.NewRand(seed), n: n, last: last}
}

func (s *qstream) next() query {
	p, node := s.r.Intn(100), s.r.Intn(s.n)
	switch {
	case p < 40:
		return query{kind: qRoute, node: node}
	case p < 65:
		return query{kind: qLabels, node: node}
	case p < 80:
		return query{kind: qKhop, node: node, k: 2}
	case p < 90:
		return query{kind: qTopK, k: 1 + s.r.Intn(16)}
	}
	return query{kind: s.last, node: node}
}

// churner draws mutation batches: removal of the previous batch's adds,
// then adds of distinct edges absent from the reference. It never adds an
// edge the reference has and removes only edges it added, so the reference
// stays exact and the density flat.
type churner struct {
	r    *rand.Rand
	ref  *graph.Graph
	adds int
	prev []server.Mutation
}

func (c *churner) next() []server.Mutation {
	ops := make([]server.Mutation, 0, len(c.prev)+c.adds)
	for _, m := range c.prev {
		ops = append(ops, server.Mutation{Op: "remove", U: m.U, V: m.V})
	}
	c.prev = c.prev[:0]
	n := c.ref.N()
	picked := map[[2]int]bool{}
	for len(c.prev) < c.adds {
		u, v := c.r.Intn(n), c.r.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u == v || picked[[2]int{u, v}] || c.ref.HasEdge(u, v) {
			continue
		}
		picked[[2]int{u, v}] = true
		m := server.Mutation{Op: "add", U: u, V: v}
		c.prev = append(c.prev, m)
		ops = append(ops, m)
	}
	return ops
}

// appliedPrefix returns how many leading ops of a batch the epoch reflects:
// applied removes are absent and applied adds present. The ops touch
// distinct edges, so the answer is unique; -1 reports an epoch that is not a
// prefix of the batch.
func appliedPrefix(csr *graph.CSR, ops []server.Mutation) int {
	k := 0
	for k < len(ops) && (ops[k].Op == "add") == csr.HasEdge(ops[k].U, ops[k].V) {
		k++
	}
	for _, m := range ops[k:] {
		if (m.Op == "add") == csr.HasEdge(m.U, m.V) {
			return -1
		}
	}
	return k
}

// validCuts reports whether the prefix lengths a batch was published in
// rise strictly from above zero to n: every epoch applied some of it, and
// the last applied all of it.
func validCuts(cuts []int, n int) bool {
	prev := 0
	for _, c := range cuts {
		if c <= prev {
			return false
		}
		prev = c
	}
	return prev == n
}
