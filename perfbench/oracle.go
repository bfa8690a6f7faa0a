package main

import (
	"fmt"
	"math"
	"slices"

	"structura/internal/graph"
	"structura/internal/server"
)

// The oracle judges every answer the benchmark times against a reference
// graph the benchmark maintains itself. Each check is a pure function of the
// reference and the answer, so the self-test can plant faults in answers and
// prove each check rejects them.

// applyOps replays mutations on the reference under the server's acceptance
// rule: a duplicate add and a missing remove are no-ops.
func applyOps(ref *graph.Graph, ops []server.Mutation) {
	for _, m := range ops {
		switch m.Op {
		case "add":
			if m.U != m.V && !ref.HasEdge(m.U, m.V) {
				_ = ref.AddEdge(m.U, m.V)
			}
		case "remove":
			ref.RemoveEdge(m.U, m.V)
		}
	}
}

// bfs returns hop distances from src (-1 when unreachable).
func bfs(ref *graph.Graph, src int) []int32 {
	dist := make([]int32, ref.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range ref.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// ball returns the nodes within k hops of center, sorted, center excluded —
// what /khop answers.
func ball(ref *graph.Graph, center, k int) []int {
	dist := map[int]int{center: 0}
	queue := []int{center}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if dist[v] >= k {
			continue
		}
		for _, u := range ref.Neighbors(v) {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	out := queue[1:]
	slices.Sort(out)
	return out
}

// checkRouteLabels verifies a route-label epoch: distances equal the BFS
// distance to dest, unreachable nodes carry +Inf and no next hop, and every
// next hop is a real edge that descends the BFS distance by exactly one.
func checkRouteLabels(ref *graph.Graph, refDist []int32, dest int, dist []float64, next []int) error {
	if len(dist) != ref.N() || len(next) != ref.N() {
		return fmt.Errorf("route labels sized %d/%d, want %d", len(dist), len(next), ref.N())
	}
	for v := range dist {
		want := refDist[v]
		if want < 0 {
			if !math.IsInf(dist[v], 1) || next[v] != -1 {
				return fmt.Errorf("node %d is unreachable but has dist %v next %d", v, dist[v], next[v])
			}
			continue
		}
		if dist[v] != float64(want) {
			return fmt.Errorf("node %d: dist %v, reference BFS %d", v, dist[v], want)
		}
		if v == dest {
			if next[v] != -1 {
				return fmt.Errorf("dest %d has next hop %d", v, next[v])
			}
			continue
		}
		nx := next[v]
		if nx < 0 || nx >= ref.N() || !ref.HasEdge(v, nx) {
			return fmt.Errorf("node %d: next hop %d is not a neighbor", v, nx)
		}
		if refDist[nx] != want-1 {
			return fmt.Errorf("node %d (dist %d): next hop %d has dist %d, not one less", v, want, nx, refDist[nx])
		}
	}
	return nil
}

// checkRoutePath verifies one /route answer: dist -1 and no path when the
// source is unreachable, else a walk over real edges from the source to
// dest whose length equals the BFS distance.
func checkRoutePath(ref *graph.Graph, refDist []int32, dest, from int, dist float64, path []int) error {
	want := refDist[from]
	if want < 0 {
		if dist != -1 || len(path) != 0 {
			return fmt.Errorf("route from %d: unreachable, got dist %v path len %d", from, dist, len(path))
		}
		return nil
	}
	if dist != float64(want) || len(path) != int(want)+1 {
		return fmt.Errorf("route from %d: dist %v, %d hops; reference BFS %d", from, dist, len(path)-1, want)
	}
	if path[0] != from || path[len(path)-1] != dest {
		return fmt.Errorf("route from %d: path runs %d→%d", from, path[0], path[len(path)-1])
	}
	for i := 1; i < len(path); i++ {
		if !ref.HasEdge(path[i-1], path[i]) {
			return fmt.Errorf("route from %d: hop %d→%d is not an edge", from, path[i-1], path[i])
		}
	}
	return nil
}

// checkMIS verifies that in is an independent and maximal set on ref.
func checkMIS(ref *graph.Graph, in []bool) error {
	if len(in) != ref.N() {
		return fmt.Errorf("mis sized %d, want %d", len(in), ref.N())
	}
	for v := range in {
		covered := in[v]
		for _, u := range ref.Neighbors(v) {
			if in[v] && in[u] {
				return fmt.Errorf("mis members %d and %d are adjacent", v, u)
			}
			covered = covered || in[u]
		}
		if !covered {
			return fmt.Errorf("mis is not maximal: node %d has no member in its closed neighborhood", v)
		}
	}
	return nil
}

// checkCDS verifies that the backbone dominates ref and induces a connected
// subgraph.
func checkCDS(ref *graph.Graph, in []bool) error {
	if len(in) != ref.N() {
		return fmt.Errorf("cds sized %d, want %d", len(in), ref.N())
	}
	first, members := -1, 0
	for v := range in {
		if in[v] {
			members++
			if first < 0 {
				first = v
			}
			continue
		}
		dominated := false
		for _, u := range ref.Neighbors(v) {
			if in[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("cds does not dominate node %d", v)
		}
	}
	if members == 0 {
		return fmt.Errorf("cds is empty")
	}
	seen := map[int]bool{first: true}
	queue := []int{first}
	for head := 0; head < len(queue); head++ {
		for _, u := range ref.Neighbors(queue[head]) {
			if in[u] && !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	if len(seen) != members {
		return fmt.Errorf("cds members induce a disconnected subgraph (%d of %d reachable)", len(seen), members)
	}
	return nil
}

// rankedNode is one /centrality/topk entry.
type rankedNode struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// topK returns the reference degree ranking's first k entries: degree
// descending, then ID ascending.
func topK(ref *graph.Graph, k int) []rankedNode {
	ids := make([]int, ref.N())
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		if da, db := ref.Degree(a), ref.Degree(b); da != db {
			return db - da
		}
		return a - b
	})
	k = min(k, len(ids))
	out := make([]rankedNode, k)
	for i := range out {
		out[i] = rankedNode{Node: ids[i], Score: float64(ref.Degree(ids[i]))}
	}
	return out
}

// checkTopK verifies a /centrality/topk answer against the reference order.
func checkTopK(ref *graph.Graph, got []rankedNode) error {
	want := topK(ref, len(got))
	if len(got) != len(want) {
		return fmt.Errorf("topk returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("topk entry %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkKhop verifies a /khop answer against the reference BFS ball.
func checkKhop(ref *graph.Graph, node, k int, got []int) error {
	want := ball(ref, node, k)
	if !slices.Equal(got, want) {
		return fmt.Errorf("khop(%d,%d) returned %d nodes, reference ball has %d", node, k, len(got), len(want))
	}
	return nil
}

// hashHex formats a topology hash the way /labels?hash=1 reports it.
func hashHex(h uint64) string { return fmt.Sprintf("%016x", h) }

// checkHash verifies a /labels?hash=1 summary against the reference.
func checkHash(refHash string, refEdges int, gotHash string, gotEdges int) error {
	if gotHash != refHash || gotEdges != refEdges {
		return fmt.Errorf("graph hash %s with %d edges, reference %s with %d", gotHash, gotEdges, refHash, refEdges)
	}
	return nil
}

// checkEpoch runs the whole-epoch label checks: route labels, MIS, and the
// CDS when it is maintained. The topology hash is checked through
// /labels?hash=1, as a client sees it.
func checkEpoch(ref *graph.Graph, refDist []int32, ep *server.Epoch) error {
	if err := checkRouteLabels(ref, refDist, ep.Dest, ep.RouteDist, ep.RouteNext); err != nil {
		return err
	}
	if err := checkMIS(ref, ep.MIS); err != nil {
		return err
	}
	if ep.CDS != nil {
		return checkCDS(ref, ep.CDS)
	}
	return nil
}
