package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"structura/internal/server"
	"structura/internal/stats"
	"structura/internal/wal"
)

// Sample sizes of the post-phase socket checks.
const (
	checkRoutes = 300
	checkKhops  = 100
	checkLabels = 200
	checkCDSs   = 200
)

type routeAnswer struct {
	Dist float64 `json:"dist"`
	Path []int   `json:"path"`
}

type khopAnswer struct {
	Nodes []int `json:"nodes"`
}

type topKAnswer struct {
	Nodes []rankedNode `json:"nodes"`
}

type cdsAnswer struct {
	Node   int  `json:"node"`
	Member bool `json:"member"`
	Size   int  `json:"size"`
}

type summaryAnswer struct {
	Edges     int    `json:"edges"`
	MISSize   int    `json:"mis_size"`
	GraphHash string `json:"graph_hash"`
}

// fetchJSON GETs path from the loopback listener and decodes a 200 answer.
func (b *bench) fetchJSON(path string, v any) error {
	var buf bytes.Buffer
	status, err := get(b.client, b.front.base+path, &buf)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s answered %d: %s", path, status, buf.String())
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// checkAnswers is the answer oracle run after a measured phase: the server
// must be quiesced, its published epoch must match the reference exactly,
// and sampled answers over the socket must equal the reference's.
func (b *bench) checkAnswers() error {
	if !b.srv.Quiesced() {
		return fmt.Errorf("server not quiesced after the phase")
	}
	ep := b.srv.Epoch()
	dest := ep.Dest
	b.refDist = bfs(b.ref, dest)
	b.refHash = hashHex(wal.GraphHash(b.ref))
	if err := checkEpoch(b.ref, b.refDist, ep); err != nil {
		return fmt.Errorf("epoch %d: %w", ep.Seq, err)
	}

	var sum summaryAnswer
	if err := b.fetchJSON("/labels?hash=1", &sum); err != nil {
		return err
	}
	if err := checkHash(b.refHash, b.ref.M(), sum.GraphHash, sum.Edges); err != nil {
		return err
	}
	if sum.MISSize != ep.MISSize {
		return fmt.Errorf("/labels mis_size %d, epoch %d", sum.MISSize, ep.MISSize)
	}

	r := stats.NewRand(streamSeed(b.seed, streamOracle))
	n := b.ref.N()
	for i := 0; i < checkRoutes; i++ {
		from := r.Intn(n)
		var a routeAnswer
		if err := b.fetchJSON("/route?from="+strconv.Itoa(from), &a); err != nil {
			return err
		}
		if err := checkRoutePath(b.ref, b.refDist, dest, from, a.Dist, a.Path); err != nil {
			return err
		}
	}
	for i := 0; i < checkKhops; i++ {
		node := r.Intn(n)
		var a khopAnswer
		if err := b.fetchJSON("/khop?k=2&node="+strconv.Itoa(node), &a); err != nil {
			return err
		}
		if err := checkKhop(b.ref, node, 2, a.Nodes); err != nil {
			return err
		}
	}
	var top topKAnswer
	if err := b.fetchJSON("/centrality/topk?k=16", &top); err != nil {
		return err
	}
	if len(top.Nodes) != 16 {
		return fmt.Errorf("/centrality/topk?k=16 returned %d entries", len(top.Nodes))
	}
	if err := checkTopK(b.ref, top.Nodes); err != nil {
		return err
	}
	for i := 0; i < checkLabels; i++ {
		node := r.Intn(n)
		var a nodeLabels
		if err := b.fetchJSON("/labels?node="+strconv.Itoa(node), &a); err != nil {
			return err
		}
		wantDist := float64(b.refDist[node])
		if a.Node != node || a.Degree != b.ref.Degree(node) || a.RouteDist != wantDist || a.MIS != ep.MIS[node] ||
			(a.CDS == nil) != (ep.CDS == nil) || (a.CDS != nil && *a.CDS != ep.CDS[node]) {
			return fmt.Errorf("/labels?node=%d answered %+v; reference degree %d dist %v", node, a, b.ref.Degree(node), wantDist)
		}
	}
	if ep.CDS != nil {
		for i := 0; i < checkCDSs; i++ {
			node := r.Intn(n)
			var a cdsAnswer
			if err := b.fetchJSON("/cds/member?node="+strconv.Itoa(node), &a); err != nil {
				return err
			}
			if a.Node != node || a.Member != ep.CDS[node] || a.Size != ep.CDSSize {
				return fmt.Errorf("/cds/member?node=%d answered %+v, epoch member %v size %d", node, a, ep.CDS[node], ep.CDSSize)
			}
		}
	}

	var met server.MetricsSnapshot
	if err := b.fetchJSON("/metrics", &met); err != nil {
		return err
	}
	if met.Standing != 0 || met.AbortedBatches != 0 {
		return fmt.Errorf("/metrics reports %d standing violations, %d aborted batches", met.Standing, met.AbortedBatches)
	}
	var hits, shed uint64
	for _, e := range met.Endpoints {
		hits += e.Hits
		shed += e.Shed
	}
	b.shedFrac = float64(shed) / math.Max(1, float64(hits+shed))
	b.final = ep
	return nil
}
