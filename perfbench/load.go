package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"structura/internal/server"
)

// front is the loopback HTTP listener in front of a server's handler.
type front struct {
	hs   *http.Server
	base string
	done chan error
}

func listen(h http.Handler) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { f.done <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the listener and waits for Serve to return.
func (f *front) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.hs.Shutdown(ctx) // a timeout only leaves idle keep-alives to Close
	_ = f.hs.Close()
	<-f.done
}

// newClient returns a client that keeps at most conns loopback connections
// alive and never consults proxy settings.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// get fetches base+path into buf and returns the status code.
func get(c *http.Client, url string, buf *bytes.Buffer) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// probe detects when a posted batch is visible without spinning: the
// server's OnPublish hook signals a channel, and the waiter then confirms
// Quiesced() and the epoch advance. The hook also records, for the batch in
// flight, how many of its ops each published epoch reflects — the writer
// may split one post into several batches, and the shadow pipeline replays
// exactly the batches the server applied.
type probe struct {
	pub      chan struct{}
	lastPub  atomic.Int64 // unix ns of the last OnPublish
	inflight atomic.Pointer[[]server.Mutation]
	req      atomic.Int64 // trace request ID of the batch in flight
	tr       *tracer

	mu   sync.Mutex
	cuts []int
}

func newProbe(tr *tracer) *probe { return &probe{pub: make(chan struct{}, 1), tr: tr} }

func (p *probe) onPublish(ep *server.Epoch) {
	now := time.Now()
	if ops := p.inflight.Load(); ops != nil {
		k := appliedPrefix(ep.CSR, *ops)
		p.mu.Lock()
		p.cuts = append(p.cuts, k)
		p.mu.Unlock()
	}
	p.lastPub.Store(now.UnixNano())
	p.tr.add("server.publish", 0, 0, p.req.Load(), now, now)
	select {
	case p.pub <- struct{}{}:
	default:
	}
}

func (p *probe) begin(ops []server.Mutation, req int64) {
	p.mu.Lock()
	p.cuts = nil
	p.mu.Unlock()
	p.req.Store(req)
	p.inflight.Store(&ops)
}

// end returns the prefix lengths the batch was published in.
func (p *probe) end() []int {
	p.inflight.Store(nil)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cuts
}

// wait blocks until every accepted mutation is drained and the epoch has
// advanced past before, and returns the instant it saw that.
func (p *probe) wait(srv *server.Server, before uint64) (time.Time, error) {
	visible := func() bool { return srv.Quiesced() && srv.Epoch().Seq > before }
	deadline := time.Now().Add(60 * time.Second)
	for !visible() {
		select {
		case <-p.pub:
			// OnPublish runs just before the writer stores the epoch and
			// counts the batch drained; yield until both land.
			for i := 0; i < 100 && !visible(); i++ {
				runtime.Gosched()
			}
		case <-time.After(500 * time.Microsecond):
			// A signal can be consumed by an earlier wait; re-check.
		}
		if time.Now().After(deadline) {
			return time.Time{}, errors.New("batch not visible after 60s")
		}
	}
	return time.Now(), nil
}

// post is one mutation batch the benchmark posted and saw published.
type post struct {
	ops  []server.Mutation
	cuts []int // prefix lengths per published epoch; the last is len(ops)
}

// phase accumulates one measured phase's raw samples.
type phase struct {
	start      time.Time
	elapsed    time.Duration
	reads      series // µs per read, socket round trip
	readRate   rate   // reads completed per second
	readBytes  int64
	visible    series // ms from sending a batch to seeing it published
	publishLag dist   // ms from the last OnPublish of a batch to the client seeing it
	opsRate    dist   // per batch, ops per second; see postBatch
	attempted  int
	failed     int

	lastPost time.Time
	lastOps  int
}

func (p *phase) merge(o *phase) {
	shift := o.start.Sub(p.start)
	p.reads.merge(o.reads, shift)
	p.readRate.merge(o.readRate, shift)
	p.opsRate = append(p.opsRate, o.opsRate...)
	p.readBytes += o.readBytes
	p.visible.merge(o.visible, shift)
	p.publishLag = append(p.publishLag, o.publishLag...)
	p.attempted += o.attempted
	p.failed += o.failed
}

type mutateResponse struct {
	Accepted int `json:"accepted"`
}

// postBatch posts the next churn batch (over the socket, or in-process
// through Handler when viaSocket is false), waits until it is visible, and
// applies it to the reference. Its ops rate is, on write-churn's closed
// loop over the socket, its ops over the time from its post to the next;
// on the in-process churn, whose posts a ticker paces, its ops over the
// time from its post until it is visible.
func (b *bench) postBatch(ph *phase, viaSocket bool) error {
	ops := b.churn.next()
	body, err := json.Marshal(struct {
		Ops []server.Mutation `json:"ops"`
	}{ops})
	if err != nil {
		return err
	}
	req := b.tr.id()
	before := b.srv.Epoch().Seq
	b.probe.begin(ops, req)
	start := time.Now()
	if viaSocket && !ph.lastPost.IsZero() {
		ph.opsRate.add(float64(ph.lastOps) / start.Sub(ph.lastPost).Seconds())
	}
	ph.lastPost, ph.lastOps = start, len(ops)
	var status int
	var resp mutateResponse
	if viaSocket {
		var buf bytes.Buffer
		r, perr := b.client.Post(b.front.base+"/mutate", "application/json", bytes.NewReader(body))
		if perr != nil {
			ph.attempted++
			ph.failed++
			return fmt.Errorf("post /mutate: %w", perr)
		}
		_, err = buf.ReadFrom(r.Body)
		r.Body.Close()
		status = r.StatusCode
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &resp)
		}
	} else {
		rec := httptest.NewRecorder()
		b.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/mutate", bytes.NewReader(body)))
		status = rec.Code
		err = json.Unmarshal(rec.Body.Bytes(), &resp)
	}
	ph.attempted++
	if status != http.StatusAccepted || err != nil || resp.Accepted != len(ops) {
		ph.failed++
		return fmt.Errorf("/mutate answered %d, accepted %d of %d ops (%v)", status, resp.Accepted, len(ops), err)
	}
	seen, err := b.probe.wait(b.srv, before)
	if err != nil {
		return err
	}
	cuts := b.probe.end()
	if !validCuts(cuts, len(ops)) {
		return fmt.Errorf("batch of %d ops published as prefixes %v", len(ops), cuts)
	}
	ph.visible.addAt(start.Sub(ph.start), seen.Sub(start), time.Millisecond)
	if !viaSocket {
		ph.opsRate.add(float64(len(ops)) / seen.Sub(start).Seconds())
	}
	ph.publishLag.addDur(seen.Sub(time.Unix(0, b.probe.lastPub.Load())), time.Millisecond)
	b.tr.add("server.mutate_visible", req, 0, req, start, seen)
	applyOps(b.ref, ops)
	b.posts = append(b.posts, post{ops: ops, cuts: cuts})
	return nil
}

type nodeLabels struct {
	Node      int     `json:"node"`
	Degree    int     `json:"degree"`
	RouteDist float64 `json:"route_dist"`
	MIS       bool    `json:"mis"`
	CDS       *bool   `json:"cds"`
}

// writeLoop is write-churn's closed loop on one connection: post a batch,
// wait until it is visible, then read back the labels of one endpoint of
// every edge it added and check degree and MIS membership against the
// quiesced state.
func (b *bench) writeLoop(dur time.Duration) (*phase, error) {
	start := time.Now()
	ph := &phase{start: start}
	var buf bytes.Buffer
	for time.Since(start) < dur {
		if err := b.postBatch(ph, true); err != nil {
			return ph, err
		}
		ep := b.srv.Epoch()
		for _, m := range b.churn.prev {
			id := b.tr.id()
			t0 := time.Now()
			status, err := get(b.client, b.front.base+"/labels?node="+strconv.Itoa(m.U), &buf)
			t1 := time.Now()
			ph.attempted++
			if err != nil || status != http.StatusOK {
				ph.failed++
				continue
			}
			ph.reads.addAt(t1.Sub(start), t1.Sub(t0), time.Microsecond)
			ph.readRate.count(t1.Sub(start), 1)
			ph.readBytes += int64(buf.Len())
			b.tr.add("http.get.labels", id, 0, id, t0, t1)
			var got nodeLabels
			if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
				return ph, fmt.Errorf("read-back of node %d: %w", m.U, err)
			}
			if got.Node != m.U || got.Degree != b.ref.Degree(m.U) || got.MIS != ep.MIS[m.U] {
				return ph, fmt.Errorf("read-back of node %d: degree %d mis %v, reference degree %d epoch mis %v",
					m.U, got.Degree, got.MIS, b.ref.Degree(m.U), ep.MIS[m.U])
			}
		}
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

// readLoad runs the closed-loop read mix on the workload's connections for
// dur while a churn goroutine posts a batch in-process every 100 ms and
// waits for it to become visible. Every timed answer must be a 200 carrying an epoch;
// the oracle checks answer content after the phase, once quiesced.
func (b *bench) readLoad(dur time.Duration) (*phase, error) {
	deadline := time.Now().Add(dur)
	start := time.Now()
	conns := b.sp.conns
	phases := make([]*phase, conns)
	errs := make([]error, conns+1)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		phases[c] = &phase{start: start}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = b.readLoop(b.queries[c], deadline, phases[c])
		}(c)
	}
	churn := &phase{start: start}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			<-tick.C
			if time.Now().After(deadline) {
				return
			}
			if err := b.postBatch(churn, false); err != nil {
				errs[conns] = err
				return
			}
		}
	}()
	wg.Wait()
	ph := &phase{start: start, elapsed: time.Since(start)}
	for _, p := range phases {
		ph.merge(p)
	}
	ph.merge(churn)
	return ph, errors.Join(errs...)
}

var epochPrefix = []byte(`{"epoch":`)

var getSpans = [nKinds]string{"http.get.route", "http.get.labels", "http.get.khop", "http.get.topk", "http.get.cds_member"}

// maxReadRate bounds the reads per second of one connection, for the sample
// space reserved up front; beyond it samples spill onto the heap.
const maxReadRate = 250_000

func (b *bench) readLoop(qs *qstream, deadline time.Time, ph *phase) error {
	ph.reads.reserve(int(math.Ceil(time.Until(deadline).Seconds())) * maxReadRate)
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		q := qs.next()
		id := b.tr.id()
		t0 := time.Now()
		status, err := get(b.client, b.front.base+q.path(), &buf)
		t1 := time.Now()
		ph.attempted++
		if err != nil || status != http.StatusOK {
			ph.failed++
			continue
		}
		if !bytes.HasPrefix(buf.Bytes(), epochPrefix) {
			return fmt.Errorf("%s answered %q", q.path(), buf.String())
		}
		ph.reads.addAt(t1.Sub(ph.start), t1.Sub(t0), time.Microsecond)
		ph.readRate.count(t1.Sub(ph.start), 1)
		ph.readBytes += int64(buf.Len())
		b.tr.add(getSpans[q.kind], id, 0, id, t0, t1)
	}
	return nil
}
