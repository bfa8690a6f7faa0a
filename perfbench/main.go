// Command perfbench is structura's serving benchmark. It starts the real
// server in-process behind a loopback net/http listener, drives one workload
// from this process, checks every answer against a reference model it
// maintains itself, and prints the metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around every call into a layer, writes them to the work
// directory, and reports the per-layer metrics instead. Any answer that
// disagrees with the reference makes the run exit non-zero without printing
// a result. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload read-mix --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"structura/internal/graph"
	"structura/internal/server"
	"structura/internal/stats"
	"structura/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: read-mix, write-churn or cds-backbone")
	seed := fs.Int64("seed", 1, "seed of the graph, mutation stream and query stream")
	seconds := fs.Int("seconds", 15, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q seconds %d trace %d\n",
			*workload, *seconds, *trace)
		return 2
	}
	if sp.conns > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(os.Stderr, "perfbench: %s uses %d connections, more than GOMAXPROCS=%d; refusing to run\n",
			sp.name, sp.conns, runtime.GOMAXPROCS(0))
		return 2
	}
	b := &bench{
		sp: sp, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, work: *workdir,
	}
	out, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(b.info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	sp     spec
	seed   int64
	dur    time.Duration
	traced bool
	work   string
	tmp    string
	tr     *tracer

	srv     *server.Server
	log     *wal.Log // the server's journal (write-churn), until durable takes it
	walDir  string
	front   *front
	client  *http.Client
	probe   *probe
	churn   *churner
	queries []*qstream

	ref     *graph.Graph
	refDist []int32
	refHash string
	final   *server.Epoch
	posts   []post

	setupS, serverNew      dist
	heapMB, serverHeapMB   float64
	shedFrac               float64
	catchup, restartReady  dist
	walOpen, snapDecode    dist
	cloneMs                dist
	snapBytes              int
	logBytes               int64
	replayRecords          dist
	warmStart              time.Duration
	handler                [nKinds]dist // µs, in-process
	handlerAll             dist
	untracedRead, tracedRd series
	untracedVis, tracedVis series
	phaseSeq0              uint64 // epoch seq when the measured phase starts
	stealPct               float64

	info map[string]any
}

func (b *bench) serverConfig() server.Config {
	cfg := b.sp.cfg
	cfg.OnPublish = b.probe.onPublish
	return cfg
}

// tempDir makes a fresh directory under the run's scratch directory.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.tmp, prefix+"-")
}

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(b.work, "run-")
	if err != nil {
		return nil, err
	}
	b.tmp = tmp
	defer os.RemoveAll(tmp)
	b.tr = newTracer()
	b.tr.on.Store(b.traced)
	b.probe = newProbe(b.tr)
	b.client = newClient(b.sp.conns)
	defer b.closeLog()
	defer b.stopServing()

	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	b.churn = &churner{r: stats.NewRand(streamSeed(b.seed, streamChurn)), ref: b.ref, adds: b.sp.adds}
	for c := 0; c < b.sp.conns; c++ {
		b.queries = append(b.queries, newQStream(streamSeed(b.seed, streamQueries+int64(c)), b.ref.N(), b.sp.lastKind))
	}

	load := b.writeLoop
	if b.sp.reads {
		load = b.readLoad
	}
	runtime.GC() // start the phase from the set-up's live heap only
	b.phaseSeq0 = b.srv.Epoch().Seq
	steal0, total0 := cpuSteal()
	var ph *phase
	if b.traced {
		// Half the phase untraced, half traced: the difference between the
		// halves is the tracing overhead.
		b.tr.on.Store(false)
		first, err := load(b.dur / 2)
		if err != nil {
			return nil, err
		}
		b.tr.on.Store(true)
		second, err := load(b.dur - b.dur/2)
		if err != nil {
			return nil, err
		}
		b.untracedRead, b.untracedVis = first.reads, first.visible
		b.tracedRd, b.tracedVis = second.reads, second.visible
		first.merge(second)
		first.elapsed += second.elapsed
		ph = first
	} else {
		if ph, err = load(b.dur); err != nil {
			return nil, err
		}
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		b.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if err := b.checkAnswers(); err != nil {
		return nil, fmt.Errorf("answer oracle: %w", err)
	}
	if b.traced {
		if err := b.handlerTiming(); err != nil {
			return nil, err
		}
	}
	b.stopServing()
	if err := b.durable(); err != nil {
		return nil, err
	}
	var sh *shadowStats
	if b.traced {
		if sh, err = b.shadow(); err != nil {
			return nil, fmt.Errorf("shadow pipeline: %w", err)
		}
	}
	return b.report(ph, sh)
}

// setup builds the serving stack setups times — graph generation, the
// journal on write-churn, server.New, listener, first answered request —
// and keeps the last. setup_s is the median.
func (b *bench) setup() error {
	for i := 0; i < setups; i++ {
		last := i == setups-1
		b.stopServing()
		b.closeLog()
		runtime.GC() // start every set-up from the same heap state
		var paused time.Duration
		start := time.Now()
		g, err := b.sp.graph(b.seed)
		if err != nil {
			return err
		}
		b.span("graph.generate", start)
		if b.sp.journaled {
			t := time.Now()
			if b.walDir, err = b.tempDir("wal"); err != nil {
				return err
			}
			if b.log, err = wal.Create(b.walDir, g, journalOpts); err != nil {
				return err
			}
			b.span("wal.create", t)
		}
		var before runtime.MemStats
		if last {
			p := time.Now()
			runtime.GC()
			runtime.ReadMemStats(&before)
			paused = time.Since(p)
		}
		t := time.Now()
		cfg := b.serverConfig()
		cfg.WAL = b.log
		if b.srv, err = server.New(g, cfg); err != nil {
			return err
		}
		b.serverNew.addDur(b.span("server.new", t), time.Millisecond)
		if b.front, err = listen(b.srv.Handler()); err != nil {
			return err
		}
		var buf bytes.Buffer
		if status, err := get(b.client, b.front.base+"/healthz", &buf); err != nil || status != http.StatusOK {
			return fmt.Errorf("first request answered %d: %v", status, err)
		}
		b.setupS.add((time.Since(start) - paused).Seconds())
		b.tr.add("http.first_request", 0, 0, 0, start, time.Now())
		if last {
			b.ref = g
			var after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.heapMB = float64(after.HeapAlloc) / 1e6
			b.serverHeapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6
		}
	}
	return nil
}

func (b *bench) closeLog() {
	if b.log != nil {
		b.log.Close()
		b.log = nil
	}
}

// stopServing shuts the listener and the server down and waits for both;
// the journal, if any, stays open for the durable phase.
func (b *bench) stopServing() {
	if b.front != nil {
		b.front.close()
		b.front = nil
	}
	b.client.CloseIdleConnections()
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = b.srv.Shutdown(ctx) // the writer is idle; a timeout leaves nothing to clean up
		cancel()
		b.srv = nil
	}
}

// discardWriter is the in-process ResponseWriter for handler timing.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(s int)   { d.status = s }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// handlerTiming times Handler().ServeHTTP in-process over the first
// connection's query stream, with the load and churn stopped.
func (b *bench) handlerTiming() error {
	qs := newQStream(streamSeed(b.seed, streamQueries), b.ref.N(), b.sp.lastKind)
	if !b.sp.reads {
		qs.last = qLabels
	}
	h := b.srv.Handler()
	w := &discardWriter{h: http.Header{}}
	for i := 0; i < 20_000; i++ {
		q := qs.next()
		req, err := http.NewRequest(http.MethodGet, q.path(), nil)
		if err != nil {
			return err
		}
		w.status = 0
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		if w.status != http.StatusOK {
			return fmt.Errorf("in-process %s answered %d", q.path(), w.status)
		}
		b.handler[q.kind].addDur(end.Sub(start), time.Microsecond)
		b.handlerAll.addDur(end.Sub(start), time.Microsecond)
		b.tr.add("server.handler."+kindNames[q.kind], 0, 0, int64(i+1), start, end)
	}
	return nil
}

// report assembles the printed metrics and the provenance line.
func (b *bench) report(ph *phase, sh *shadowStats) (*result, error) {
	n := float64(b.final.CSR.N())
	p99, p99Windows, err := ph.reads.windowedTail("read_p99_us", 0.99, ph.elapsed)
	if err != nil {
		return nil, err
	}
	p90, p90Windows, err := ph.visible.windowedTail("visible_p90_ms", 0.90, ph.elapsed)
	if err != nil {
		return nil, err
	}
	b.info = map[string]any{
		"workload": b.sp.name, "seed": b.seed, "seconds": b.dur.Seconds(), "trace": b.traced,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"source_sha256": sourceDigest(), "connections": b.sp.conns, "nodes": int(n),
		"fsync_policy": fsyncPolicy, "journaled_during_run": b.sp.journaled,
		"host_steal_pct": b.stealPct,
		"failed_frac":    float64(ph.failed) / math.Max(1, float64(ph.attempted)),
		"samples": map[string]int{
			"reads": len(ph.reads.dist), "visible": len(ph.visible.dist), "setups": len(b.setupS),
			"restarts": len(b.restartReady), "catchups": len(b.catchup), "posts": len(b.posts),
			"read_p99_windows": p99Windows, "visible_p90_windows": p90Windows,
		},
	}
	m := map[string]metric{}
	if !b.traced {
		m["setup_s"] = metric{b.setupS.median(), "s"}
		m["heap_mb"] = metric{b.heapMB, "MB"}
		m["read_qps"] = metric{ph.readRate.perSec(ph.elapsed), "1/s"}
		m["read_p50_us"] = metric{ph.reads.median(), "us"}
		m["read_p99_us"] = metric{p99, "us"}
		m["visible_p50_ms"] = metric{ph.visible.median(), "ms"}
		m["visible_p90_ms"] = metric{p90, "ms"}
		m["write_ops_per_s"] = metric{ph.opsRate.median(), "1/s"}
		m["restart_ready_ms"] = metric{b.restartReady.median(), "ms"}
		m["replica_catchup_ms"] = metric{b.catchup.median(), "ms"}
		m["mis_size_frac"] = metric{float64(b.final.MISSize) / n, "frac"}
	} else {
		if err := b.layerMetrics(m, ph, sh); err != nil {
			return nil, err
		}
	}
	return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// layerMetrics fills the per-layer metrics of a traced run. A layer the
// workload does not exercise (the CDS with SkipCDS, the journal without a
// log) reports 0.
func (b *bench) layerMetrics(m map[string]metric, ph *phase, sh *shadowStats) error {
	for k := kind(0); k < nKinds; k++ {
		m["server.handler_us."+kindNames[k]] = metric{b.handler[k].median(), "us"}
	}
	socketP50, handlerP50 := ph.reads.median(), b.handlerAll.median()
	if !b.sp.reads {
		handlerP50 = b.handler[qLabels].median() // write-churn reads back /labels only
	}
	m["http.overhead_us"] = metric{socketP50 - handlerP50, "us"}
	m["server.response_bytes"] = metric{float64(ph.readBytes) / math.Max(1, float64(len(ph.reads.dist))), "bytes"}
	m["server.shed_frac"] = metric{b.shedFrac, "frac"}
	m["server.epochs"] = metric{float64(b.final.Seq - b.phaseSeq0), "count"}
	m["server.batches_per_post"] = metric{float64(sh.batches) / math.Max(1, float64(len(b.posts))), "count"}
	m["server.publish_lag_ms"] = metric{ph.publishLag.median(), "ms"}
	m["server.new_ms"] = metric{b.serverNew.median(), "ms"}
	m["server.heap_mb"] = metric{b.serverHeapMB, "MB"}
	m["server.label_export_ms"] = metric{sh.stage[stExport].median(), "ms"}

	m["wal.append_ms"] = metric{sh.stage[stAppend].median(), "ms"}
	m["wal.fsync_ms"] = metric{sh.fsync.median(), "ms"}
	m["wal.label_journal_ms"] = metric{sh.stage[stLabelJournal].median(), "ms"}
	m["wal.bytes_per_op"] = metric{sh.bytesPerOp, "bytes"}
	m["wal.compactions"] = metric{float64(sh.compacts), "count"}
	m["wal.compact_ms"] = metric{sh.compact.median(), "ms"}
	m["wal.open_ms"] = metric{b.walOpen.median(), "ms"}
	m["wal.replay_records"] = metric{b.replayRecords.median(), "count"}

	m["heal.distvec_ms"] = metric{sh.stage[stDistVec].median(), "ms"}
	m["heal.mis_ms"] = metric{sh.stage[stMIS].median(), "ms"}
	m["heal.cds_ms"] = metric{sh.stage[stCDS].median(), "ms"}
	attempts := sh.repairs + sh.escalations
	m["heal.repair_frac"] = metric{float64(sh.repairs) / math.Max(1, float64(attempts)), "frac"}
	m["heal.touched_per_batch"] = metric{float64(sh.touched) / math.Max(1, float64(sh.batches)), "count"}
	m["heal.warm_start_ms"] = metric{float64(b.warmStart) / float64(time.Millisecond), "ms"}
	m["heal.distvec_build_ms"] = metric{float64(sh.dvBuild) / float64(time.Millisecond), "ms"}

	m["graph.freeze_ms"] = metric{sh.stage[stFreeze].median(), "ms"}
	m["graph.clone_ms"] = metric{b.cloneMs.median(), "ms"}
	m["graph.snapshot_decode_ms"] = metric{b.snapDecode.median(), "ms"}
	m["centrality.ranking_ms"] = metric{sh.stage[stRanking].median(), "ms"}
	m["labeling.mis_build_ms"] = metric{float64(sh.misBuild) / float64(time.Millisecond), "ms"}
	m["labeling.cds_build_ms"] = metric{float64(sh.cdsBuild) / float64(time.Millisecond), "ms"}
	m["labeling.cds_size_frac"] = metric{sh.cdsSizeFrac, "frac"}

	m["replica.snapshot_bytes"] = metric{float64(b.snapBytes), "bytes"}
	m["replica.log_bytes"] = metric{float64(b.logBytes), "bytes"}
	catchupS := b.catchup.median() / 1000
	m["replica.catchup_mbps"] = metric{float64(b.snapBytes+int(b.logBytes)) / 1e6 / math.Max(catchupS, 1e-9), "MB/s"}

	// Tracing overhead: traced half against untraced half of the phase, on
	// the reads where there are many, else on batch visibility.
	traced, untraced := b.tracedRd, b.untracedRead
	if !b.sp.reads {
		traced, untraced = b.tracedVis, b.untracedVis
	}
	m["trace.overhead_pct"] = metric{100 * (traced.median()/untraced.median() - 1), "%"}

	// Reconciliation: per post, the stages of every batch it was split into,
	// against the client-seen visibility.
	visible := ph.visible.median()
	stageSum := sh.perPost.median()
	m["recon.visible_p50_ms"] = metric{visible, "ms"}
	m["recon.stage_sum_ms"] = metric{stageSum, "ms"}
	m["recon.remainder_ms"] = metric{visible - stageSum, "ms"}
	flagged := 0.0
	if stageSum > visible+ph.visible.iqr() {
		flagged = 1
		fmt.Fprintf(os.Stderr, "perfbench: stage medians sum to %.3f ms, above visible_p50 %.3f ms plus its spread %.3f ms\n",
			stageSum, visible, ph.visible.iqr())
	}
	m["recon.flagged"] = metric{flagged, "count"}
	stages := map[string]float64{}
	for s := range sh.stage {
		stages[stageNames[s]] = sh.stage[s].median()
	}
	b.info["recon_stage_medians_ms"] = stages

	dir := filepath.Join(b.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.sp.name, b.seed))
	layers := b.tr.layers()
	for _, l := range []string{"http", "server", "wal", "heal", "graph", "centrality", "labeling", "replica"} {
		if layers[l] == 0 {
			return fmt.Errorf("traced run recorded no %s span", l)
		}
	}
	nspans, err := b.tr.write(path)
	if err != nil {
		return err
	}
	b.info["trace_spans"] = nspans
	b.info["trace_file"] = path
	b.info["trace_spans_per_layer"] = layers
	return nil
}

// cpuSteal returns the CPU time the hypervisor stole from this machine and
// the total CPU time, in clock ticks since boot, from /proc/stat; zeros
// where that is not available. A shared host's steal explains runs that are
// slow across every metric.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sourceDigest fingerprints the Go sources the benchmark was built from,
// standing in for a revision where the checkout is not a git repository.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
