package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpustream"
	"gpustream/internal/service"
)

// service-mix: an in-process service on a loopback listener, driven over
// HTTP by at most nproc client goroutines, each with its own connection.
// Four tenants each own one stream of every class below; even tenants POST
// binary rows, odd ones JSON. An open-loop phase replays a fixed schedule of
// POSTs (every eighth with ?sync=1) and whole-history GETs; a closed-loop
// phase then POSTs as fast as the service accepts, in rounds that each end
// with a ?sync=1 barrier on every stream, so its rate counts queryable rows.
const (
	smTenants    = 4
	smRows       = 4000 // rows per POST
	smPool       = 127  // distinct pre-encoded batches, prime so streams walk it at different offsets
	smVocab      = 1 << 14
	smSkew       = 1.2
	smOpenShare  = 0.5 // share of the measured time given to the open-loop phase
	smRounds     = 5   // closed-loop rounds; their median rate is values_per_s
	smGetEvery   = 6   // every sixth open-loop operation is a GET
	smSyncEvery  = 8   // every eighth open-loop POST carries ?sync=1
	smSetups     = 31
	smStatszPoll = 50 // traced runs read /statsz every this many closed-loop POSTs
)

// smInterval is each client's open-loop operation interval. Two clients
// offer about 0.83M rows/s, 15% of the closed-loop rate (5.5M rows/s on a
// 2-vCPU Xeon) measured when the benchmark was defined. At 45% the
// sequential clients fell behind their schedule; at 30% a few seconds of
// host slowdown left them behind for the rest of the phase.
const smInterval = 8 * time.Millisecond

// streamClass is one of the four stream specs every tenant creates.
type streamClass struct {
	name string
	spec gpustream.Spec
}

var smClasses = []streamClass{
	{"q", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 1e-2, Backend: gpustream.BackendSampleSort}},
	{"f", gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 1e-3, Support: 0.01, Backend: gpustream.BackendSampleSort}},
	{"pq", gpustream.Spec{Family: gpustream.FamilyParallelQuantile, Eps: 1e-2, Shards: 2, Backend: gpustream.BackendSampleSort}},
	{"auto", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 1e-2, Backend: gpustream.BackendAuto}},
}

// smStream is one stream the load drives: where it lives and what was sent.
type smStream struct {
	id      int // index into the stream list; picks its walk over the pool
	tenant  string
	name    string
	gen     int // bumped when the stream is deleted and created afresh
	class   streamClass
	binary  bool
	batches int // batches sent so far, in order
	// Answers the service gave, for the oracle.
	quantiles []quantileAnswer
	heavy     []heavyAnswer
}

func (s *smStream) path() string {
	return fmt.Sprintf("/v1/streams/%s/%s-%d", s.tenant, s.name, s.gen)
}

// reproducible reports whether the stream's final snapshot bytes depend
// only on the rows it was sent: a parallel stream's shard partition
// depends on when snapshots flushed it, and auto tunes its window from
// measured time.
func (s *smStream) reproducible() bool {
	return !s.class.spec.Family.Parallel() && s.class.spec.Backend != gpustream.BackendAuto
}

// lastCount is the count of the stream's latest answer.
func (s *smStream) lastCount() int64 {
	if len(s.heavy) > 0 {
		return s.heavy[len(s.heavy)-1].count
	}
	if len(s.quantiles) > 0 {
		return s.quantiles[len(s.quantiles)-1].count
	}
	return 0
}

// batchAt is the pool index of the stream's b-th batch.
func (s *smStream) batchAt(b int) int { return (s.id*97 + b) % smPool }

// smPoolData holds the pre-generated batches and their encoded bodies, so
// clients spend no time generating or encoding.
type smPoolData struct {
	rows   [][]float32
	binary [][]byte
	json   [][]byte
}

func newSMPool(seed int64) *smPoolData {
	vals, free := zipfValues(seed, smPool*smRows, smSkew, smVocab)
	defer free()
	p := &smPoolData{}
	for i := 0; i < smPool; i++ {
		rows := append([]float32(nil), vals[i*smRows:(i+1)*smRows]...)
		p.rows = append(p.rows, rows)
		bin := make([]byte, 0, 4*len(rows))
		js := []byte{'['}
		for j, v := range rows {
			bin = binary.LittleEndian.AppendUint32(bin, math.Float32bits(v))
			if j > 0 {
				js = append(js, ',')
			}
			js = strconv.AppendInt(js, int64(v), 10)
		}
		p.binary = append(p.binary, bin)
		p.json = append(p.json, append(js, ']'))
	}
	return p
}

// streamRows materializes what a stream was sent, for the oracle.
func (p *smPoolData) streamRows(s *smStream) []float32 {
	out := make([]float32, 0, s.batches*smRows)
	for b := 0; b < s.batches; b++ {
		out = append(out, p.rows[s.batchAt(b)]...)
	}
	return out
}

// smLoad is the shared state of one service-mix run.
type smLoad struct {
	base    string
	client  *http.Client
	pool    *smPoolData
	tr      *tracer
	streams []*smStream
	owner   [][]*smStream // streams each client drives, so per-stream order is fixed

	mu                          sync.Mutex
	ingest, query, visible, lag dist
	attempted                   int64
	v                           verdict
	queueDepthMax               int
}

func (l *smLoad) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.v.fail("%v", err)
}

// do sends one request, reads the whole response and decodes it into out
// when out is non-nil; a non-2xx status is an error.
func (l *smLoad) do(method, url, ctype string, body []byte, out any) error {
	req, err := http.NewRequest(method, l.base+url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	name := "client." + strings.ToLower(method)
	id := l.tr.begin(name, 0)
	if l.tr != nil {
		req.Header.Set("X-Span", strconv.Itoa(int(id)))
	}
	resp, err := l.client.Do(req)
	if err != nil {
		l.tr.end(id, 0)
		return err
	}
	raw, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	l.tr.end(id, 0)
	if rerr != nil {
		return rerr
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return nil
}

// post sends the stream's next batch.
func (l *smLoad) post(s *smStream, sync bool) error {
	i := s.batchAt(s.batches)
	body, ctype := l.pool.json[i], "application/json"
	if s.binary {
		body, ctype = l.pool.binary[i], "application/octet-stream"
	}
	url := s.path() + "/values"
	if sync {
		url += "?sync=1"
	}
	err := l.do(http.MethodPost, url, ctype, body, nil)
	if err == nil {
		s.batches++
	}
	return err
}

type quantileReply struct {
	Count   int64 `json:"count"`
	Results []struct {
		Phi   float64 `json:"phi"`
		Value float64 `json:"value"`
		OK    bool    `json:"ok"`
	} `json:"results"`
}

type heavyReply struct {
	Count   int64   `json:"count"`
	Support float64 `json:"support"`
	OK      bool    `json:"ok"`
	Items   []struct {
		Value float64 `json:"value"`
		Freq  int64   `json:"freq"`
	} `json:"items"`
}

// get asks the stream's whole-history question and records the answer.
func (l *smLoad) get(s *smStream) error {
	if s.class.spec.Family.AnswersQuantiles() {
		var rep quantileReply
		if err := l.do(http.MethodGet, s.path()+"/quantile?phi=0.5,0.9,0.99", "", nil, &rep); err != nil {
			return err
		}
		for _, r := range rep.Results {
			if !r.OK {
				if rep.Count > 0 {
					return fmt.Errorf("%s: phi %v not answered at count %d", s.path(), r.Phi, rep.Count)
				}
				continue
			}
			s.quantiles = append(s.quantiles, quantileAnswer{count: rep.Count, phi: r.Phi, value: float32(r.Value)})
		}
		return nil
	}
	var rep heavyReply
	if err := l.do(http.MethodGet, s.path()+"/heavyhitters", "", nil, &rep); err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("%s: heavy hitters not answered", s.path())
	}
	if rep.Count > 0 {
		a := heavyAnswer{count: rep.Count, support: rep.Support}
		for _, it := range rep.Items {
			a.items = append(a.items, gpustream.Item[float32]{Value: float32(it.Value), Freq: it.Freq})
		}
		s.heavy = append(s.heavy, a)
	}
	return nil
}

// put creates streams.
func (l *smLoad) put(streams []*smStream) error {
	for _, s := range streams {
		body, err := json.Marshal(s.class.spec)
		if err != nil {
			return err
		}
		if err := l.do(http.MethodPut, s.path(), "application/json", body, nil); err != nil {
			return err
		}
	}
	return nil
}

// statsz reads the service status document.
func (l *smLoad) statsz() (service.ServiceStatus, error) {
	var st service.ServiceStatus
	err := l.do(http.MethodGet, "/statsz", "", nil, &st)
	return st, err
}

// openLoop replays client c's fixed schedule for d, timing every
// operation from its due time.
func (l *smLoad) openLoop(c int, d time.Duration) {
	mine := l.owner[c]
	start := time.Now()
	posts := 0
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * smInterval)
		if !due.Before(start.Add(d)) {
			return
		}
		time.Sleep(time.Until(due))
		late := time.Since(due)
		s := mine[k%len(mine)]
		var err error
		kind := &l.query
		if k%smGetEvery == smGetEvery-1 {
			err = l.get(s)
		} else {
			sync := posts%smSyncEvery == smSyncEvery-1
			posts++
			err = l.post(s, sync)
			kind = &l.ingest
			if sync {
				kind = &l.visible
			}
		}
		took := time.Since(due)
		l.mu.Lock()
		l.attempted++
		l.lag.add(late)
		kind.add(took)
		l.mu.Unlock()
		if err != nil {
			l.fail(err)
		}
	}
}

// closedLoop runs one round for client c: it POSTs the client's streams
// round-robin until d has passed, then sends a ?sync=1 batch to each, so
// every row it sent is queryable when it returns. It reports the rows sent.
func (l *smLoad) closedLoop(c int, d time.Duration) int64 {
	mine := l.owner[c]
	var rows int64
	deadline := time.Now().Add(d)
	for k := 0; time.Now().Before(deadline); k++ {
		if l.tr != nil && c == 0 && k%smStatszPoll == 0 {
			if st, err := l.statsz(); err == nil {
				l.noteQueues(st)
			}
		}
		if err := l.post(mine[k%len(mine)], false); err != nil {
			l.fail(err)
		} else {
			rows += smRows
		}
		l.mu.Lock()
		l.attempted++
		l.mu.Unlock()
	}
	for _, s := range mine {
		if err := l.post(s, true); err != nil {
			l.fail(err)
		} else {
			rows += smRows
		}
		l.mu.Lock()
		l.attempted++
		l.mu.Unlock()
	}
	return rows
}

func (l *smLoad) noteQueues(st service.ServiceStatus) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range st.Streams {
		l.queueDepthMax = max(l.queueDepthMax, s.QueueDepth)
	}
}

// eachClient runs fn once per client goroutine and waits for all.
func (l *smLoad) eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := range l.owner {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// syncAll sends one ?sync=1 batch to every stream, from the stream's own
// client.
func (l *smLoad) syncAll() {
	l.eachClient(func(c int) {
		for _, s := range l.owner[c] {
			if err := l.post(s, true); err != nil {
				l.fail(err)
			}
		}
	})
}

// serveTimer wraps the service handler in a traced run, recording a span
// per request split by route, parented to the client span that sent it.
type serveTimer struct {
	h  http.Handler
	tr *tracer
}

func (t serveTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := "service.serve_other"
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/values"):
		route = "service.serve_ingest"
	case r.Method == http.MethodGet && (strings.HasSuffix(r.URL.Path, "/quantile") || strings.HasSuffix(r.URL.Path, "/heavyhitters")):
		route = "service.serve_query"
	}
	parent, _ := strconv.Atoi(r.Header.Get("X-Span"))
	id := t.tr.begin(route, int32(parent))
	t.h.ServeHTTP(w, r)
	t.tr.end(id, 0)
}

// smServer is one running service with its loopback listener.
type smServer struct {
	svc  *service.Server[float32]
	http *http.Server
	done chan error
	base string
}

func startServer(spill string, tr *tracer) (*smServer, error) {
	svc := service.New[float32](service.Config{SpillDir: spill})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = svc
	if tr != nil {
		h = serveTimer{svc, tr}
	}
	s := &smServer{svc: svc, http: &http.Server{Handler: h}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the service (spilling every stream) and shuts the listener.
func (s *smServer) stop() error {
	err := s.svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := s.http.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func serviceMix(cfg runConfig, tr *tracer) (*outcome, error) {
	clients := max(runtime.NumCPU(), 1)
	pool := newSMPool(cfg.seed)
	spill, err := os.MkdirTemp(cfg.out, "spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spill)

	l := &smLoad{
		pool:  pool,
		tr:    tr,
		owner: make([][]*smStream, clients),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	defer l.client.CloseIdleConnections()
	for t := 0; t < smTenants; t++ {
		for _, c := range smClasses {
			s := &smStream{id: len(l.streams), tenant: fmt.Sprintf("t%d", t), name: c.name, class: c, binary: t%2 == 0}
			l.streams = append(l.streams, s)
			// Tenant t belongs to client t mod nproc, so each client drives
			// binary and JSON tenants alike when there are two.
			l.owner[t%clients] = append(l.owner[t%clients], s)
		}
	}

	// Set-up: start the service and create the streams, several times,
	// each after a collection; the last one built is measured.
	var setups []float64
	var srv *smServer
	for i := 0; i < smSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			if err := clearDir(spill); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if srv, err = startServer(spill, tr); err != nil {
			return nil, err
		}
		l.base = srv.base
		if err := l.put(l.streams); err != nil {
			srv.stop()
			return nil, fmt.Errorf("create streams: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	heap := startHeapSampler()
	rt0 := readRuntime()
	openFor := time.Duration(float64(cfg.seconds) * smOpenShare)
	l.eachClient(func(c int) { l.openLoop(c, openFor) })
	l.syncAll()

	// Deleting the serial streams spills their final snapshots: the fixed
	// schedule decided what they were sent, so the bytes must come out the
	// same in a traced and an untraced run. They are created afresh for
	// the closed loop; the parallel and auto streams carry on, past auto's
	// probe phase.
	o := newOutcome()
	var finished []*smStream // deleted generations, for the oracle
	for _, s := range l.streams {
		if !s.reproducible() {
			continue
		}
		if err := l.do(http.MethodDelete, s.path(), "", nil, nil); err != nil {
			return nil, fmt.Errorf("delete %s: %w", s.path(), err)
		}
		blob, err := os.ReadFile(filepath.Join(spill, fmt.Sprintf("%s__%s-%d.snap", s.tenant, s.name, s.gen)))
		if err != nil {
			return nil, fmt.Errorf("spilled snapshot: %w", err)
		}
		o.digests[s.tenant+"/"+s.name] = sha256hex(blob)
		old := *s
		finished = append(finished, &old)
		s.gen++
		s.batches, s.quantiles, s.heavy = 0, nil, nil
		if err := l.put([]*smStream{s}); err != nil {
			return nil, fmt.Errorf("create streams: %w", err)
		}
	}

	// Closed loop: the median round gives the rate and the CPU per value,
	// so a short slowdown of the host moves one round and not the result.
	round := (cfg.seconds - openFor) / smRounds
	var rates, cpus []float64
	var closedRows int64
	var closedWall time.Duration
	for r := 0; r < smRounds; r++ {
		var rows int64
		var rowsMu sync.Mutex
		c0, start := cpuTime(), time.Now()
		l.eachClient(func(c int) {
			n := l.closedLoop(c, round)
			rowsMu.Lock()
			rows += n
			rowsMu.Unlock()
		})
		wall, cpu := time.Since(start), cpuTime()-c0
		rates = append(rates, float64(rows)/wall.Seconds())
		cpus = append(cpus, cpu.Seconds()/(float64(rows)/1e6))
		closedRows += rows
		closedWall += wall
	}
	// Every row is queryable now: each stream's final answer must cover
	// all of it.
	l.eachClient(func(c int) {
		for _, s := range l.owner[c] {
			if err := l.get(s); err != nil {
				l.fail(err)
				continue
			}
			if n := s.lastCount(); n != int64(s.batches)*smRows {
				l.fail(fmt.Errorf("%s: count %d after the barrier, %d rows sent", s.path(), n, s.batches*smRows))
			}
		}
	})
	rt1 := readRuntime()
	heapMB := heap.stopMB()
	st, err := l.statsz()
	if err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	all := append(finished, l.streams...)
	totalRows := int64(0)
	for _, s := range all {
		totalRows += int64(s.batches) * smRows
	}
	o.attempted, o.verdict = l.attempted, l.v
	m := o.metrics
	m.set("setup_s", medianOf(setups), "s")
	m.set("values_per_s", medianOf(rates), "1/s")
	m.latency("ingest", &l.ingest, "ms", 1)
	m.latency("query", &l.query, "ms", 1)
	m.latency("visible", &l.visible, "ms", 1)
	m.set("cpu_s_per_mvalue", medianOf(cpus), "s")
	m.set("heap_peak_mb", heapMB, "MB")
	o.notes["closed_rows"] = closedRows
	o.notes["round_values_per_s"] = rates
	o.notes["round_cpu_s_per_mvalue"] = cpus
	o.work = closedWall.Seconds() / float64(closedRows)
	o.notes["clients"] = clients

	// Oracle: every answer over the exact rows its stream had been sent.
	for _, s := range all {
		checkStream(&o.verdict, pool, s)
	}

	runtimeMetrics(m, rt0, rt1, totalRows)
	if tr != nil {
		serviceLayerMetrics(l, tr, st, m)
	}
	return o, nil
}

// checkStream runs the oracle over one stream's answers.
func checkStream(v *verdict, pool *smPoolData, s *smStream) {
	o := newPrefixOracle(pool.streamRows(s), smVocab)
	label := s.path()
	if len(s.quantiles) > 0 {
		o.checkQuantiles(v, s.class.spec.Eps, s.quantiles, label)
	}
	if len(s.heavy) > 0 {
		o.checkHeavy(v, s.class.spec.Eps, s.heavy, label)
	}
}

// serviceLayerMetrics derives the service, shard, adaptive, pipeline,
// runtime and load-generator metrics of a traced service-mix run.
func serviceLayerMetrics(l *smLoad, tr *tracer, st service.ServiceStatus, m *metricSet) {
	m.latency("service.ingest_serve", tr.durations("service.serve_ingest"), "ms", 1)
	m.latency("service.query_serve", tr.durations("service.serve_query"), "ms", 1)
	var transport dist
	for _, s := range append(tr.byName("service.serve_ingest"), tr.byName("service.serve_query")...) {
		if s.Parent > 0 {
			transport.add(tr.spans[s.Parent-1].dur() - s.dur())
		}
	}
	m.set("service.transport_p50_ms", transport.median(), "ms")
	m.set("service.enqueue_stall_s", float64(st.EnqueueStall)/1e9, "s")
	m.set("service.queue_depth_max", float64(l.queueDepthMax), "count")

	var ingestErrs, switches, rescales, autos, onSample int64
	var pipe, shards gpustream.Stats
	for _, s := range st.Streams {
		ingestErrs += s.IngestErrors
		for _, e := range s.Estimators {
			pipe.Add(e.Stats)
			if e.Kind == "parallel-quantile" {
				shards.Add(e.Stats)
			}
			if s.Spec.Backend == gpustream.BackendAuto && e.Tuning != nil {
				autos++
				switches += int64(e.Tuning.Switches)
				rescales += int64(e.Tuning.Rescales)
				if e.Tuning.Backend == "samplesort" {
					onSample++
				}
			}
		}
	}
	m.set("service.ingest_errors", float64(ingestErrs), "count")
	m.set("shard.idle_s", shards.Idle.Seconds(), "s")
	if autos > 0 {
		m.set("adaptive.switches", float64(switches)/float64(autos), "count")
		m.set("adaptive.rescales", float64(rescales)/float64(autos), "count")
		m.set("adaptive.final_backend_is_samplesort", float64(onSample)/float64(autos), "ratio")
	}
	pipelineMetrics(m, pipe)
	lagTail, info := l.lag.tail()
	m.set("loadgen.lag_tail_ms", lagTail, "ms")
	m.tails["loadgen.lag_tail_ms"] = info
}

func clearDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}
