package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"expandergap/internal/serve"
)

// kindStats counts one kind of operation.
type kindStats struct {
	attempted int
	failed    int
	reasons   map[string]int // failure reason (status code or check) -> count
	lat       []float64      // ms, service time of the operations that succeeded
	wall      []float64      // ms, wall time of the same operations
	allocKB   float64        // heap KB allocated during their exchanges (CPU-timed kinds)
}

// recorder collects attempted/failed counts and latencies per operation
// kind, and whether every checked output was correct. Safe for concurrent
// use.
type recorder struct {
	mu    sync.Mutex
	kinds map[string]*kindStats
	wrong []string // the first few failed checks, for the report
}

func newRecorder() *recorder { return &recorder{kinds: map[string]*kindStats{}} }

func (r *recorder) kind(k string) *kindStats {
	ks := r.kinds[k]
	if ks == nil {
		ks = &kindStats{reasons: map[string]int{}}
		r.kinds[k] = ks
	}
	return ks
}

// ok records a successful operation and its latency.
func (r *recorder) ok(kind string, ms float64) { r.okWall(kind, ms, ms) }

// okWall records a successful operation, its latency and its wall time.
func (r *recorder) okWall(kind string, ms, wall float64) {
	r.mu.Lock()
	ks := r.kind(kind)
	ks.attempted++
	ks.lat = append(ks.lat, ms)
	ks.wall = append(ks.wall, wall)
	r.mu.Unlock()
}

// fail records an operation the program failed (transport error or
// non-200 status).
func (r *recorder) fail(kind, reason string) {
	r.mu.Lock()
	ks := r.kind(kind)
	ks.attempted++
	ks.failed++
	ks.reasons[reason]++
	r.mu.Unlock()
}

// wrongOutput records an operation whose output failed a check: it counts
// as failed and makes the run incorrect.
func (r *recorder) wrongOutput(kind string, err error) {
	r.fail(kind, "check")
	r.mu.Lock()
	if len(r.wrong) < 10 {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: %v", kind, err))
	}
	r.mu.Unlock()
}

// check records the outcome of one completed operation: a latency when
// err is nil, a wrong output otherwise.
func (r *recorder) check(kind string, ms float64, err error) {
	if err != nil {
		r.wrongOutput(kind, err)
		return
	}
	r.ok(kind, ms)
}

// checkReply is check for an HTTP exchange, keeping its wall time beside
// its latency and adding up its allocation.
func (r *recorder) checkReply(kind string, rp reply, err error) {
	if err != nil {
		r.wrongOutput(kind, err)
		return
	}
	r.okWall(kind, rp.ms, rp.wallMs)
	r.mu.Lock()
	r.kind(kind).allocKB += rp.allocKB
	r.mu.Unlock()
}

// merge adds o's counts (not its latencies) into r.
func (r *recorder) merge(o *recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, ks := range o.kinds {
		dst := r.kind(k)
		dst.attempted += ks.attempted
		dst.failed += ks.failed
		for why, c := range ks.reasons {
			dst.reasons[why] += c
		}
	}
	r.wrong = append(r.wrong, o.wrong...)
}

// latency is the geometric mean over kinds of each kind's typical time:
// the mean CPU time of a CPU-timed kind (see cpuTimed; CPU time adds up,
// and its mean spreads the garbage collector's work evenly over the
// requests that caused it), the median wall time of any other kind, or,
// with wall set, every kind's median wall time.
// An entry "a+b" of kinds pools the samples of kinds a and b.
func (r *recorder) latency(kinds []string, wall bool) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	typ := make([]float64, 0, len(kinds))
	for _, pooled := range kinds {
		var lat, wallLat []float64
		parts := strings.Split(pooled, "+")
		for _, k := range parts {
			lat = append(lat, r.kind(k).lat...)
			wallLat = append(wallLat, r.kind(k).wall...)
		}
		switch {
		case wall:
			typ = append(typ, median(wallLat))
		case cpuTimed[parts[0]]:
			typ = append(typ, mean(lat))
		default:
			typ = append(typ, median(lat))
		}
	}
	return geomean(typ)
}

// attempted returns the number of operations of the given kinds attempted.
func (r *recorder) attempted(kinds []string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, k := range kinds {
		n += r.kind(k).attempted
	}
	return n
}

// allocKB returns the heap KB allocated during the exchanges of the given
// kinds that succeeded.
func (r *recorder) allocKB(kinds []string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	sum := 0.0
	for _, k := range kinds {
		sum += r.kind(k).allocKB
	}
	return sum
}

// samples returns the latencies of every kind whose name starts with
// prefix.
func (r *recorder) samples(prefix string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for k, ks := range r.kinds {
		if strings.HasPrefix(k, prefix) {
			out = append(out, ks.lat...)
		}
	}
	return out
}

// totals returns whether every check passed, and the attempted and failed
// counts over all kinds.
func (r *recorder) totals() (correct bool, attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ks := range r.kinds {
		attempted += ks.attempted
		failed += ks.failed
	}
	return len(r.wrong) == 0, attempted, failed
}

// report prints the set-up samples and the per-kind breakdown as comment
// lines.
func (r *recorder) report(w io.Writer, setups, setupWall []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(w, "# set-up CPU s %v, wall s %v\n", fmtFloats(setups), fmtFloats(setupWall))
	names := make([]string, 0, len(r.kinds))
	for k := range r.kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ks := r.kinds[k]
		fmt.Fprintf(w, "# %-22s attempted %6d failed %d", k, ks.attempted, ks.failed)
		if len(ks.lat) > 0 {
			fmt.Fprintf(w, "  p50 %.4f ms  p90 %.4f ms  n %d", median(ks.lat), percentile(ks.lat, 0.9), len(ks.lat))
			if cpuTimed[k] {
				fmt.Fprintf(w, "  (CPU, mean %.4f ms; wall p50 %.4f ms)", mean(ks.lat), median(ks.wall))
			}
		}
		if len(ks.reasons) > 0 {
			fmt.Fprintf(w, "  reasons %v", ks.reasons)
		}
		fmt.Fprintln(w)
	}
	for _, msg := range r.wrong {
		fmt.Fprintf(w, "# WRONG %s\n", msg)
	}
}

func fmtFloats(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4f", x)
	}
	return b.String()
}

// service is one expandersvc instance served over loopback.
type service struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan struct{} // closed once hs.Serve has returned
	base      string
	transport *http.Transport
	hc        *http.Client
}

// startService builds the server's first snapshot from spec and serves it
// on a fresh loopback port.
func startService(spec serve.Spec) (*service, error) {
	srv, err := serve.New(serve.Config{Spec: spec})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		},
	}
	s.hc = &http.Client{Transport: s.transport, Timeout: 120 * time.Second}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop drains the listener, waits for it to return, and retires the server.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.transport.CloseIdleConnections()
	s.srv.Close()
}

// reply is one HTTP exchange: its status, body, wall time from sending the
// request to having read the whole body, and its service time.
type reply struct {
	status int
	body   []byte
	wallMs float64
	// ms is the process CPU time spent during the exchange for the
	// CPU-timed kinds, the wall time otherwise.
	ms float64
	// allocKB is the heap KB the process allocated during the exchange,
	// for the CPU-timed kinds only.
	allocKB float64
}

// cpuTimed are the operation kinds whose service time is the process CPU
// time spent while they run: one busy thread for hundreds of ms, whose
// wall time on a shared host tracks the CPU time the hypervisor steals
// (two- to three-fold under heavy steal). The other kinds are sub-ms
// reads, whose median wall time steal rarely touches.
var cpuTimed = map[string]bool{
	"cold.matching": true, "cold.mis": true, "cold.walkroute": true,
	"mutate": true, "rebuild": true, "reload": true,
}

// do sends one request; a transport error is returned as err. With cpu
// set, the reply's ms is the process CPU time spent during the request and
// its allocKB the heap it allocated. The answer is read into buf, or into
// a new buffer when buf is nil; the reply's body aliases it.
func (s *service) do(method, path string, body []byte, cpu bool, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	var cpu0, alloc0 float64
	if cpu {
		cpu0, alloc0 = cpuNow(), allocatedKB()
	}
	t0 := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	wall := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return reply{}, err
	}
	rp := reply{status: resp.StatusCode, body: buf.Bytes(), wallMs: wall, ms: wall}
	if cpu {
		rp.ms, rp.allocKB = cpuNow()-cpu0, allocatedKB()-alloc0
	}
	return rp, nil
}

// call sends one request as an operation of the given kind. It returns
// false, having recorded the failure, unless the status is 200.
func (s *service) call(rec *recorder, kind, method, path string, body []byte) (reply, bool) {
	return s.callInto(rec, kind, method, path, body, nil)
}

// callInto is call reading the answer into buf (see do).
func (s *service) callInto(rec *recorder, kind, method, path string, body []byte, buf *bytes.Buffer) (reply, bool) {
	rp, err := s.do(method, path, body, cpuTimed[kind], buf)
	switch {
	case err != nil:
		rec.fail(kind, "transport")
		return rp, false
	case rp.status != http.StatusOK:
		rec.fail(kind, fmt.Sprintf("status %d", rp.status))
		return rp, false
	}
	return rp, true
}

// warmUp sends one request whose answer is not checked, recorded as a
// "warmup" operation; it reports whether the status was 200.
func (s *service) warmUp(rec *recorder, path string, body []byte) bool {
	rp, ok := s.call(rec, "warmup", http.MethodPost, path, body)
	if ok {
		rec.checkReply("warmup", rp, nil)
	}
	return ok
}

// statz is the part of GET /statz the benchmark reads.
type statz struct {
	Pool struct {
		Completed   int64   `json:"completed"`
		QueueWaitMs float64 `json:"queue_wait_ms"`
	} `json:"pool"`
	Families map[string]struct {
		Requests  int64 `json:"requests"`
		CacheHits int64 `json:"cache_hits"`
		Coalesced int64 `json:"coalesced"`
	} `json:"families"`
}

func (s *service) statz() (*statz, error) {
	rp, err := s.do(http.MethodGet, "/statz", nil, false, nil)
	if err != nil {
		return nil, err
	}
	if rp.status != http.StatusOK {
		return nil, fmt.Errorf("statz: status %d", rp.status)
	}
	var st statz
	if err := json.Unmarshal(rp.body, &st); err != nil {
		return nil, fmt.Errorf("statz: %w", err)
	}
	return &st, nil
}

// query is the body of a POST /query/<family> request.
type query struct {
	Seed          int64 `json:"seed,omitempty"`
	Budget        int   `json:"budget,omitempty"`
	Deterministic bool  `json:"deterministic,omitempty"`
	Vertices      []int `json:"vertices,omitempty"`
	Sources       []int `json:"sources,omitempty"`
}

func (q query) body() []byte {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // a struct of ints and bools always encodes
	}
	return b
}

// treeBudget is the forward budget of the deterministic walkroute read
// that observes the decomposition of an n-vertex snapshot. A leader
// absorbs at most one token per incident edge and round, so n rounds
// deliver every token whatever the cluster's shape.
func treeBudget(n int) int { return n + 64 }

// observe reads the served decomposition off a deterministic walkroute
// query (tree routing delivers every vertex to its cluster's leader) and
// checks it with partitionOf. clusters < 0 skips the cluster-count check.
// It returns nil, having recorded the failure, when the request or a
// check fails, or when the answer comes from another epoch than epoch
// (epoch 0 accepts any).
func observe(svc *service, rec *recorder, tr *tracer, parent int, g *refGraph, clusters int, eps float64, epoch int64) (*partition, int64) {
	sp := tr.begin("http.query.walkroute.tree", parent)
	rp, ok := svc.call(rec, "verify", http.MethodPost, "/query/walkroute", query{Seed: 1, Budget: treeBudget(g.n()), Deterministic: true}.body())
	tr.end(sp)
	if !ok {
		return nil, 0
	}
	sp = tr.begin("check.partition", parent)
	defer tr.end(sp)
	env, res, err := decodeEnvelope(rp.body)
	if err == nil && epoch != 0 && env.Epoch != epoch {
		err = fmt.Errorf("observed epoch %d, want %d", env.Epoch, epoch)
	}
	var p *partition
	if err == nil {
		p, err = partitionOf(res, g, clusters, eps)
	}
	rec.checkReply("verify", rp, err)
	if err != nil {
		return nil, 0
	}
	return p, env.Epoch
}

// cpuNow returns the CPU time the process has used so far, user and
// system, in ms.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// stealSample is the host-wide CPU time split read from /proc/stat.
type stealSample struct{ steal, total float64 }

// hostSteal reads the host's cumulative stolen and total CPU ticks; it
// describes the machine the run shared, not the program.
func hostSteal() stealSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	var s stealSample
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// since returns the stolen share of CPU time since o, in percent.
func (s stealSample) since(o stealSample) float64 {
	if s.total <= o.total {
		return math.NaN()
	}
	return 100 * (s.steal - o.steal) / (s.total - o.total)
}
