package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"expandergap/internal/graph"
	"expandergap/internal/serve"
)

// churn: one writer replays deterministic graph.GenerateChurn traces
// through POST /reload and POST /mutate while one reader keeps issuing
// cheap walkroute reads. The work is in graph (Overlay, Compact), expander
// (DecomposeIncremental, Decompose) and the serve swap, competing with the
// reads.
//
// A writer cycle is one /reload (back to the base graph) followed by
// churnBatches batches of churnBatchOps ops from one trace; the last batch
// is sent with "full": true. Cycle c replays trace c mod churnTraces, so
// every cycle starts from the same base graph and its ops always apply.
// After every publish the writer observes the new decomposition (see
// observe) and checks it against its own model of the graph.
//
// Where the constants come from:
//   - churnBatchOps is the /mutate batch size of cmd/loadgen (-mutatebatch
//     default 64).
//   - churnBatches × churnBatchOps = 960 ops, 5 % of the churn graph's
//     19 337 edges: the middle of the churn fractions (1, 5 and 10 % of m)
//     the repository's churn benchmark (internal/benchmarks) compares
//     incremental maintenance with a full rebuild at. The cycle ends with
//     that full rebuild, the re-baselining the /mutate API documents for
//     accumulated churn.
//   - The reader's think time keeps it at about a tenth of a core: a write
//     is timed by the process CPU time spent while it runs, which a reader
//     spinning on the second core would inflate.
//   - The reader's queries keep a read cheap: deterministic (tree) routing
//     with a walk budget of 32 makes the one cold read after each swap
//     short (about 65 ms on the churn graph, against 0.37 s for random
//     walks with the same budget), and a projection changes only what is
//     returned, not what is computed.
//
// The writer starts its next write only once the reader has been answered
// from the new epoch, so the reader's cold read after a swap runs beside
// the writer's observing query, not inside the next write's exchange.
const (
	churnTraces   = 4
	churnBatches  = 15
	churnBatchOps = 64
	readBudget    = 32               // walk budget of the reader's queries
	readPause     = time.Millisecond // the reader's think time between reads
	readSources   = 16               // vertices per reader projection
	readSets      = 8                // distinct reader projections
	readWait      = 10 * time.Second // longest wait for the reader after a swap
)

type churnRunner struct {
	in     *inputs
	svc    *service
	reads  [][]int // the reader's projections
	ref    *refGraph
	epoch  int64 // last published epoch
	cycles int
	read   atomic.Int64 // latest epoch the reader has been answered from
	// Observed decomposition of every published epoch, written by the
	// writer and read by the reader.
	mu    sync.Mutex
	parts map[int64]*partition
	// reuse statistics of the incremental batches, for the report
	reuse, clusters []float64
}

// readObs is one reader answer whose epoch the writer had not observed
// yet when it arrived; it is checked once the writer is done.
type readObs struct {
	env *envelope
	res *result
	set []int
	ms  float64
}

func churnTracesFor(in *inputs) ([][]graph.Op, error) {
	var traces [][]graph.Op
	for c := 0; c < churnTraces; c++ {
		ops, err := graph.GenerateChurn(in.g, churnBatches*churnBatchOps, in.derive("churn", c))
		if err != nil {
			return nil, err
		}
		traces = append(traces, ops)
	}
	return traces, nil
}

func setupChurn(in *inputs, rec *recorder) (runner, error) {
	svc, err := startService(in.spec)
	if err != nil {
		return nil, err
	}
	c := &churnRunner{
		in:    in,
		svc:   svc,
		ref:   in.ref.clone(),
		epoch: 1,
		parts: map[int64]*partition{},
	}
	for i := 0; i < readSets; i++ {
		c.reads = append(c.reads, in.vertices("read", i, readSources, in.g.N()))
	}
	if !c.observe(rec, nil, 0, -1) {
		svc.stop()
		return nil, fmt.Errorf("observing the initial decomposition failed")
	}
	// Warm-up: the reader's first query, cold on epoch 1.
	if !svc.warmUp(rec, "/query/walkroute", c.readQuery(0)) {
		svc.stop()
		return nil, fmt.Errorf("warm-up query failed")
	}
	return c, nil
}

func (c *churnRunner) workKinds() []string { return []string{"mutate", "rebuild", "reload"} }

// latencyKinds pools full rebuilds and reloads: both decompose the whole
// graph from scratch, and a cycle has one of each.
func (c *churnRunner) latencyKinds() []string {
	return []string{"mutate", "rebuild+reload", "read"}
}

func (c *churnRunner) readQuery(i int) []byte {
	return query{Seed: c.in.derive("read", 0), Budget: readBudget, Deterministic: true, Sources: c.reads[i%len(c.reads)]}.body()
}

// observe records the decomposition of c.epoch, checked against c.ref.
func (c *churnRunner) observe(rec *recorder, tr *tracer, parent, clusters int) bool {
	p, _ := observe(c.svc, rec, tr, parent, c.ref, clusters, c.in.spec.Eps, c.epoch)
	if p == nil {
		return false
	}
	c.mu.Lock()
	c.parts[c.epoch] = p
	c.mu.Unlock()
	return true
}

// measure runs whole writer cycles until d has passed, with the reader
// running beside the writer until its last cycle ends.
func (c *churnRunner) measure(d time.Duration, rec *recorder, tr *tracer) {
	stop := make(chan struct{})
	var (
		wg  sync.WaitGroup
		obs []readObs
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		obs = c.reader(stop, rec, tr)
	}()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); c.cycles++ {
		c.cycle(rec, tr, c.in.traces[c.cycles%len(c.in.traces)])
	}
	close(stop)
	wg.Wait()
	for _, o := range obs {
		rec.check("read", o.ms, c.checkRead(o))
	}
}

// reader issues reads until stop is closed. Each answer is checked at
// once (epochs never regress) against the decomposition the writer
// observed for its epoch; answers from an epoch not observed yet are
// returned for checking later.
func (c *churnRunner) reader(stop <-chan struct{}, rec *recorder, tr *tracer) []readObs {
	var (
		obs  []readObs
		last int64
	)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return obs
		case <-time.After(readPause):
		}
		op := tr.begin("op.read", 0)
		sp := tr.begin("http.query.walkroute", op)
		rp, ok := c.svc.call(rec, "read", http.MethodPost, "/query/walkroute", c.readQuery(i))
		tr.end(sp)
		if ok {
			env, res, err := decodeEnvelope(rp.body)
			if err == nil && env.Epoch < last {
				err = fmt.Errorf("epoch regressed from %d to %d", last, env.Epoch)
			}
			o := readObs{env: env, res: res, set: c.reads[i%len(c.reads)], ms: rp.ms}
			switch {
			case err != nil:
				rec.wrongOutput("read", err)
			case c.observed(env.Epoch):
				last = env.Epoch
				rec.check("read", rp.ms, c.checkRead(o))
			default:
				last = env.Epoch
				obs = append(obs, o)
			}
			if err == nil {
				c.read.Store(last)
			}
		}
		tr.end(op)
	}
}

// awaitRead waits until the reader has been answered from c.epoch, for at
// most readWait; a reader that gets no answers shows as failed reads.
func (c *churnRunner) awaitRead() {
	for deadline := time.Now().Add(readWait); c.read.Load() < c.epoch && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
}

func (c *churnRunner) observed(epoch int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parts[epoch] != nil
}

func (c *churnRunner) checkRead(o readObs) error {
	c.mu.Lock()
	p, ok := c.parts[o.env.Epoch]
	c.mu.Unlock()
	n := c.in.g.N() // the churn traces change edges only
	if !ok {
		return fmt.Errorf("read from epoch %d, which the writer never observed", o.env.Epoch)
	}
	if o.res.N != n || o.res.Delivered+o.res.Undelivered != n {
		return fmt.Errorf("epoch %d: n=%d, delivered %d + undelivered %d, want n=%d",
			o.env.Epoch, o.res.N, o.res.Delivered, o.res.Undelivered, n)
	}
	if len(o.env.Selection) != len(o.set) {
		return fmt.Errorf("selection has %d entries for %d sources", len(o.env.Selection), len(o.set))
	}
	for _, a := range o.env.Selection {
		if a.Value != -1 && int(a.Value) != p.leader[a.V] {
			return fmt.Errorf("epoch %d: vertex %d reached %d, its cluster's leader is %d", o.env.Epoch, a.V, a.Value, p.leader[a.V])
		}
	}
	return nil
}

// published is the part of a /reload or /mutate answer the writer checks.
type published struct {
	Epoch         int64   `json:"epoch"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Applied       int     `json:"applied"`
	Incremental   bool    `json:"incremental"`
	Clusters      int     `json:"clusters"`
	ReuseFraction float64 `json:"reuse_fraction"`
}

// checkPublished checks that a swap advanced the epoch by one and that the
// swapped graph has the vertex and edge counts of the writer's own model.
func (c *churnRunner) checkPublished(body []byte) (*published, error) {
	var p published
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("decoding publish answer: %w", err)
	}
	if p.Epoch != c.epoch+1 {
		return nil, fmt.Errorf("published epoch %d after %d", p.Epoch, c.epoch)
	}
	if p.N != c.ref.n() || p.M != c.ref.m {
		return nil, fmt.Errorf("published n=%d m=%d, the replayed trace gives n=%d m=%d", p.N, p.M, c.ref.n(), c.ref.m)
	}
	return &p, nil
}

func (c *churnRunner) cycle(rec *recorder, tr *tracer, trace []graph.Op) {
	op := tr.begin("op.reload", 0)
	sp := tr.begin("http.reload", op)
	rp, ok := c.svc.call(rec, "reload", http.MethodPost, "/reload", nil)
	tr.end(sp)
	if ok {
		c.ref = c.in.ref.clone()
		p, err := c.checkPublished(rp.body)
		rec.checkReply("reload", rp, err)
		if err == nil {
			c.epoch = p.Epoch
			c.observe(rec, tr, op, p.Clusters)
			c.awaitRead()
		}
	}
	tr.end(op)
	for b := 0; b < churnBatches; b++ {
		c.batch(rec, tr, trace[b*churnBatchOps:(b+1)*churnBatchOps], b == churnBatches-1)
	}
}

func (c *churnRunner) batch(rec *recorder, tr *tracer, ops []graph.Op, full bool) {
	kind := "mutate"
	if full {
		kind = "rebuild"
	}
	req := serve.MutateRequest{Full: full}
	for _, o := range ops {
		req.Ops = append(req.Ops, wireOp(o))
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // ops of ints always encode
	}
	op := tr.begin("op."+kind, 0)
	defer tr.end(op)
	sp := tr.begin("http.mutate", op)
	rp, ok := c.svc.call(rec, kind, http.MethodPost, "/mutate", body)
	tr.end(sp)
	if !ok {
		return
	}
	sp = tr.begin("check.publish", op)
	for _, o := range ops {
		if err = applyRef(c.ref, o); err != nil {
			break
		}
	}
	var p *published
	if err == nil {
		p, err = c.checkPublished(rp.body)
	}
	if err == nil && (p.Applied != len(ops) || p.Incremental == full) {
		err = fmt.Errorf("applied %d of %d ops, incremental=%t for full=%t", p.Applied, len(ops), p.Incremental, full)
	}
	tr.end(sp)
	rec.checkReply(kind, rp, err)
	if err != nil {
		return
	}
	c.epoch = p.Epoch
	if !full {
		c.reuse = append(c.reuse, p.ReuseFraction)
	}
	c.clusters = append(c.clusters, float64(p.Clusters))
	c.observe(rec, tr, op, p.Clusters)
	c.awaitRead()
}

func wireOp(o graph.Op) serve.MutateOp {
	if o.Kind == graph.OpDeleteEdge {
		return serve.MutateOp{Op: "-", U: o.U, V: o.V}
	}
	return serve.MutateOp{Op: "+", U: o.U, V: o.V, W: o.W}
}

// applyRef replays one op on the writer's own model of the graph.
// graph.GenerateChurn emits edge inserts and deletes only.
func applyRef(g *refGraph, o graph.Op) error {
	switch o.Kind {
	case graph.OpAddEdge:
		return g.addEdge(o.U, o.V)
	case graph.OpDeleteEdge:
		return g.deleteEdge(o.U, o.V)
	}
	return fmt.Errorf("unexpected op kind %d in a churn trace", o.Kind)
}

func (c *churnRunner) notes() []string {
	return []string{fmt.Sprintf("%d writer cycles, median reuse fraction %.3f, median clusters %.1f",
		c.cycles, median(c.reuse), median(c.clusters))}
}

func (c *churnRunner) service() *service { return c.svc }

func (c *churnRunner) close() { c.svc.stop() }
