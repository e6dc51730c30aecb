package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"expandergap/internal/apps/ldd"
	"expandergap/internal/apps/matching"
	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
	"expandergap/internal/routing"
	"expandergap/internal/serve"
	"expandergap/internal/solvers"
)

// The layer probe of a traced run times calls into each layer's public
// functions directly, from the benchmark's side. The graph and expander
// layers are timed on the workload's own graph; the simulator layers
// (congest, core, primitives, routing, apps, solvers) and the serve
// overheads on the cold graph, where one canonical run takes about a
// second, so every workload's traced run reports every layer.

const (
	probeRepeats   = 3     // timed repeats of the graph and expander calls
	probeHitsLocal = 2000  // in-process hits for serve.hit_handler_us
	probeHits      = 12000 // loopback hits, enough for ten samples past p99.9
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probeLayers runs the layer probe and returns its per-layer metrics.
func probeLayers(in *inputs, rec *recorder, tr *tracer) (map[string]metric, error) {
	out := map[string]metric{}
	root := tr.begin("probe", 0)
	defer tr.end(root)
	if err := probeGraphExpander(in, out, tr, root); err != nil {
		return nil, err
	}
	cold := in
	if in.workload == "churn" {
		var err error
		if cold, err = makeInputs("cold", in.seed, in.dir); err != nil {
			return nil, err
		}
	}
	if err := probeSimulator(cold, rec, out, tr, root); err != nil {
		return nil, err
	}
	return out, nil
}

// probeGraphExpander times graph.LoadFile, Overlay.ApplyAll,
// Overlay.Compact, expander.Decompose and expander.DecomposeIncremental on
// the workload's graph, with churn batches of the churn workload's size.
func probeGraphExpander(in *inputs, out map[string]metric, tr *tracer, parent int) error {
	var load, apply, compact, decomp, incr, reuse, broken []float64
	var dec *expander.Decomposition
	opts := expander.Options{Seed: in.spec.Seed}
	for i := 0; i < probeRepeats; i++ {
		var err error
		load = append(load, tr.timed("graph.LoadFile", parent, func() { _, err = graph.LoadFile(in.spec.Path) }))
		if err != nil {
			return err
		}
		decomp = append(decomp, tr.timed("expander.Decompose", parent, func() { dec, err = expander.Decompose(in.g, in.spec.Eps, opts) }))
		if err != nil {
			return err
		}
		ops, err := graph.GenerateChurn(in.g, churnBatchOps, in.derive("probe-churn", i))
		if err != nil {
			return err
		}
		ov := graph.NewOverlay(in.g)
		us := 1000 * tr.timed("graph.Overlay.ApplyAll", parent, func() { _, err = ov.ApplyAll(ops) })
		if err != nil {
			return err
		}
		apply = append(apply, us/float64(len(ops)))
		compact = append(compact, tr.timed("graph.Overlay.Compact", parent, func() { _, err = ov.Compact() }))
		if err != nil {
			return err
		}
		var st *expander.IncrementalStats
		incr = append(incr, tr.timed("expander.DecomposeIncremental", parent, func() {
			_, _, st, err = expander.DecomposeIncremental(dec, ov, in.spec.Eps, opts)
		}))
		if err != nil {
			return err
		}
		reuse = append(reuse, st.ReuseFraction())
		broken = append(broken, float64(st.Broken))
	}
	out["graph.load_ms"] = metric{median(load), "ms"}
	out["graph.overlay_apply_us_per_op"] = metric{median(apply), "us"}
	out["graph.compact_ms"] = metric{median(compact), "ms"}
	out["expander.decompose_ms"] = metric{median(decomp), "ms"}
	out["expander.incremental_ms"] = metric{median(incr), "ms"}
	out["expander.clusters"] = metric{float64(len(dec.Clusters)), "count"}
	out["expander.cut_fraction"] = metric{dec.CutFraction(in.g), "ratio"}
	out["expander.reuse_fraction"] = metric{median(reuse), "ratio"}
	out["expander.broken_clusters"] = metric{median(broken), "count"}
	return nil
}

// probeSimulator runs each family probeRepeats times through HTTP on a
// fresh cold service and by calling its app directly with the same seed on
// the same decomposition, checks that both give the same answer, and
// derives the simulator, solver and serve metrics from the medians.
func probeSimulator(in *inputs, rec *recorder, out map[string]metric, tr *tracer, parent int) error {
	svc, err := startService(in.spec)
	if err != nil {
		return err
	}
	defer svc.stop()
	part, _ := observe(svc, rec, tr, parent, in.ref, -1, in.spec.Eps, 1)
	if part == nil {
		return fmt.Errorf("observing the probe's decomposition failed")
	}
	dec, err := expander.Decompose(in.g, in.spec.Eps, expander.Options{Seed: in.spec.Seed})
	if err != nil {
		return err
	}

	var (
		overhead           []float64
		totalNs, totalMsgs float64
		gsdRounds, diamRnd int
	)
	for i, fam := range serve.Families() {
		var (
			direct []float64
			rep    *congest.Report
			res    *result
		)
		for r := 0; r < probeRepeats; r++ {
			seed := in.derive("probe", r*len(serve.Families())+i)
			httpMs, d, rp, dr, err := probePair(svc, in, part, dec, rec, tr, parent, fam, seed)
			if err != nil {
				return err
			}
			direct = append(direct, d)
			if !math.IsNaN(httpMs) {
				overhead = append(overhead, httpMs-d)
			}
			rep, res = rp, dr
		}
		d := median(direct)
		out["congest.rounds."+fam] = metric{float64(rep.Rounds), "count"}
		out["congest.messages."+fam] = metric{float64(rep.Messages), "count"}
		out["congest.ns_per_round."+fam] = metric{d * 1e6 / float64(rep.Rounds), "ns"}
		totalNs += d * 1e6
		totalMsgs += float64(rep.Messages)
		gsdRounds += phaseRounds(rep, "gather-solve-disseminate")
		diamRnd += phaseRounds(rep, "diameter-check")
		if fam == "walkroute" {
			out["routing.exchange_ms"] = metric{d, "ms"}
			out["routing.delivered_ratio"] = metric{float64(res.Delivered) / float64(res.N), "ratio"}
		} else {
			out["apps."+fam+"_ms"] = metric{d, "ms"}
		}
	}
	out["congest.ns_per_message"] = metric{totalNs / totalMsgs, "ns"}
	out["core.gsd_rounds"] = metric{float64(gsdRounds), "count"}
	out["primitives.diamcheck_rounds"] = metric{float64(diamRnd), "count"}
	out["serve.cold_overhead_ms"] = metric{median(overhead), "ms"}

	// The solver the matching app's leaders run, on every cluster.
	out["solvers.mwm_ms"] = metric{tr.timed("solvers.MaximumMatching", parent, func() {
		for i := range dec.Clusters {
			cg, _ := dec.ClusterGraph(in.g, i)
			solvers.MaximumMatching(cg)
		}
	}), "ms"}

	// Hits on a projection of a matching result filled above: in-process,
	// then over loopback.
	hitKey := query{Seed: in.derive("probe", 0), Vertices: in.vertices("probe-hit", 0, hotProjSize, in.g.N())}.body()
	rp, ok := svc.call(rec, "probe.hit", http.MethodPost, "/query/matching", hitKey)
	if !ok {
		return fmt.Errorf("probe hit failed with status %d", rp.status)
	}
	first, _, err := decodeEnvelope(rp.body)
	if err != nil {
		return err
	}
	want := first.Result
	h := svc.srv.Handler()
	local := make([]float64, 0, probeHitsLocal)
	for i := 0; i < probeHitsLocal; i++ {
		req := httptest.NewRequest(http.MethodPost, "/query/matching", bytes.NewReader(hitKey))
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := ms(time.Since(t0))
		if w.Code != http.StatusOK {
			rec.fail("probe.inproc", fmt.Sprintf("status %d", w.Code))
			continue
		}
		env, _, err := decodeEnvelope(w.Body.Bytes())
		if err == nil {
			err = checkHit(env, 1, want)
		}
		rec.check("probe.inproc", d, err)
		local = append(local, d)
	}
	loop := make([]float64, 0, probeHits)
	sp := tr.begin("probe.hits.loopback", parent)
	for i := 0; i < probeHits; i++ {
		rp, ok := svc.call(rec, "probe.hit", http.MethodPost, "/query/matching", hitKey)
		if !ok {
			continue
		}
		env, _, err := decodeEnvelope(rp.body)
		if err == nil {
			err = checkHit(env, 1, want)
		}
		rec.checkReply("probe.hit", rp, err)
		loop = append(loop, rp.ms)
	}
	tr.end(sp)
	out["serve.hit_handler_us"] = metric{1000 * median(local), "us"}
	out["serve.http_overhead_us"] = metric{1000 * (median(loop) - median(local)), "us"}
	return nil
}

// probePair runs one family with one seed through HTTP (except clustering,
// see checkedFamilies) and by a direct call, checks both, and returns the
// HTTP latency (NaN for clustering), the direct call's time, its observer
// report and its answer.
func probePair(svc *service, in *inputs, part *partition, dec *expander.Decomposition, rec *recorder, tr *tracer, parent int, fam string, seed int64) (float64, float64, *congest.Report, *result, error) {
	httpMs := math.NaN()
	var viaHTTP *result
	if fam != "clustering" {
		sp := tr.begin("http.query."+fam, parent)
		rp, ok := svc.call(rec, "probe.cold."+fam, http.MethodPost, "/query/"+fam, query{Seed: seed}.body())
		tr.end(sp)
		if !ok {
			return 0, 0, nil, nil, fmt.Errorf("probe query %s failed with status %d", fam, rp.status)
		}
		_, res, err := decodeEnvelope(rp.body)
		if err == nil {
			err = checkFamily(res, in.ref, part, queryEps, in.maximum)
		}
		rec.checkReply("probe.cold."+fam, rp, err)
		if err != nil {
			return 0, 0, nil, nil, fmt.Errorf("probe query %s: %w", fam, err)
		}
		httpMs, viaHTTP = rp.ms, res
	}
	obs := congest.NewObserver()
	var (
		direct *result
		err    error
	)
	d := tr.timed(directSpan[fam], parent, func() {
		direct, err = runDirect(in.g, dec, part, fam, congest.Config{Seed: seed, Obs: obs})
	})
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("direct %s: %w", fam, err)
	}
	if viaHTTP != nil {
		rec.check("probe.direct."+fam, d, sameAnswer(direct, viaHTTP))
	}
	return httpMs, d, obs.Report(), direct, nil
}

var directSpan = map[string]string{
	"matching":   "apps.matching.ApproximateMWM",
	"mis":        "apps.maxis.Approximate",
	"clustering": "apps.ldd.Decompose",
	"walkroute":  "routing.Exchange",
}

// runDirect runs one family's app on the decomposition with the options a
// canonical /query run uses, and returns its answer in wire form.
func runDirect(g *graph.Graph, dec *expander.Decomposition, part *partition, fam string, cfg congest.Config) (*result, error) {
	co := core.Options{Decomposition: dec}
	res := &result{Family: fam, N: g.N(), M: g.M()}
	switch fam {
	case "matching":
		r, err := matching.ApproximateMWM(g, matching.Options{Eps: queryEps, Cfg: cfg, Core: co})
		if err != nil {
			return nil, err
		}
		res.Mate = r.Mate
	case "mis":
		r, err := maxis.Approximate(g, maxis.Options{Eps: queryEps, Cfg: cfg, Core: co})
		if err != nil {
			return nil, err
		}
		res.Set = r.Set
	case "clustering":
		r, err := ldd.Decompose(g, ldd.Options{Eps: queryEps, Levels: 3, Cfg: cfg, Core: co})
		if err != nil {
			return nil, err
		}
		res.Labels = r.Labels
	case "walkroute":
		budget := routing.WalkBudget(dec.Phi, g.N())
		if hi := 8*g.N() + 256; budget > hi {
			budget = hi
		}
		cfg.MaxRounds = 2*budget + 16
		tokens := make([][]routing.Token, g.N())
		for v := range tokens {
			tokens[v] = []routing.Token{{A: -1}}
		}
		plan := routing.Plan{Cluster: dec.Assignment, Leader: part.leader, ForwardRounds: budget, Strategy: routing.RandomWalk}
		cfg.Obs.BeginPhase("walkroute")
		ex, _, err := routing.Exchange(g, cfg, plan, tokens, func(leader int, _ routing.Token) (int64, int64) { return int64(leader), 0 })
		cfg.Obs.EndPhase()
		if err != nil {
			return nil, err
		}
		res.DeliveredTo = make([]int, g.N())
		for v := range res.DeliveredTo {
			res.DeliveredTo[v] = -1
			for _, t := range ex.Responses[v] {
				if t.Seq == 0 {
					res.DeliveredTo[v] = int(t.A)
				}
			}
			if res.DeliveredTo[v] >= 0 {
				res.Delivered++
			}
		}
	}
	return res, nil
}

// sameAnswer checks that a direct call answered exactly what the canonical
// /query run with the same seed answered.
func sameAnswer(direct, viaHTTP *result) error {
	if !slices.Equal(direct.Mate, viaHTTP.Mate) || !slices.Equal(direct.Set, viaHTTP.Set) ||
		!slices.Equal(direct.Labels, viaHTTP.Labels) || !slices.Equal(direct.DeliveredTo, viaHTTP.DeliveredTo) {
		return fmt.Errorf("the direct %s call and the /query run disagree", direct.Family)
	}
	return nil
}

// phaseRounds sums the rounds of every phase with the given name.
func phaseRounds(r *congest.Report, name string) int {
	if r == nil {
		return 0
	}
	if r.Name == name {
		return r.Rounds
	}
	total := 0
	for _, c := range r.Phases {
		total += phaseRounds(c, name)
	}
	return total
}
